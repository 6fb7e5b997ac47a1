"""Load test for the network serving edge: sustained QPS and tail latency.

Drives a loopback :class:`~repro.server.net.TcpQueryServer` with a fleet
of concurrent :class:`~repro.client.RemoteClient` threads for a fixed
duration and reports sustained throughput (QPS) plus the p50/p99 request
latency distribution — the serving numbers the wire protocol, the
connection pool, and the admission path are accountable for. The store
carries simulated per-page device read latency (the same knob the
concurrent sweep in ``bench_wallclock.py`` uses), so the server's worker
pool has real waiting to overlap and the measurement exercises the full
stack: frame codec, TCP round trip, admission, execution, statistics
encoding.

A single-threaded in-process baseline (one ``QueryService.execute`` loop
over the same queries) runs first; its QPS is reported alongside so the
wire overhead is visible as a ratio, but only the *remote* numbers are
gated.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--json]
        [--clients N] [--workers N] [--duration S]
        [--min-qps Q] [--max-p99-ms MS] [--out F]

The report merges into ``BENCH_wallclock.json`` (or ``--out``) under a
``"serving"`` key, preserving any sections an earlier
``bench_wallclock.py`` run wrote; the file's top-level ``"pass"`` flag
becomes the AND of the existing verdict and this one, so
``tools/bench_report.py`` gates on both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
from pathlib import Path

from repro.client import RemoteClient
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.workloads.generator import SetWorkloadGenerator, WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL = {
    "num_objects": 512,
    "domain_cardinality": 1664,
    "target_cardinality": 10,
    "signature_bits": 500,
    "bits_per_element": 2,
    "page_size": 4096,
    "target_seed": 42,
    "query_seed": 43,
    "query_elements": 3,
    "num_queries": 32,
    "device_read_latency_s": 0.0002,
    "clients": 8,
    "workers": 8,
    "warmup_seconds": 0.5,
    "duration_seconds": 4.0,
}

SMOKE = {
    "num_objects": 192,
    "domain_cardinality": 208,
    "target_cardinality": 10,
    "signature_bits": 192,
    "bits_per_element": 2,
    "page_size": 4096,
    "target_seed": 42,
    "query_seed": 43,
    "query_elements": 3,
    "num_queries": 16,
    "device_read_latency_s": 0.0002,
    "clients": 4,
    "workers": 4,
    "warmup_seconds": 0.25,
    "duration_seconds": 1.5,
}

# Gate floors/ceilings per mode. Each QPS floor is half the median of ten
# recorded runs on the development machine (full 1083, smoke 841 qps;
# the runs are listed in docs/PERFORMANCE.md), so CI noise cannot flake
# the run while a real serving regression — a serialized server, a
# per-request reconnect, a dense snapshot back on the query path — still
# fails it.
FULL_THRESHOLDS = {"serving_min_qps": 540.0, "serving_max_p99_ms": 250.0}
SMOKE_THRESHOLDS = {"serving_min_qps": 420.0, "serving_max_p99_ms": 400.0}


def build_fixture(config):
    """A BSSF-indexed set database plus a deterministic query batch."""
    gen = SetWorkloadGenerator(
        WorkloadSpec(
            num_objects=config["num_objects"],
            domain_cardinality=config["domain_cardinality"],
            target_cardinality=config["target_cardinality"],
            seed=config["target_seed"],
        )
    )
    db = Database(page_size=config["page_size"], pool_capacity=0)
    db.define_class(ClassSchema.build("Item", items="set"))
    db.create_bssf_index(
        "Item",
        "items",
        signature_bits=config["signature_bits"],
        bits_per_element=config["bits_per_element"],
        seed=config["target_seed"],
    )
    for elements in gen.target_sets():
        db.insert("Item", {"items": set(elements)})
    qgen = SetWorkloadGenerator(
        WorkloadSpec(
            num_objects=0,
            domain_cardinality=config["domain_cardinality"],
            target_cardinality=config["target_cardinality"],
            seed=config["query_seed"],
        )
    )
    texts = [
        "select Item where items has-subset ({})".format(
            ", ".join(
                str(e)
                for e in sorted(qgen.random_query_set(config["query_elements"]))
            )
        )
        for _ in range(config["num_queries"])
    ]
    return db, texts


def percentile(samples, fraction):
    """Nearest-rank percentile of a sorted sample list."""
    if not samples:
        return 0.0
    rank = min(len(samples) - 1, max(0, int(round(fraction * (len(samples) - 1)))))
    return samples[rank]


def run_client(client, texts, stop_at, latencies, errors, offset):
    """One load-generator thread: round-robin the batch until the deadline."""
    index = offset
    while time.perf_counter() < stop_at:
        text = texts[index % len(texts)]
        index += 1
        t0 = time.perf_counter()
        try:
            client.execute(text)
        except Exception:
            errors.append(1)
            continue
        latencies.append(time.perf_counter() - t0)


def measure_inprocess(db, texts, duration_seconds):
    """Single-threaded QueryService baseline over the same queries."""
    count = 0
    with QueryService(db, max_workers=1) as service:
        stop_at = time.perf_counter() + duration_seconds
        started = time.perf_counter()
        index = 0
        while time.perf_counter() < stop_at:
            service.execute(texts[index % len(texts)])
            index += 1
            count += 1
        elapsed = time.perf_counter() - started
    return count / elapsed if elapsed > 0 else 0.0


def measure_serving(config):
    """Sustained remote QPS and latency percentiles over loopback TCP."""
    db, texts = build_fixture(config)
    db.storage.store.read_latency_seconds = config["device_read_latency_s"]
    try:
        inprocess_qps = measure_inprocess(
            db, texts, config["duration_seconds"] / 2
        )
        with TcpQueryServer(
            db,
            max_workers=config["workers"],
            queue_depth=4 * config["workers"],
        ) as server:
            clients = [
                RemoteClient(*server.address, pool_size=1)
                for _ in range(config["clients"])
            ]
            try:
                # Warmup: fill decode caches and dial every connection so
                # the measured window starts steady-state.
                warm_stop = time.perf_counter() + config["warmup_seconds"]
                for offset, client in enumerate(clients):
                    run_client(client, texts, warm_stop, [], [], offset)
                latencies: list = []
                errors: list = []
                stop_at = time.perf_counter() + config["duration_seconds"]
                started = time.perf_counter()
                threads = [
                    threading.Thread(
                        target=run_client,
                        args=(client, texts, stop_at, latencies, errors, i),
                        name=f"load-client-{i}",
                    )
                    for i, client in enumerate(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - started
            finally:
                for client in clients:
                    client.close()
    finally:
        db.storage.store.read_latency_seconds = 0.0
    ordered = sorted(latencies)
    qps = len(ordered) / elapsed if elapsed > 0 else 0.0
    return {
        "clients": float(config["clients"]),
        "workers": float(config["workers"]),
        "duration_s": elapsed,
        "requests": float(len(ordered)),
        "errors": float(len(errors)),
        "qps": qps,
        "inprocess_qps": inprocess_qps,
        "p50_ms": percentile(ordered, 0.50) * 1000,
        "p99_ms": percentile(ordered, 0.99) * 1000,
        "mean_ms": (statistics.fmean(ordered) * 1000) if ordered else 0.0,
    }


def merge_report(out_path, section, mode):
    """Write ``section`` under ``"serving"``, preserving other sections."""
    report = {}
    if out_path.exists():
        try:
            report = json.loads(out_path.read_text())
        except (OSError, ValueError):
            report = {}
    report.setdefault("mode", mode)
    report["serving"] = section
    report["pass"] = bool(report.get("pass", True)) and section["pass"]
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small fast configuration"
    )
    parser.add_argument(
        "--clients", type=int, default=None, help="concurrent load clients"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="server worker-pool width"
    )
    parser.add_argument(
        "--duration", type=float, default=None, help="measured seconds"
    )
    parser.add_argument(
        "--min-qps", type=float, default=None,
        help="override the sustained-QPS floor",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="override the p99 latency ceiling (milliseconds)",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the JSON report to stdout"
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_wallclock.json",
        help="report file to merge the serving section into",
    )
    args = parser.parse_args(argv)

    config = dict(SMOKE if args.smoke else FULL)
    thresholds = dict(SMOKE_THRESHOLDS if args.smoke else FULL_THRESHOLDS)
    if args.clients is not None:
        config["clients"] = args.clients
    if args.workers is not None:
        config["workers"] = args.workers
    if args.duration is not None:
        config["duration_seconds"] = args.duration
    if args.min_qps is not None:
        thresholds["serving_min_qps"] = args.min_qps
    if args.max_p99_ms is not None:
        thresholds["serving_max_p99_ms"] = args.max_p99_ms

    metrics = measure_serving(config)
    failures = []
    if metrics["qps"] < thresholds["serving_min_qps"]:
        failures.append(
            f"serving: {metrics['qps']:.1f} qps "
            f"< required {thresholds['serving_min_qps']:.1f}"
        )
    if metrics["p99_ms"] > thresholds["serving_max_p99_ms"]:
        failures.append(
            f"serving: p99 {metrics['p99_ms']:.1f} ms "
            f"> allowed {thresholds['serving_max_p99_ms']:.1f} ms"
        )
    if metrics["errors"]:
        failures.append(f"serving: {int(metrics['errors'])} request error(s)")

    section = {
        **{k: round(v, 3) for k, v in metrics.items()},
        "thresholds": thresholds,
        "pass": not failures,
    }
    report = merge_report(args.out, section, "smoke" if args.smoke else "full")

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"serving: {int(metrics['requests'])} requests over "
            f"{metrics['duration_s']:.2f} s from {int(metrics['clients'])} "
            f"client(s) against {int(metrics['workers'])} worker(s)"
        )
        print(
            f"  {metrics['qps']:.1f} qps sustained "
            f"(in-process baseline {metrics['inprocess_qps']:.1f} qps); "
            f"p50 {metrics['p50_ms']:.2f} ms, p99 {metrics['p99_ms']:.2f} ms"
        )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
