"""Command-line interface: regenerate any paper table or figure.

Usage::

    sigfile-repro list
    sigfile-repro run figure4 [figure5 ...]
    sigfile-repro run all
    sigfile-repro trace 'select Student where hobbies contains "Chess"'
    sigfile-repro serve --port 7731 --load campus.sigdb
    python -m repro run table6

Output is the plain-text rendering of the experiment (the same rows/series
the paper reports).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.result import render_result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigfile-repro",
        description=(
            "Reproduce 'Evaluation of Signature Files as Set Access "
            "Facilities in OODBs' (SIGMOD 1993)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiment ids")
    run = subparsers.add_parser("run", help="run experiments by id")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (or 'all' / 'analytical')",
    )
    run.add_argument(
        "--format",
        choices=("text", "csv"),
        default="text",
        help="output format (csv suits external plotting)",
    )
    report = subparsers.add_parser(
        "report", help="run every experiment and write a single report file"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="report path (default REPORT.md)"
    )
    report.add_argument(
        "--analytical-only",
        action="store_true",
        help="skip the simulator-based experiments (faster)",
    )
    shell = subparsers.add_parser("shell", help="interactive database shell")
    shell.add_argument(
        "--load", metavar="SNAPSHOT", default=None,
        help="start from a saved database snapshot",
    )
    serve = subparsers.add_parser(
        "serve",
        help="serve a database over TCP (the repro.wire protocol)",
        description=(
            "Start a TcpQueryServer answering remote queries over the "
            "length-prefixed repro.wire protocol. Serves a snapshot "
            "(--load) or, by default, the bundled university sample "
            "database (the same one `trace` uses). Connect with "
            "repro.connect('sigfile://host:port') or the shell's "
            "\\connect."
        ),
    )
    serve.add_argument(
        "--load", metavar="SNAPSHOT", default=None,
        help="serve a saved database snapshot instead of the sample",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port (default 7731; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="QueryService worker-pool width (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="admitted-but-waiting backlog (default 2x workers)",
    )
    serve.add_argument(
        "--auth", action="append", default=[], metavar="TOKEN[:TENANT]",
        help=(
            "require client tokens; repeatable. TOKEN alone maps to a "
            "tenant of the same name"
        ),
    )
    serve.add_argument(
        "--quota", action="append", default=[], metavar="TENANT=N",
        help="cap a tenant at N in-flight queries; repeatable",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="per-connection idle read timeout in seconds (default 30)",
    )
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help=(
            "serve a WAL-mode primary out of DIR (recovers existing state "
            "or starts fresh); replicas can subscribe to it"
        ),
    )
    serve.add_argument(
        "--replica-of", default=None, metavar="URL",
        help=(
            "serve a read-only replica that tails the primary at URL "
            "(sigfile://host:port); requires --wal-dir for the replica's "
            "own log"
        ),
    )
    serve.add_argument(
        "--replica-name", default=None, metavar="NAME",
        help="name this replica reports to the primary (default: from DIR)",
    )
    serve.add_argument(
        "--token", default=None,
        help="auth token --replica-of presents to the primary",
    )
    serve.add_argument(
        "--shard-of", default=None, metavar="K/N",
        help=(
            "announce this server as shard K of an N-way hash "
            "partitioning (0-based); clients discover it via PONG"
        ),
    )
    route = subparsers.add_parser(
        "route",
        help="serve a scatter-gather router over a shard map",
        description=(
            "Start a TcpQueryServer whose backend is a ShardRouter: every "
            "query fans out to the shard servers, answers merge in OID "
            "order, and the partial-result policy decides what a lost "
            "shard does. SHARDS is ';'-separated, one segment per shard; "
            "a segment may be a comma-separated replicated fleet, e.g. "
            "'s0a:7731,s0b:7731;s1:7731'."
        ),
    )
    route.add_argument(
        "shards", metavar="SHARDS",
        help="shard map: ';' between shards, ',' between a shard's replicas",
    )
    route.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    route.add_argument(
        "--port", type=int, default=None,
        help="bind port (default 7731; 0 picks a free port)",
    )
    route.add_argument(
        "--partial-results", choices=("strict", "degraded"), default="strict",
        help=(
            "lost-shard policy: strict raises shard-unavailable, degraded "
            "returns partial answers flagged as such (default strict)"
        ),
    )
    route.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline budget in milliseconds",
    )
    route.add_argument(
        "--token", default=None,
        help="auth token presented to every shard server",
    )
    traced = subparsers.add_parser(
        "trace",
        help="run one query with tracing on and print the span tree",
        description=(
            "Execute a query with span tracing enabled and print an "
            "EXPLAIN ANALYZE-style report attributing every page access. "
            "Runs against a snapshot (--load) or, by default, the bundled "
            "university sample database."
        ),
    )
    traced.add_argument("query", help="query text (the SQL-like language)")
    traced.add_argument(
        "--load", metavar="SNAPSHOT", default=None,
        help="run against a saved database snapshot instead of the sample",
    )
    traced.add_argument(
        "--json",
        action="store_true",
        help="emit the span tree and metrics snapshot as JSON",
    )
    fsck = subparsers.add_parser(
        "fsck",
        help="check a snapshot for corruption; optionally repair it",
        description=(
            "Load a snapshot (without failing on checksum mismatches), "
            "sweep every page against its recorded CRC32, structurally "
            "verify every access facility, and report. With --repair, "
            "rebuild facilities implicated by the issues from the object "
            "file and re-save the snapshot atomically. Exit status: 0 "
            "clean, 1 issues found (0 after a successful repair)."
        ),
    )
    fsck.add_argument(
        "snapshot", nargs="?", default=None, help="snapshot file to check"
    )
    fsck.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help=(
            "check a WAL-mode database directory instead of a snapshot "
            "(recovers checkpoint + log tail, then checks; --repair "
            "checkpoints after rebuilding)"
        ),
    )
    fsck.add_argument(
        "--deep",
        action="store_true",
        help="also cross-validate facilities against the object store",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="rebuild implicated facilities and re-save the snapshot",
    )
    wal = subparsers.add_parser(
        "wal",
        help="inspect or repair a write-ahead log",
        description=(
            "Operate on a WAL directory's log file without opening the "
            "database. 'inspect' lists records and tail health; 'truncate' "
            "cuts the log at a record boundary — the repair for interior "
            "corruption (work at and past the cut is lost)."
        ),
    )
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_inspect = wal_sub.add_parser("inspect", help="list log records and health")
    wal_inspect.add_argument("wal_dir", help="WAL directory (holds wal.log)")
    wal_inspect.add_argument(
        "--json", action="store_true", help="emit records as JSON"
    )
    wal_truncate = wal_sub.add_parser(
        "truncate", help="drop every record at or past an LSN"
    )
    wal_truncate.add_argument("wal_dir", help="WAL directory (holds wal.log)")
    wal_truncate.add_argument(
        "--lsn", type=int, required=True,
        help="record boundary to cut at (from 'wal inspect' or fsck)",
    )
    return parser


def _expand(requested: List[str]) -> List[str]:
    if requested == ["all"]:
        return experiment_ids()
    if requested == ["analytical"]:
        return [eid for eid in experiment_ids() if not eid.startswith("empirical")]
    return requested


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "shell":
        from repro.persistence.snapshot import load_database
        from repro.shell.repl import interactive_loop

        database = load_database(args.load) if args.load else None
        return interactive_loop(database)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "route":
        return _run_route(args)
    if args.command == "trace":
        return _run_trace(args.query, snapshot=args.load, as_json=args.json)
    if args.command == "fsck":
        return _run_fsck(
            args.snapshot,
            deep=args.deep,
            repair=args.repair,
            wal_dir=args.wal_dir,
        )
    if args.command == "wal":
        if args.wal_command == "inspect":
            return _run_wal_inspect(args.wal_dir, as_json=args.json)
        return _run_wal_truncate(args.wal_dir, lsn=args.lsn)
    if args.command == "report":
        return _write_report(args.output, analytical_only=args.analytical_only)
    failures = 0
    for experiment_id in _expand(args.experiments):
        try:
            result = run_experiment(experiment_id)
        except Exception as exc:  # surface per-experiment failures, keep going
            print(f"!! {experiment_id} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(render_result(result, fmt=args.format))
        print()
    return 1 if failures else 0


def _sample_database():
    """The bundled university sample, indexed the way ``trace`` indexes it."""
    from repro.workloads.university import build_university

    uni = build_university()
    database = uni.database
    database.create_bssf_index(
        "Student", "hobbies", signature_bits=128, bits_per_element=2
    )
    database.create_nested_index("Student", "courses")
    return database


def _run_serve(args) -> int:
    """Serve a database over TCP until interrupted."""
    from repro.errors import ReproError
    from repro.server.net import TcpQueryServer
    from repro.wire import DEFAULT_PORT

    replica = None
    modes = sum(
        1 for flag in (args.load, args.wal_dir and not args.replica_of, args.replica_of)
        if flag
    )
    if modes > 1:
        print(
            "serve: --load, --wal-dir, and --replica-of are exclusive "
            "(--replica-of also needs --wal-dir)",
            file=sys.stderr,
        )
        return 2
    if args.replica_of:
        if not args.wal_dir:
            print("serve: --replica-of needs --wal-dir", file=sys.stderr)
            return 2
        from repro.replication import ReplicaDatabase

        try:
            replica = ReplicaDatabase(
                args.replica_of,
                args.wal_dir,
                name=args.replica_name,
                token=args.token,
            )
        except ReproError as exc:
            print(f"serve: cannot start replica: {exc}", file=sys.stderr)
            return 1
        database = replica.database
        source = f"replica of {args.replica_of} (wal in {args.wal_dir})"
    elif args.wal_dir:
        from repro.objects.database import Database

        try:
            database = Database.open(args.wal_dir)
        except ReproError as exc:
            print(f"serve: cannot recover {args.wal_dir!r}: {exc}", file=sys.stderr)
            return 1
        source = f"wal-mode primary in {args.wal_dir}"
    elif args.load:
        from repro.persistence.snapshot import load_database

        database = load_database(args.load)
        source = args.load
    else:
        database = _sample_database()
        source = "university sample"
    auth_tokens = {}
    for spec in args.auth:
        token, _, tenant = spec.partition(":")
        if not token:
            print(f"serve: bad --auth {spec!r}", file=sys.stderr)
            return 2
        auth_tokens[token] = tenant or token
    tenant_quotas = {}
    for spec in args.quota:
        tenant, sep, limit = spec.partition("=")
        if not sep or not tenant or not limit.lstrip("-").isdigit():
            print(f"serve: bad --quota {spec!r} (want TENANT=N)", file=sys.stderr)
            return 2
        tenant_quotas[tenant] = int(limit)
    shard_info = None
    if args.shard_of:
        index_text, sep, count_text = args.shard_of.partition("/")
        if (
            not sep
            or not index_text.isdigit()
            or not count_text.isdigit()
            or int(count_text) < 1
            or not int(index_text) < int(count_text)
        ):
            print(
                f"serve: bad --shard-of {args.shard_of!r} "
                "(want K/N with 0 <= K < N)",
                file=sys.stderr,
            )
            return 2
        shard_info = {"index": int(index_text), "count": int(count_text)}
    try:
        server = TcpQueryServer(
            database,
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            max_workers=args.workers,
            queue_depth=args.queue_depth,
            auth_tokens=auth_tokens or None,
            tenant_quotas=tenant_quotas or None,
            read_timeout_seconds=args.read_timeout,
            shard_info=shard_info,
        )
        server.start()
    except (OSError, ReproError) as exc:
        print(f"serve: cannot start: {exc}", file=sys.stderr)
        return 1
    guarded = " (token auth on)" if auth_tokens else ""
    if shard_info is not None:
        source = (
            f"{source} as shard {shard_info['index']}/{shard_info['count']}"
        )
    print(f"serving {source} at {server.url}{guarded} — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nserve: draining ...", file=sys.stderr)
    finally:
        server.stop(drain=True)
        if replica is not None:
            replica.close()
    return 0


def _run_route(args) -> int:
    """Serve a scatter-gather shard router over TCP until interrupted."""
    from repro.errors import ReproError
    from repro.server.net import TcpQueryServer
    from repro.serving import connect
    from repro.wire import DEFAULT_PORT

    client_kwargs = {}
    if args.token:
        client_kwargs["token"] = args.token
    try:
        router = connect(
            args.shards,
            partial_results=args.partial_results,
            deadline_ms=args.deadline_ms,
            **client_kwargs,
        )
    except (OSError, ReproError, ValueError) as exc:
        print(f"route: cannot build router: {exc}", file=sys.stderr)
        return 1
    shard_count = getattr(router, "shard_count", None)
    if shard_count is None:
        print(
            f"route: {args.shards!r} names fewer than two shards; "
            "use 'serve' for a single server",
            file=sys.stderr,
        )
        router.close()
        return 2
    try:
        server = TcpQueryServer(
            service=router,
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
        )
        server.start()
    except (OSError, ReproError) as exc:
        print(f"route: cannot start: {exc}", file=sys.stderr)
        router.close()
        return 1
    print(
        f"routing over {shard_count} shard(s) "
        f"[{args.partial_results}] at {server.url} — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nroute: draining ...", file=sys.stderr)
    finally:
        server.stop(drain=True)
        router.close()
    return 0


def _run_trace(query: str, snapshot: Optional[str], as_json: bool) -> int:
    """Execute one query with tracing on and print the report."""
    import json

    from repro.obs.metrics import REGISTRY
    from repro.query.executor import QueryExecutor
    from repro.query.options import ExecutionOptions

    if snapshot:
        from repro.persistence.snapshot import load_database

        database = load_database(snapshot)
    else:
        database = _sample_database()
    executor = QueryExecutor(database)
    try:
        if as_json:
            result = executor.execute_text(query, ExecutionOptions(trace=True))
            payload = {
                "plan": result.statistics.plan,
                "rows": result.statistics.results,
                "candidates": result.statistics.candidates,
                "false_drops": result.statistics.false_drops,
                "logical_pages": result.statistics.page_accesses,
                "trace": result.trace.to_dict() if result.trace else None,
                "metrics": REGISTRY.snapshot(),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(executor.explain_analyze(query))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _repair(database, report, deep: bool) -> bool:
    """Rebuild every facility an fsck issue implicates, then re-check.

    Object-file damage is unrepairable (the object file is the source of
    truth), and ``wal`` issues are recovery's or ``wal truncate``'s to
    fix. Returns whether the re-check came back clean.
    """
    from repro.recovery import facility_of_file, run_fsck

    implicated = set()
    unrepairable = []
    for issue in report.issues:
        if issue.kind == "wal":
            continue
        owner = facility_of_file(issue.subject)
        if owner is not None:
            implicated.add(owner)
        elif issue.kind == "checksum":
            unrepairable.append(issue)
    for class_name, attribute, name in sorted(implicated):
        try:
            database.rebuild_facility(class_name, attribute, name)
            print(f"fsck: rebuilt {name} on {class_name}.{attribute}")
        except Exception as exc:
            print(
                f"fsck: rebuild of {name} on {class_name}.{attribute} "
                f"failed: {exc}",
                file=sys.stderr,
            )
            return False
    for issue in unrepairable:
        print(f"fsck: cannot repair {issue.render()}", file=sys.stderr)
    after = run_fsck(database, deep=deep)
    if not after.ok:
        print(after.render(), file=sys.stderr)
        return False
    return True


def _run_fsck(
    snapshot: Optional[str],
    deep: bool,
    repair: bool,
    wal_dir: Optional[str] = None,
) -> int:
    """Check (and optionally repair) a saved snapshot or WAL directory.

    A repaired snapshot is saved over itself; a repaired WAL directory is
    checkpointed.
    """
    from repro.errors import WalCorruptError
    from repro.persistence.snapshot import load_database, save_database
    from repro.recovery import run_fsck

    if (snapshot is None) == (wal_dir is None):
        print("fsck: pass either a snapshot or --wal-dir", file=sys.stderr)
        return 1
    if wal_dir is not None:
        from repro.objects.database import Database

        try:
            database = Database.open(wal_dir)
        except WalCorruptError as exc:
            print(
                f"fsck: wal in {wal_dir!r} is corrupt at lsn {exc.lsn}: {exc}\n"
                f"fsck: repair with `wal truncate {wal_dir} --lsn {exc.lsn}` "
                "(work at and past that lsn is lost), then re-run",
                file=sys.stderr,
            )
            return 1
        except Exception as exc:
            print(f"fsck: cannot recover {wal_dir!r}: {exc}", file=sys.stderr)
            return 1
        persist, saved = database.checkpoint, f"database checkpointed in {wal_dir}"
    else:
        try:
            # verify_checksums=False: fsck's job is to *report* corruption,
            # so a bad page must not abort the load.
            database = load_database(snapshot, verify_checksums=False)
        except Exception as exc:
            print(f"fsck: cannot load {snapshot!r}: {exc}", file=sys.stderr)
            return 1
        persist, saved = (
            lambda: save_database(database, snapshot),
            f"snapshot saved to {snapshot}",
        )
    try:
        report = run_fsck(database, deep=deep)
        print(report.render())
        if report.ok or not repair:
            return 0 if report.ok else 1
        if not _repair(database, report, deep):
            return 1
        persist()
        print(f"fsck: repaired {saved}")
        return 0
    finally:
        database.close()


def _run_wal_inspect(wal_dir: str, as_json: bool) -> int:
    """Print a WAL directory's log records and tail health."""
    import json
    import os

    from repro.errors import WalCorruptError, WalError
    from repro.wal.log import WAL_FILE_NAME, scan_wal

    path = os.path.join(wal_dir, WAL_FILE_NAME)
    try:
        scan = scan_wal(path)
    except WalCorruptError as exc:
        print(
            f"wal: {path} corrupt at lsn {exc.lsn}: {exc}\n"
            f"wal: repair with `wal truncate {wal_dir} --lsn {exc.lsn}`",
            file=sys.stderr,
        )
        return 1
    except (OSError, WalError) as exc:
        print(f"wal: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    if as_json:
        payload = {
            "path": path,
            "base_lsn": scan.base_lsn,
            "end_lsn": scan.end_lsn,
            "torn_bytes": scan.torn_bytes,
            "records": [
                {"lsn": r.lsn, "type": r.type, "fields": repr(r.fields[1:])}
                for r in scan.records
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"wal: {path}: {len(scan.records)} record(s), "
        f"lsn [{scan.base_lsn}, {scan.end_lsn}]"
    )
    for record in scan.records:
        print(f"  {record.lsn:>8}  {record.type:<16} {record.fields[1:]!r}")
    if scan.torn_bytes:
        print(
            f"wal: torn tail of {scan.torn_bytes} byte(s) after lsn "
            f"{scan.end_lsn} (recovery will truncate it)"
        )
    return 0


def _run_wal_truncate(wal_dir: str, lsn: int) -> int:
    """Cut a log at a record boundary (the interior-corruption repair)."""
    import os

    from repro.errors import ReproError
    from repro.wal.log import WAL_FILE_NAME
    from repro.wal.replay import truncate_log

    path = os.path.join(wal_dir, WAL_FILE_NAME)
    try:
        dropped, end_lsn = truncate_log(wal_dir, lsn)
    except (OSError, ReproError) as exc:
        print(f"wal: cannot truncate {path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"wal: dropped {dropped} record(s); {path} now ends at lsn {end_lsn}"
    )
    return 0


def _write_report(output_path: str, analytical_only: bool) -> int:
    """Run every registered experiment and write one markdown report."""
    ids = (
        [eid for eid in experiment_ids() if not eid.startswith("empirical")
         and eid != "false_drop_validation"]
        if analytical_only
        else experiment_ids()
    )
    sections = [
        "# Reproduction report",
        "",
        "Generated by `sigfile-repro report`: every registered experiment of",
        "the SIGMOD 1993 signature-file reproduction, rendered in full.",
        "",
    ]
    failures = 0
    for experiment_id in ids:
        print(f"running {experiment_id} ...", file=sys.stderr)
        try:
            result = run_experiment(experiment_id)
        except Exception as exc:
            sections.append(f"## {experiment_id}\n\nFAILED: {exc}\n")
            failures += 1
            continue
        sections.append(f"## {experiment_id}\n\n```\n{render_result(result)}\n```\n")
    with open(output_path, "w", encoding="utf-8") as stream:
        stream.write("\n".join(sections))
    print(f"report written to {output_path} ({len(ids)} experiments)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
