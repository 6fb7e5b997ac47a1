"""Checks on the ledger benchmark itself, at ``--smoke`` sizes.

    python -m pytest benchmarks/ledger/tests

Not part of the tier-1 suite (``testpaths = ["tests"]``): it runs every
workload four times and takes about a minute.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
sys.path.insert(0, LEDGER)

import run  # noqa: E402  (first: it puts src/ on the path)
import compare  # noqa: E402
import drive  # noqa: E402
from oracle import HAS_SUBSET, Model  # noqa: E402
from workloads import ATTRIBUTE, WORKLOADS, make_query  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("pages_per_query", "pages_per_write", "space_amp")
SEED, OTHER_SEED = 1993, 2024


@pytest.fixture(scope="module")
def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, repeat: int = 0):
    """One smoke run, shared by the tests (``repeat`` forces a second run)."""
    return run.run_once(workload, seed, 1.0, trace, smoke=True)


def values(result) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_declaration_follows_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declaration["paths"] == ["benchmarks/ledger"]
    assert declaration["command"][-1] == "benchmarks/ledger/run.py"
    assert isinstance(declaration["run_seconds"], int)
    assert 1 <= declaration["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in declaration["workloads"]} == WORKLOADS
    names = [m["name"] for m in declaration["end_to_end"] + declaration["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declaration["end_to_end"])
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_printed_and_nothing_else(declaration, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, SEED, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in declaration[section]}
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == declared


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_end_to_end_metric_is_zero(workload):
    assert all(value > 0 for value in values(smoke(workload, SEED, 0)).values())


def layer_total(result, *layers) -> float:
    return sum(
        abs(value)
        for name, value in values(result).items()
        if name.split(".")[0] in layers
    )


def test_a_bypassed_layer_reads_exactly_zero():
    """The contract prints every per-layer metric; inapplicable ones are 0."""
    local = smoke("local_read", SEED, 1)
    assert layer_total(local, "wire", "server", "client", "sharding") == 0
    assert layer_total(smoke("remote_read", SEED, 1), "wire", "server", "client") > 0
    for workload in WORKLOADS:
        result = smoke(workload, SEED, 1)
        assert (layer_total(result, "sharding") > 0) == (workload == "routed_read")
        churns = workload.startswith("churn")
        assert (layer_total(result, "wal") > 0) == churns
        assert (layer_total(result, "lsm") > 0) == (workload == "churn_lsm")
        assert (layer_total(result, "recovery") > 0) == churns
    # NIX is indexed on local_read only.
    assert values(smoke("remote_read", SEED, 1))["access.nix.storage_pages"] == 0
    assert values(local)["access.nix.storage_pages"] > 0


def test_the_decode_cache_separates_read_from_churn():
    name = "storage.decode_cache_hit_ratio"
    local = values(smoke("local_read", SEED, 1))[name]
    assert local >= 0.95
    assert values(smoke("churn_wal", SEED, 1))[name] < local
    # A one-second smoke window writes too little to seal a new LSM run, and
    # an unchanged run is never decoded again; the full run is strictly lower.
    assert values(smoke("churn_lsm", SEED, 1))[name] <= local


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_metrics_repeat_for_a_seed_and_move_with_it(workload):
    first = values(smoke(workload, SEED, 0))
    again = values(smoke(workload, SEED, 0, repeat=1))
    for name in EXACT:
        assert first[name] == again[name], name
    if workload != "churn_lsm":
        # At smoke size every LSM write lands in the memtable and every query
        # reads the one bulk-loaded run, whatever the data is.
        other = values(smoke(workload, OTHER_SEED, 0))
        assert any(first[name] != other[name] for name in EXACT)


def test_access_page_lines_are_exact_on_the_read_workloads():
    def pages(result):
        return {
            name: value
            for name, value in values(result).items()
            if name.startswith("access.") and name.endswith("_pages")
        }

    moved = False
    for workload in ("local_read", "remote_read", "routed_read"):
        first = pages(smoke(workload, SEED, 1))
        assert first == pages(smoke(workload, SEED, 1, repeat=1))
        # The few queries of a smoke epoch can cost the same pages for two
        # seeds on one workload, not on all three.
        moved = moved or first != pages(smoke(workload, OTHER_SEED, 1))
    assert moved


def test_the_oracle_catches_a_wrong_answer():
    from repro.objects.oid import OID

    model = Model()
    model.insert(OID(1, 0).to_int(), {1, 2, 3})
    model.insert(OID(1, 1).to_int(), {2, 3, 4})
    query = make_query(HAS_SUBSET, frozenset({2, 3}))
    expected = model.expected(query.kind, query.elements)
    assert expected == [OID(1, 0).to_int(), OID(1, 1).to_int()]
    right = [(OID(1, 0), {ATTRIBUTE: {1, 2, 3}}), (OID(1, 1), {ATTRIBUTE: {2, 3, 4}})]
    wrong_answers = [
        right[:1],  # a missing row
        right + [(OID(1, 2), {ATTRIBUTE: {2, 3}})],  # an invented row
        [right[0], (OID(1, 1), {ATTRIBUTE: {2, 3, 9}})],  # a wrong value
    ]
    samples = drive.Samples()
    drive.check_answer(samples, query, right, expected, model)
    assert (samples.attempted, samples.failed) == (1, 0)
    for rows in wrong_answers:
        drive.check_answer(samples, query, rows, expected, model)
    assert (samples.attempted, samples.failed) == (4, 3)


def test_a_failed_run_exits_non_zero(monkeypatch, capsys):
    """A wrong answer anywhere makes the command's exit code non-zero."""
    real = drive.rows_match
    monkeypatch.setattr(drive, "rows_match", lambda rows, *rest: bool(rows) and real(rows, *rest))
    status = run.main(["--workload", "local_read", "--smoke", "--seed", "5"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert status == 1 and result["correct"] is False and result["failed"] > 0


def test_a_timing_is_reported_at_the_reference_speed():
    from speed import REFERENCE_SECONDS, Speed

    speed = Speed()
    # A core half as fast as the reference for one second, then as fast as it.
    speed.readings = [(t / 100, 2 * REFERENCE_SECONDS) for t in range(100)]
    speed.readings += [(1 + t / 100, REFERENCE_SECONDS) for t in range(100)]
    assert speed.slowdown(0.2, 0.4) == pytest.approx(2.0)
    assert speed.slowdown(1.5, 1.5) == pytest.approx(1.0)
    corrected = speed.at_reference([0.5, 1.5], [0.010, 0.010])
    assert corrected == pytest.approx([0.005, 0.010])
    # A call with no probe inside it is judged by the bursts around it.
    speed = Speed()
    _, seconds = speed.timed(lambda: None)
    assert seconds >= 0 and len(speed.readings) >= 2


def write_runs(path, workload, metric, numbers):
    with open(path, "w") as stream:
        for number in numbers:
            record = {
                "workload": workload, "correct": True,
                "metrics": {metric: {"value": number, "unit": "ms"}},
            }
            stream.write(json.dumps(record) + "\n")


def test_compare_tells_regressed_from_unresolved(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    write_runs(a, "local_read", "query_p50_ms", steady)  # bound is 10 %
    write_runs(b, "local_read", "query_p50_ms", [v * 1.3 for v in steady])
    assert compare.main([a, b]) == 1
    assert "regressed" in capsys.readouterr().out
    write_runs(b, "local_read", "query_p50_ms", [v * 1.02 for v in steady])
    assert compare.main([a, b]) == 0
    assert "unchanged" in capsys.readouterr().out
    write_runs(b, "local_read", "query_p50_ms", [8.0, 12.5, 10.0, 13.0, 7.5])
    assert compare.main([a, b]) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out and "unchanged" not in out.split("verdict")[1].split("\n")[1]
    write_runs(b, "local_read", "query_p50_ms", [5.0, 9.0, 6.0, 8.5, 5.5])
    assert compare.main([a, b]) == 0
    assert "improved" in capsys.readouterr().out
