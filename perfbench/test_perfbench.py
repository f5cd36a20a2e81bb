"""Tests of the benchmark's oracles, generators, tracing and exit contract.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import filecmp
import json
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads


def brute_hilbert(n, k, d):
    return sum(1 for a in product(range(k - 1), repeat=n) if sum(a) <= d)


def test_hilbert_count_matches_baseline_ranks():
    assert oracles.hilbert_count(2, 5, 5) == 15
    assert oracles.hilbert_count(4, 6, 6) == 190
    assert oracles.hilbert_count(5, 5, 5) == 222


@pytest.mark.parametrize("n,k,d", [(1, 4, 2), (2, 3, 0), (2, 7, 4), (3, 5, 9), (4, 4, 3)])
def test_hilbert_count_matches_enumeration(n, k, d):
    assert oracles.hilbert_count(n, k, d) == brute_hilbert(n, k, d)


def test_verdict_tables_are_the_acceptance_criteria():
    assert oracles.CI_VANISHING == {
        (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2),
    }
    # Bott: only h^n of the last Koszul term, O(k - n(k-1)), can obstruct,
    # and it is nonzero exactly when k(n-1) >= 2n+1
    assert oracles.CI_VANISHING == {
        (n, k) for n, k in product(*oracles.CI_RANGE) if k * (n - 1) < 2 * n + 1
    }
    assert oracles.EN_VANISHING_H == {1, 2}


@pytest.mark.parametrize("m,delta,s", [(2, 1, 1), (6, 4, 2), (10, 6, 5), (16, 12, 8), (16, 9, 1)])
def test_stalk_generator_builds_the_stated_span(m, delta, s):
    doc = workloads.stalk_instance(random.Random(f"{m}/{delta}/{s}"), m, delta, s)
    pairing = [[Fraction(x) for x in row] for row in doc["pairing"]]
    cycles = [[Fraction(x) for x in c] for c in doc["cycles"]]
    assert doc["dim"] == m and len(cycles) == delta
    assert all(pairing[i][j] == -pairing[j][i] for i in range(m) for j in range(m))
    assert oracles.rank(pairing) == m
    assert all(any(c) for c in cycles)
    for a, b in combinations(cycles, 2):
        assert sum(x * pairing[i][j] * b[j] for i, x in enumerate(a) for j in range(m)) == 0
    assert oracles.rank(cycles) == s


def test_grid_generator_writes_a_product_grid(tmp_path):
    request = workloads.grid_request(random.Random(3), str(tmp_path), "g.json", 3, 5, 4)
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert doc["ambient_dim"] == 3
    rows = [tuple(Fraction(x) for x in p) for p in doc["points"]]
    assert len(set(rows)) == len(rows) == 4 ** 3
    assert all(row[-1] == 1 for row in rows)
    for axis in range(3):
        values = {row[axis] for row in rows}
        assert len(values) == 4
        assert sorted(abs(v.denominator) for v in values) == [1, 1, 2, 3]
        assert all(5 <= abs(v.numerator) <= 9 for v in values)
    assert request.argv[-3:] == ("--degree", "4", "--json")


def test_grid_axis_holds_up_to_nine_distinct_values():
    rng = random.Random(4)
    assert len(set(workloads.grid_axis(rng, 9))) == 9
    with pytest.raises(ValueError):
        workloads.grid_axis(rng, 10)


def _write_round(name, seed, directory):
    workload = workloads.WORKLOADS[name]
    directory.mkdir()
    workload.make_warmup(random.Random(f"{seed}/warmup"), str(directory))
    requests = workload.make_round(random.Random(seed), str(directory), 0)
    return [tuple(arg.replace(str(directory), "") for arg in r.argv) for r in requests]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_inputs(name, tmp_path):
    first = _write_round(name, 11, tmp_path / "a")
    second = _write_round(name, 11, tmp_path / "b")
    assert first == second
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert mismatch == [] and errors == [] and len(match) == len(files)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_writes_different_inputs(name, tmp_path):
    _write_round(name, 11, tmp_path / "a")
    _write_round(name, 12, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert mismatch


def test_oracle_rejects_a_wrong_report():
    expected = oracles.grid_points_report(2, 5, 5)
    wrong = json.loads(json.dumps(expected))
    wrong["conditions"]["rank"] += 1
    request = workloads.Request("points", (), workloads._equals(expected))
    assert request.check(expected) is None
    assert request.check(wrong)
    assert oracles.check_ci_verdict({"vanishes": True, "exact_h1": 0}, 2, 5)
    assert oracles.check_ci_verdict({"vanishes": False, "exact_h1": 1}, 2, 5) is None
    assert oracles.check_en_report({"node_count": 10, "verdict": {"vanishes": True}}, 3, 2) is None
    assert oracles.check_en_report({"node_count": 20, "verdict": {"vanishes": True}}, 3, 3)
    assert oracles.check_en_report({"node_count": 21, "verdict": {"vanishes": False}}, 3, 3)


def test_tail_needs_ten_samples_beyond_its_percentile():
    assert run.tail(list(range(40)), 75) == 29
    assert run.tail(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        run.tail(list(range(39)), 75)
    for workload in workloads.WORKLOADS.values():
        n = workload.min_requests
        run.tail(list(range(n)), workload.tail_percentile)
        with pytest.raises(ValueError):
            run.tail(list(range(n - 1)), workload.tail_percentile)


def _nodalic():
    sys.path.insert(0, str(run.SRC))
    import nodalic

    return nodalic


def test_small_mixed_round_passes_its_oracles(tmp_path):
    failures = run.Failures()
    requests = workloads.SMALL_MIXED.make_round(random.Random(5), str(tmp_path), 0)
    assert {r.kind for r in requests} == {"points", "ic-stalk", "koszul", "eagon-northcott", "chase"}
    run.run_checked(_nodalic().cli, requests, failures)
    assert failures.count == 0


def test_traced_pass_matches_untraced_and_restores_functions(tmp_path):
    nodalic = _nodalic()
    originals = dict(vars(nodalic.monodromy))
    workload = workloads.WORKLOADS["small-mixed"]
    failures = run.Failures()
    trace_path = tmp_path / "trace.jsonl"
    metrics, attempted, detail = run.measure_traced(
        nodalic, workload, random.Random(2), str(tmp_path), 1, failures, trace_path
    )
    assert failures.count == 0
    assert attempted == 2 * detail["requests"]
    assert detail["absent_spans"] == []
    assert metrics["monodromy.validate.per_report"][0] == 2
    assert metrics["linalg.kernel.calls"][0] > 0
    assert all(vars(nodalic.monodromy)[k] is v for k, v in originals.items())
    spans = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    roots = [s for s in spans if s["parent"] is None and s["name"] == "cli.run"]
    assert len(roots) == detail["requests"]
    assert all(set(s) == {"name", "start", "end", "parent", "request"} for s in spans)


def test_missing_functions_mark_spans_absent():
    def double(x):
        return 2 * x

    package = types.SimpleNamespace(cli=types.SimpleNamespace(run=double))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, package) as absent:
        assert package.cli.run(4) == 8
    assert package.cli.run is double
    assert "cli.run" not in absent and "linalg.kernel" in absent
    assert [s[0] for s in tracer.spans] == ["cli.run"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.run", 0.0, 10.0, None, 0],
        ["linalg.check", 1.0, 3.0, 0, 0],
        ["linalg.kernel", 4.0, 8.0, 0, 0],
        ["linalg.to_int", 5.0, 6.0, 2, 0],
    ]
    totals = tracer.self_times()
    assert totals == {"cli.run": 4.0, "linalg.check": 2.0, "linalg.kernel": 3.0, "linalg.to_int": 1.0}


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 2
    assert done.stdout == ""
