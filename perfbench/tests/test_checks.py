import math
from types import SimpleNamespace

import pytest

from guttstar.liealg import heisenberg
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement

import run
from workloads import EstimateGrids, Op, Workload, digest


def _product_ops(n):
    L = heisenberg()
    P, Q = SymElement.basis(L, 0), SymElement.basis(L, 1)
    good = star_pbw(P, Q)
    return [Op(star_pbw, (P, Q), digest(good)) for _ in range(n)], good, P


def _totals(workload, ops, results):
    checks = [workload.check(op, r) for op, r in zip(ops, results)]
    return sum(c[0] for c in checks), sum(c[1] for c in checks), all(c[2] for c in checks)


def test_one_wrong_output_is_one_failure():
    ops, good, P = _product_ops(4)
    results = [good, good, good, good + P]
    assert _totals(Workload(), ops, results) == (4, 1, False)
    assert _totals(Workload(), ops, [good] * 4) == (4, 0, True)


def test_exception_and_missing_reference_count_as_failures():
    ops, good, _ = _product_ops(3)
    ops[2].expect = None
    results = [good, ValueError("boom"), good]
    assert _totals(Workload(), ops, results) == (3, 2, False)


def test_error_rate_note_reports_one_injected_failure():
    reps = [
        {"latencies_ms": [1.0, 2.0], "weights": [1, 1], "setup_s": 0.5, "cpu_s": 1.0,
         "setup_wall_s": 0.6, "wall_s": 1.1, "attempted": 2, "failed": 0, "rss_kb": 1024,
         "ops": 2, "known_failing": 0},
        {"latencies_ms": [1.0, 3.0], "weights": [1, 1], "setup_s": 0.7, "cpu_s": 2.0,
         "setup_wall_s": 0.8, "wall_s": 2.1, "attempted": 2, "failed": 1, "rss_kb": 2048,
         "ops": 2, "known_failing": 0},
    ]
    metrics, notes = run.end_to_end(reps)
    assert "error_rate 0.25 ratio (1 failed of 4 attempted)" in notes
    assert "wall clock, median over reps: setup 0.7 s, timed section 1.6 s" in notes
    assert not any(note.startswith("known failing") for note in notes)
    assert metrics["setup_s"] == (0.6, "s")
    assert metrics["ops_per_s"] == (1.5, "1/s")
    assert metrics["op_p99_ms"] == (2.5, "ms")  # the slower op's median over reps: 2 and 3


def test_latency_is_each_operation_at_its_median_over_reps():
    def rep(latencies):
        return {"latencies_ms": latencies, "weights": [1] * len(latencies), "setup_s": 1.0,
                "cpu_s": 1.0, "setup_wall_s": 1.0, "wall_s": 1.0, "attempted": 4, "failed": 0,
                "rss_kb": 1024, "ops": 4, "known_failing": 1}

    # one pause per rep, each on another operation: no percentile sees it
    reps = [rep([1.0, 2.0, 3.0, 90.0]), rep([1.0, 2.0, 80.0, 4.0]), rep([70.0, 2.0, 3.0, 4.0])]
    metrics, notes = run.end_to_end(reps)
    assert metrics["op_p50_ms"] == (2.0, "ms")
    assert metrics["op_p99_ms"] == (4.0, "ms")
    assert "error_rate 0 ratio (0 failed of 12 attempted)" in notes
    assert any(note.startswith("known failing rate 0.25 ratio (3 of 12") for note in notes)
    reps[1]["weights"] = [1, 1, 1, 2]
    with pytest.raises(run.RepFailed):
        run.end_to_end(reps)


def _report(*rows):
    return SimpleNamespace(rows=[
        SimpleNamespace(params=f"p{j}", lhs=lhs, rhs=rhs, passed=lhs <= rhs)
        for j, (lhs, rhs) in enumerate(rows)
    ])


def test_estimate_rows_failing_nonfinite_or_missing():
    workload = EstimateGrids.__new__(EstimateGrids)
    op = Op(None, ("x",), {"rows": [2, 3], "failing": [[1, "p2"]]})
    ok = [_report((1, 2), (1, 2)), _report((1, 2), (1, 2), (3, 2))]
    # the known failing row is the expected output: not a failure
    assert workload.check(op, ok) == (5, 0, True)
    assert workload.known_failing == 1
    # the known row passing now is still correct
    fixed = [ok[0], _report((1, 2), (1, 2), (1, 2))]
    assert workload.check(op, fixed) == (5, 0, True)
    assert workload.known_failing == 1
    # any other row that does not pass is a changed result
    other = [_report((3, 2), (1, 2)), ok[1]]
    assert workload.check(op, other) == (5, 1, False)
    moved = [ok[0], _report((1, 2), (3, 2), (1, 2))]
    assert workload.check(op, moved) == (5, 1, False)
    nonfinite = [_report((math.inf, math.inf), (1, 2)), ok[1]]
    assert workload.check(op, nonfinite) == (5, 1, False)
    short = [ok[0], _report((1, 2))]
    assert workload.check(op, short) == (5, 2, False)
    missing_report = [ok[0]]
    assert workload.check(op, missing_report) == (5, 3, False)
    assert workload.check(op, RuntimeError("boom")) == (5, 5, False)
