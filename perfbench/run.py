"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each rep is a fresh single-threaded Python
process (``worker.py``) importing the package from ``src``, with cold memo
tables; reps run one after another, and another one starts only while it is
expected to end within ``--seconds``.  All reps of a run use the inputs of
the same seed.

``--trace 0`` prints the end-to-end metrics, each the median over the reps
of that rep's value; the latency percentiles are taken over the operations,
each timed at its median over the reps.  They are CPU times of the worker
process (see ``worker.py``); the wall-clock medians are printed as a note.
``--trace 1``
alternates untraced and traced reps and prints the per-layer metrics
(medians over the traced reps) with the tracing overhead.  The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile, samples_beyond
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 170  # a run, set-up included, ends within this

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class RepFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(worker_args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t_spawn = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"worker {' '.join(worker_args)} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"worker {' '.join(worker_args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RepFailed(f"worker {' '.join(worker_args)} printed no result") from exc
    out["elapsed_s"] = monotonic() - t_spawn
    if "t_first" in out:
        out["setup_wall_s"] = out["t_first"] - t_spawn
    return out


def end_to_end(reps: list[dict]) -> tuple[dict, list[str]]:
    # every rep times the same operations in the same order: each one's
    # latency is its median over the reps, so a pause that hits an
    # operation in one rep does not move the percentiles
    weights = reps[0]["weights"]
    if any(r["weights"] != weights for r in reps):
        raise RepFailed("reps checked different operations")
    latencies = [statistics.median(op) for op in zip(*(r["latencies_ms"] for r in reps))]

    def latency(q):
        return percentile(latencies, q, weights)

    samples = sum(weights)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "ops_per_s": statistics.median(r["attempted"] / r["cpu_s"] for r in reps),
        "op_p50_ms": latency(50),
        "op_p99_ms": latency(99),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in reps),
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes = [
        f"reps {len(reps)}, operations per rep {reps[0]['ops']}, checked results per rep {reps[0]['attempted']}",
        f"latency samples per rep {samples} from {len(weights)} calls, "
        f"samples beyond p99 per rep {samples_beyond(samples, 99)}",
        f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)",
        f"wall clock, median over reps: setup {statistics.median(r['setup_wall_s'] for r in reps):.6g} s, "
        f"timed section {statistics.median(r['wall_s'] for r in reps):.6g} s",
    ]
    known = sum(r["known_failing"] for r in reps)
    if known:
        notes.append(
            f"known failing rate {known / attempted:.6g} ratio ({known} of {attempted}: "
            "rows that fail their estimate as reference.json records, not counted in failed)"
        )
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    traced = [t for _, t in pairs]
    units = traced[0]["units"]
    values = {
        name: (statistics.median(t["layers"][name] for t in traced), unit)
        for name, unit in units.items()
    }
    plain_wall = statistics.median(u["wall_s"] for u, _ in pairs)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes = [f"traced reps {len(traced)}, untraced wall_s {plain_wall:.6g} s"]
    if traced[0]["absent"]:
        notes.append(f"absent metrics: {', '.join(traced[0]['absent'])}")
        notes.append(f"missing entry points: {', '.join(traced[0]['missing'])}")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = monotonic()
    if not (ROOT / "src" / "guttstar" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'guttstar'}", file=sys.stderr)
        return 2
    try:
        spawn(["--warmup"], timeout=LIMIT_S)
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        spans = ROOT / ".perfbench" / f"spans-{args.workload}"
        reps, pairs = [], []
        deadline = monotonic() + args.seconds
        longest = 0.0
        while True:
            t0 = monotonic()
            left = LIMIT_S - (t0 - started)
            if args.trace:
                plain = spawn(base + ["--trace", "0"], timeout=left)
                traced = spawn(base + ["--trace", "1", "--spans", str(spans)], timeout=left)
                pairs.append((plain, traced))
                reps += [plain, traced]
            else:
                reps.append(spawn(base + ["--trace", "0"], timeout=left))
            longest = max(longest, monotonic() - t0)
            if monotonic() + longest > min(deadline, started + LIMIT_S):
                break
        metrics, notes = per_layer(pairs) if args.trace else end_to_end(reps)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:32s} {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload}  {note}")
    for rep in reps:
        for error in rep["errors"]:
            print(f"{args.workload}  error: {error}")
    result = {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
