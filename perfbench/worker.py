"""One benchmark rep in a fresh process: set up, time the operations, check.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans PATH]
    python3 perfbench/worker.py --warmup

Run from the repository root with ``src`` on PYTHONPATH (``run.py`` does
both).  Prints one JSON object on its last line.  Times are CPU time of
this process (``time.process_time``): on a shared virtual machine the wall
clock also counts the time the host runs other work instead of this
process, which varied a rep's timed section by a third.  ``setup_s`` is the
CPU time from the start of the process to the first timed operation, which
is the set-up a user of a fresh process pays; ``cpu_s`` and the latencies
cover the timed section.  For reference the result also carries wall-clock
readings: ``t_first``, the CLOCK_MONOTONIC reading just before the first
timed operation (the parent subtracts its own from just before it started
this process), and ``wall_s``, the timed section.  With ``--trace 1``
the timed section runs with every entry point in ``layers.py`` wrapped, and
the result carries the per-layer metrics instead of latencies.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    if args.warmup:
        import guttstar.experiments  # noqa: F401  (compiles and imports every module)
        import guttstar.cli  # noqa: F401

        print(json.dumps({"ok": True}))
        return 0

    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed, reference)
    ops = workload.ops

    tracer = patcher = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        patcher = layers.install(tracer)
        # the operations were bound before wrapping: look each one up again
        for op in ops:
            op.fn = getattr(sys.modules[op.fn.__module__], op.fn.__name__, op.fn)

    results = []
    latencies = []
    cpu = time.process_time
    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    setup_s = cpu()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = cpu()
        try:
            result = op.fn(*op.args, **op.kwargs)
        except Exception as exc:  # a failed operation, counted by the check
            result = exc
        latencies.append(cpu() - t0)
        results.append(result)
    cpu_s = cpu() - setup_s
    wall_s = time.perf_counter() - start

    out = {"t_first": t_first, "wall_s": wall_s, "setup_s": setup_s, "cpu_s": cpu_s}
    if tracer is not None:
        patcher.restore()
        metrics, absent = layers.layer_metrics(tracer, wall_s, patcher.missing)
        out.update(layers={k: v for k, (v, _) in metrics.items()},
                   units={k: u for k, (_, u) in metrics.items()},
                   absent=absent, missing=patcher.missing)
        if args.spans:
            tracer.dump(args.spans)
    else:
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    correct = True
    weights = []
    for op, result in zip(ops, results):
        a, f, ok = workload.check(op, result)
        attempted += a
        failed += f
        correct = correct and ok
        weights.append(a)
    if tracer is None:
        # one call can yield many checked operations (an experiment's sample
        # rows): each of them is given the call's latency divided among them
        out["latencies_ms"] = [t * 1e3 / w for t, w in zip(latencies, weights)]
        out["weights"] = weights
    out.update(attempted=attempted, failed=failed, correct=correct, ops=len(ops),
               known_failing=workload.known_failing)
    errors = [f"{type(r).__name__}: {r}" for r in results if isinstance(r, Exception)]
    out["errors"] = errors[:5]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
