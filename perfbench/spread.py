"""Run a workload on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9]

Spread is the distance between the first and third quartile of the values,
as a share of their median (``stats.spread``).  Runs go one after another.
The raw result lines are appended to ``.perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, last = (int(s) for s in args.seeds.split("-"))
    log = ROOT / ".perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, "result": json.loads(line)}) + "\n")
        results.append(json.loads(line))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        line = f"{name:28s} median {statistics.median(values):.6g}"
        if len(values) >= 2 and statistics.median(values):
            line += f"  spread {spread(values):.4f}"
        if bounds.get(name):
            line += f"  bound {bounds[name]}"
        print(line)
    print(f"correct {all(r['correct'] for r in results)}, "
          f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
