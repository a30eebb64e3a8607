"""Regenerate ``reference.json``, the expected results every run is checked against.

    PYTHONPATH=src python3 perfbench/reference.py

Every digest comes from the ``star_pbw`` oracle and is written only after
the same product computed by ``star_graded`` agrees with it exactly; for
bch-route the route's own result (``star_bch`` or ``star_linear``) must
agree as well.  A run's seed changes inputs only by factors the check
divides out, so these digests cover every seed.  For estimate-grids the
reference is, for every experiment seed a run can use, the number of sample
rows in each report and the rows that do not pass (as ``[report index,
params]``); every row must be finite.  Regenerate only when the workloads'
inputs change: a library change that alters a result is exactly what the
check must catch.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from workloads import (
    BCH_ALGEBRAS,
    EXPERIMENT_SEEDS,
    experiment_kwargs,
    PBW_SIZES,
    algebras,
    bch_ops,
    digest,
    monomial_pairs,
)

PATH = Path(__file__).resolve().parent / "reference.json"


def _oracle(x, y):
    from guttstar.pbw import star_graded, star_pbw

    product = star_pbw(x, y)
    if star_graded(x, y) != product:
        raise AssertionError("star_pbw and star_graded disagree")
    return product


def pbw_cold() -> dict:
    from guttstar.sym import SymElement

    algs = algebras()
    out = {}
    for name, max_total in PBW_SIZES:
        L = algs[name]
        digests = [
            digest(_oracle(SymElement.monomial(L, a), SymElement.monomial(L, b)))
            for a, b in monomial_pairs(L.dim, max_total)
        ]
        out[name] = {"max_degree": max_total, "digests": "".join(digests)}
        print(f"pbw-cold {name}: {len(digests)} products", file=sys.stderr)
    return out


def bch_route() -> dict:
    from guttstar.bch import star_bch, star_linear
    from guttstar.sym import SymElement

    algs = algebras()
    out = {}
    for name in BCH_ALGEBRAS:
        L = algs[name]
        count = 0
        for key, kind, args in bch_ops(name, L):
            if kind == "bch":
                _, xi, k, eta, l = args
                x = SymElement.from_vector(L, xi) ** k
                y = SymElement.from_vector(L, eta) ** l
                route = star_bch(*args)
            else:
                _, alpha, eta = args
                x = SymElement.monomial(L, alpha)
                y = SymElement.from_vector(L, eta)
                route = star_linear(x, eta)
            product = _oracle(x, y)
            if route != product:
                raise AssertionError(f"{key}: the BCH route disagrees with star_pbw")
            out[key] = digest(product)
            count += 1
        print(f"bch-route {name}: {count} products", file=sys.stderr)
    return out


def estimate_grids() -> dict:
    from guttstar.experiments import EXPERIMENT_NAMES, run_experiment

    out = {}
    for seed in range(EXPERIMENT_SEEDS):
        rows = {}
        for name in EXPERIMENT_NAMES:
            reports = run_experiment(name, **experiment_kwargs(seed))
            failing = []
            for i, report in enumerate(reports):
                for row in report.rows:
                    if not (math.isfinite(row.lhs) and math.isfinite(row.rhs)):
                        raise AssertionError(f"{name} seed {seed}: row {row.params} is not finite")
                    if not row.passed:
                        failing.append([i, row.params])
            rows[name] = {"rows": [len(r.rows) for r in reports], "failing": failing}
        out[str(seed)] = rows
        total = sum(sum(r["rows"]) for r in rows.values())
        failing = sum(len(r["failing"]) for r in rows.values())
        print(f"estimate-grids seed {seed}: {total} rows, {failing} failing", file=sys.stderr)
    return out


BUILDERS = {"pbw-cold": pbw_cold, "bch-route": bch_route, "estimate-grids": estimate_grids}


def main() -> int:
    reference = {name: build() for name, build in BUILDERS.items()}
    PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
