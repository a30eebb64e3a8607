"""Command-line front end.

Subcommands:
    mul         multiply two expressions with a chosen product construction
    verify      run a named invariant suite (assoc, hopf, appendix, bch,
                nilpotent, all)
    experiment  run a named estimate sweep and write CSV + summary reports
    bch         dump the word expansion of log(e^X e^Y) with exact
                coefficients, Thompson sums, and bidegree slices

Exit codes: 0 all pass, 1 verification/check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bch as bch_mod
from . import experiments as exp_mod
from .exprs import ExprError, format_element, parse_element
from .hopf import verify_hopf
from .liealg import LieAlgebra, heisenberg, load_algebra, nilpotency_index
from .pbw import star, star_pbw
from .sym import SymElement, random_element, sym_mul

VERIFY_SUITES = ("assoc", "hopf", "appendix", "bch", "nilpotent", "all")
# total degree limit of `mul` on the pbw and graded routes: at 30 a product of
# two monomials on a stock algebra ends in about a second (mixed sl2 monomials
# are the slowest)
MUL_MAX_DEGREE = 30
# limit on terms(x) * terms(y) of `mul` on the same routes, which run one
# monomial product per pair: on Heisenberg, (P+Q+E)^12 squared (8,281 pairs,
# degree 24) ends in about 2.5 s
MUL_MAX_TERM_PAIRS = 10_000


class UsageError(Exception):
    pass


def _load_algebra_arg(args) -> tuple[LieAlgebra, list[Fraction]]:
    if args.algebra:
        try:
            algebra, weights = load_algebra(args.algebra)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot load algebra file: {exc}") from exc
    else:
        algebra = heisenberg()
        weights = [Fraction(1)] * algebra.dim
    for override in args.weight or ():
        try:
            index_text, _, value_text = override.partition("=")
            index = int(index_text)
            value = Fraction(value_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --weight override {override!r}") from exc
        if not 0 <= index < algebra.dim or value <= 0:
            raise UsageError(f"bad --weight override {override!r}")
        weights[index] = value
    return algebra, weights


def _parse_fraction_list(text: Optional[str], what: str) -> Optional[list[Fraction]]:
    if text is None:
        return None
    try:
        return [Fraction(part) for part in text.split(",") if part]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc


def _parse_float_list(text: Optional[str], what: str) -> Optional[list[float]]:
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------


def cmd_mul(args) -> int:
    algebra, _ = _load_algebra_arg(args)
    try:
        x = parse_element(algebra, args.x)
        y = parse_element(algebra, args.y)
    except ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    z0 = None
    if args.z is not None:
        try:
            z0 = Fraction(args.z)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --z value {args.z!r}") from exc
    degree = x.max_degree + y.max_degree
    if args.check or args.method == "bch":
        route, top = "BCH", bch_mod.MAX_TRUNCATION
    else:
        route, top = args.method, MUL_MAX_DEGREE
    if degree > top:
        raise UsageError(f"the {route} route supports total degree up to {top}, got {degree}")
    pairs = len(x.items()) * len(y.items())
    if route != "BCH" and pairs > MUL_MAX_TERM_PAIRS:
        raise UsageError(
            f"the {route} route supports up to {MUL_MAX_TERM_PAIRS} pairs of terms, got {pairs}"
        )
    if args.check:
        results = {m: star(x, y, method=m) for m in ("pbw", "graded", "bch")}
        reference = results["pbw"]
        bad = [m for m, r in results.items() if r != reference]
        if bad:
            print("DEFECT: product constructions disagree:", file=sys.stderr)
            for m, r in results.items():
                print(f"  {m}: {format_element(r)}", file=sys.stderr)
            return 1
        result = reference
        print("methods agree: pbw = graded = bch")
    else:
        result = star(x, y, method=args.method)
    if z0 is not None:
        result = result.evaluate_z(z0)
    print(format_element(result))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_assoc(algebra: LieAlgebra, max_degree: int, seed: int):
    rng = random.Random(seed)
    unit = SymElement.unit(algebra)
    per_factor = max(1, max_degree // 3)
    triples = [
        tuple(random_element(algebra, rng, per_factor, terms=2) for _ in range(3))
        for _ in range(6)
    ]
    yield "unit law", all(
        star_pbw(unit, x) == x and star_pbw(x, unit) == x for x, _, _ in triples
    )
    yield "associativity", all(
        star_pbw(star_pbw(x, y), w) == star_pbw(x, star_pbw(y, w))
        for x, y, w in triples
    )
    yield "classical limit z=0", all(
        star_pbw(x, y).evaluate_z(0) == sym_mul(x, y).evaluate_z(0)
        for x, y, _ in triples
    )
    first_order_ok = True
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            xi = SymElement.basis(algebra, i)
            eta = SymElement.basis(algebra, j)
            commutator = star_pbw(xi, eta) - star_pbw(eta, xi)
            expected = SymElement.from_vector(algebra, _bracket_vec(algebra, i, j))
            if commutator.z_coefficient(1) != expected:
                first_order_ok = False
    yield "first order commutator", first_order_ok
    degree_ok = True
    for x, y, _ in triples:
        k, l = max(x.max_degree, 0), max(y.max_degree, 0)
        if star_pbw(x, y).z_degree > max(k + l - 1, 0):
            degree_ok = False
    yield "z-degree bound", degree_ok


def _bracket_vec(algebra: LieAlgebra, i: int, j: int):
    row = algebra.basis_bracket(i, j)
    return tuple(row.get(k, Fraction(0)) for k in range(algebra.dim))


def _suite_hopf(algebra: LieAlgebra, max_degree: int, seed: int):
    """Yields (law, ok), plus the report's witness under its first failing law."""
    report = verify_hopf(algebra, min(max_degree, 6), seed=seed)
    witness = report.witness
    for name, ok in report.checks:
        if ok or witness is None:
            yield name, ok
        else:
            yield name, ok, witness
            witness = None


def _suite_appendix(algebra: LieAlgebra, max_degree: int, seed: int):
    ok_kernel = all(
        bch_mod.kernel_K(k, s) == (1 if s == 0 else 0)
        for k in range(13)
        for s in range(k + 1)
    )
    yield "kernel identity K(k,s) = delta(s,0), k <= 12", ok_kernel
    ok_carlitz = all(
        bch_mod.carlitz_check(k, m) == 0 for k in range(13) for m in range(13)
    )
    yield "Carlitz residuals vanish, k,m <= 12", ok_carlitz


def _suite_bch(algebra: LieAlgebra, max_degree: int, seed: int):
    top = min(max_degree, 8)
    ok_dynkin = all(
        not bch_mod.dynkin_consistency_residual(n).terms for n in range(1, top + 1)
    )
    yield f"Dynkin consistency n <= {top}", ok_dynkin
    yield "Thompson sums <= 2 for n <= 10", all(
        bch_mod.thompson_sum(n) <= 2 for n in range(2, 11)
    )
    bern = bch_mod.bernoulli_star(30)
    recurrence_ok = True
    for n in range(31):
        total = sum(
            Fraction((-1) ** (n - j)) * bern[j] / (_fact(j) * _fact(n + 1 - j))
            for j in range(n + 1)
        )
        if total != (1 if n == 0 else 0):
            recurrence_ok = False
    yield "Bernoulli recurrence n <= 30", recurrence_ok
    yield "|B*_n| <= n! for n <= 30", all(
        abs(b) <= _fact(n) for n, b in enumerate(bern)
    )
    degree = min(max_degree, 4)
    law = f"BCH route equals star_pbw on mixed monomials to degree {degree}"
    for alpha, beta in exp_mod.monomial_pairs(algebra, degree):
        x = SymElement.monomial(algebra, alpha)
        y = SymElement.monomial(algebra, beta)
        if bch_mod.star_bch_elements(x, y) != star_pbw(x, y):
            yield law, False, f"{alpha}|{beta}"
            return
    yield law, True


def _fact(n: int) -> int:
    import math

    return math.factorial(n)


def _suite_nilpotent(algebra: LieAlgebra, max_degree: int, seed: int):
    index = nilpotency_index(algebra)
    if index is None:
        yield "algebra is not nilpotent", None  # nothing here applies: skip
        return
    yield "algebra is nilpotent", True
    from .liealg import basis_vector

    order = min(max_degree, 6)
    xi = basis_vector(algebra, 0)
    eta = basis_vector(algebra, min(1, algebra.dim - 1))
    residual = bch_mod.exp_product_check(algebra, xi, eta, Fraction(1), order)
    yield f"exp product identity to degree {order}", residual.is_zero
    one_param = bch_mod.one_parameter_check(
        algebra, xi, Fraction(1), Fraction(-1, 2), Fraction(1), order
    )
    yield "one-parameter group law", one_param.is_zero
    vanish_ok = True
    for alpha, beta in exp_mod.monomial_pairs(algebra, min(max_degree, 6)):
        k, l = sum(alpha), sum(beta)
        if k + l == 0:
            continue
        product = star_pbw(
            SymElement.monomial(algebra, alpha), SymElement.monomial(algebra, beta)
        )
        cutoff = (k + l) * (index - 1) / index
        for n in range(1, k + l):
            if n > cutoff and not product.z_coefficient(n).is_zero:
                vanish_ok = False
    yield "C_n vanishing above the nilpotent degree bound", vanish_ok


def cmd_verify(args) -> int:
    algebra, _ = _load_algebra_arg(args)
    suites = {
        "assoc": _suite_assoc,
        "hopf": _suite_hopf,
        "appendix": _suite_appendix,
        "bch": _suite_bch,
        "nilpotent": _suite_nilpotent,
    }
    if args.suite not in VERIFY_SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {VERIFY_SUITES}")
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"[{name}]")
        for law, ok, *witness in suites[name](algebra, args.max_degree, args.seed):
            print(f"  {'skip' if ok is None else 'pass' if ok else 'FAIL'}  {law}")
            for text in witness:
                print(f"        witness: {text}")
            all_ok = all_ok and ok is not False
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    if args.name not in exp_mod.EXPERIMENT_NAMES:
        raise UsageError(
            f"unknown experiment {args.name!r}; choose from {exp_mod.EXPERIMENT_NAMES}"
        )
    # reject inputs that would leave a grid empty or an option silently unused
    limits = (("--max-degree", args.max_degree), ("--kmax", args.kmax), ("--Nmax", args.nmax))
    for flag, value in limits:
        if value < 0:
            raise UsageError(f"{flag} must be nonnegative")
    if args.name == "heisenberg-growth" and args.kmax < 2:
        raise UsageError("heisenberg-growth needs --kmax >= 2 to test monotonicity")
    if args.name in ("heisenberg-growth", "weyl-estimate") and (args.algebra or args.weight):
        raise UsageError(
            f"{args.name} always runs on the Heisenberg algebra with unit weights; "
            "--algebra and --weight do not apply"
        )
    algebra, weights = _load_algebra_arg(args)
    R_list = _parse_float_list(args.R, "--R")
    z_list = _parse_fraction_list(args.z, "--z")
    try:
        reports = exp_mod.run_experiment(
            args.name,
            algebra=algebra,
            weights=weights,
            R_list=R_list,
            z_list=z_list,
            eps=args.eps,
            k_max=args.kmax,
            n_max=args.nmax,
            max_degree=args.max_degree,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = exp_mod.summary_text(reports)
    if args.format == "csv":
        csv_path = out_dir / f"{args.name}.csv"
        exp_mod.write_csv(reports, csv_path)
        print(f"wrote {csv_path}")
    (out_dir / f"{args.name}-summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# bch dump
# ---------------------------------------------------------------------------


def cmd_bch(args) -> int:
    if args.max_n < 1 or args.max_n > bch_mod.MAX_TRUNCATION:
        raise UsageError(f"--max-n must be within 1..{bch_mod.MAX_TRUNCATION}")
    series = bch_mod.log_expansion(args.max_n)
    for n in range(1, args.max_n + 1):
        layer = series.slice(n)
        words = [
            {"w": w, "g": str(c)} for w, c in sorted(layer.items())
        ]
        slices = []
        for a in range(n + 1):
            b = n - a
            block = sorted(series.bidegree_slice(a, b))
            block = [w for w in block if len(w) == n]
            if block:
                slices.append({"a": a, "b": b, "words": block})
        record = {
            "n": n,
            "words": words,
            "thompson_sum": str(bch_mod.thompson_sum(n)),
            "bidegree": slices,
        }
        print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algebra", help="algebra definition file (default: Heisenberg)")
    parser.add_argument("--max-degree", type=int, default=8, dest="max_degree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--weight",
        action="append",
        metavar="i=p/q",
        help="override a seminorm weight (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guttstar",
        description="Exact engine for the deformed symmetric-algebra product "
        "over structure-constant Lie algebras",
    )
    sub = parser.add_subparsers(dest="command")

    mul = sub.add_parser("mul", help="multiply two expressions")
    _add_common(mul)
    mul.add_argument("x")
    mul.add_argument("y")
    mul.add_argument("--z", help="evaluate the result at a rational z")
    mul.add_argument(
        "--method", choices=("pbw", "graded", "bch"), default="pbw"
    )
    mul.add_argument(
        "--check", action="store_true", help="cross-validate all three constructions"
    )
    mul.set_defaults(func=cmd_mul)

    verify = sub.add_parser("verify", help="run an invariant suite")
    _add_common(verify)
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.set_defaults(func=cmd_verify)

    experiment = sub.add_parser("experiment", help="run an estimate sweep")
    _add_common(experiment)
    experiment.add_argument("name", choices=exp_mod.EXPERIMENT_NAMES)
    experiment.add_argument("--R", help="comma-separated list of R exponents")
    experiment.add_argument("--z", help="comma-separated list of rational z values")
    experiment.add_argument("--eps", type=float, help="growth-table epsilon")
    experiment.add_argument("--kmax", type=int, default=10)
    experiment.add_argument("--Nmax", type=int, default=20, dest="nmax")
    experiment.add_argument("--out", default="reports")
    experiment.add_argument("--format", choices=("csv", "text"), default="csv")
    experiment.set_defaults(func=cmd_experiment)

    bch_dump = sub.add_parser("bch", help="dump the BCH word expansion")
    bch_dump.add_argument("--max-n", type=int, default=8, dest="max_n")
    bch_dump.set_defaults(func=cmd_bch)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
