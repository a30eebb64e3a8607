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
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bch as bch_mod
from . import experiments as exp_mod
from .exprs import DegreeError, ExprError, format_element, parse_element
from .hopf import verify_hopf
from .liealg import LieAlgebra, basis_vector, bracket, heisenberg, load_algebra, nilpotency_index
from .pbw import star, star_pbw
from .sym import SymElement, random_element, sym_mul

# total degree limit of `mul` on the pbw and graded routes: at 30 a product of
# two monomials on a stock algebra ends in about a second (mixed sl2 monomials
# are the slowest)
MUL_MAX_DEGREE = 30
# limit on terms(x) * terms(y) of `mul` on the same routes, which run one
# monomial product per pair: on Heisenberg, (P+Q+E)^12 squared (8,281 pairs,
# degree 24) ends in about 2.5 s
MUL_MAX_TERM_PAIRS = 10_000
# limit of `verify --max-degree` (a third of it is the assoc suite's factor
# degree): `verify all` on sl2 takes 1-3.2 s at 24, 5.5-21 s at 30 (seeds 0-4)
VERIFY_MAX_DEGREE = 24
# limit of `experiment heisenberg-growth --kmax`: each row multiplies P^k by
# Q^k, and at --R 0.5 --eps 0.125 --z 1 the command takes 0.6-1.3 s of CPU
# at 30, 2.4-3.8 s at 40 and 6-9 s at 50
GROWTH_MAX_KMAX = 40


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one `error:` line, as main prints a UsageError
        self.exit(2, f"error: {message}\n")


def _load_algebra_arg(path: Optional[str]) -> tuple[LieAlgebra, list[Fraction]]:
    """The algebra of --algebra and its weights; Heisenberg with unit weights
    without it."""
    if path is None:
        algebra = heisenberg()
        return algebra, [Fraction(1)] * algebra.dim
    try:
        return load_algebra(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load algebra file: {exc}") from exc


def _parse_list(text: Optional[str], what: str, kind: type) -> Optional[list]:
    """The comma-separated values of kind (Fraction or float) in text; an
    empty list and a float that is not finite are usage errors."""
    if text is None:
        return None
    try:
        values = [kind(part) for part in text.split(",") if part]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc
    if not values:
        raise UsageError(f"bad {what} list {text!r}: no values")
    if kind is float and not all(map(math.isfinite, values)):
        raise UsageError(f"bad {what} list {text!r}: values must be finite")
    return values


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------


def cmd_mul(args) -> int:
    algebra, _ = _load_algebra_arg(args.algebra)
    if args.check or args.method == "bch":
        route, top = "BCH", bch_mod.MAX_TRUNCATION
    else:
        route, top = args.method, MUL_MAX_DEGREE
    try:
        x = parse_element(algebra, args.x, max_degree=top)
        y = parse_element(algebra, args.y, max_degree=top)
    except DegreeError as exc:
        raise UsageError(f"the {route} route: {exc}") from exc
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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact coefficients may pass str()'s default limit
    try:
        print(format_element(result))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _law(law: str, witnesses) -> tuple:
    """The suite row of a law from the witnesses of its failing cases, read
    lazily: (law, True) when there are none, else (law, False, the first)."""
    witness = next(iter(witnesses), None)
    return (law, True) if witness is None else (law, False, witness)


def _suite_assoc(algebra: LieAlgebra, max_degree: int, seed: int):
    rng = random.Random(seed)
    unit = SymElement.unit(algebra)
    per_factor = max(1, max_degree // 3)
    triples = [
        tuple(random_element(algebra, rng, per_factor, terms=2) for _ in range(3))
        for _ in range(6)
    ]
    yield _law("unit law", (
        str(x) for x, _, _ in triples if not star_pbw(unit, x) == x == star_pbw(x, unit)
    ))
    yield _law("associativity", (
        f"{x} | {y} | {w}"
        for x, y, w in triples
        if star_pbw(star_pbw(x, y), w) != star_pbw(x, star_pbw(y, w))
    ))
    yield _law("classical limit z=0", (
        f"{x} | {y}"
        for x, y, _ in triples
        if star_pbw(x, y).evaluate_z(0) != sym_mul(x, y).evaluate_z(0)
    ))

    def first_order_fails(i: int, j: int) -> bool:
        xi, eta = SymElement.basis(algebra, i), SymElement.basis(algebra, j)
        commutator = star_pbw(xi, eta) - star_pbw(eta, xi)
        e_i, e_j = basis_vector(algebra, i), basis_vector(algebra, j)
        expected = SymElement.from_vector(algebra, bracket(algebra, e_i, e_j))
        return commutator.z_coefficient(1) != expected

    names = algebra.basis_names
    yield _law("first order commutator", (
        f"{names[i]}, {names[j]}"
        for i in range(algebra.dim)
        for j in range(algebra.dim)
        if first_order_fails(i, j)
    ))
    yield _law("z-degree bound", (
        f"{x} | {y}"
        for x, y, _ in triples
        if star_pbw(x, y).z_degree > max(max(x.max_degree, 0) + max(y.max_degree, 0) - 1, 0)
    ))


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
        not bch_mod.dynkin_consistency_residual(n) for n in range(1, top + 1)
    )
    yield f"Dynkin consistency n <= {top}", ok_dynkin
    yield "Thompson sums <= 2 for n <= 10", all(
        bch_mod.thompson_sum(n) <= 2 for n in range(2, 11)
    )
    bern = bch_mod.bernoulli_star(30)
    recurrence_ok = True
    for n in range(31):
        total = sum(
            Fraction((-1) ** (n - j)) * bern[j] / (math.factorial(j) * math.factorial(n + 1 - j))
            for j in range(n + 1)
        )
        if total != (1 if n == 0 else 0):
            recurrence_ok = False
    yield "Bernoulli recurrence n <= 30", recurrence_ok
    yield "|B*_n| <= n! for n <= 30", all(
        abs(b) <= math.factorial(n) for n, b in enumerate(bern)
    )
    degree = min(max_degree, 4)

    def disagree(alpha, beta) -> bool:
        x, y = SymElement.monomial(algebra, alpha), SymElement.monomial(algebra, beta)
        return bch_mod.star_bch_elements(x, y) != star_pbw(x, y)

    yield _law(f"BCH route equals star_pbw on mixed monomials to degree {degree}", (
        f"{alpha}|{beta}"
        for alpha, beta in exp_mod.monomial_pairs(algebra, degree)
        if disagree(alpha, beta)
    ))


def _suite_nilpotent(algebra: LieAlgebra, max_degree: int, seed: int):
    index = nilpotency_index(algebra)
    if index is None:
        yield "algebra is not nilpotent", None  # nothing here applies: skip
        return
    yield "algebra is nilpotent", True
    names = algebra.basis_names
    order = min(max_degree, 6)
    j = min(1, algebra.dim - 1)
    xi, eta = basis_vector(algebra, 0), basis_vector(algebra, j)
    residual = bch_mod.exp_product_check(algebra, xi, eta, Fraction(1), order)
    yield _law(f"exp product identity to degree {order}", (
        [f"xi = {names[0]}, eta = {names[j]}, z = 1"] if residual else []
    ))
    one_param = bch_mod.one_parameter_check(
        algebra, xi, Fraction(1), Fraction(-1, 2), Fraction(1), order
    )
    yield _law("one-parameter group law", (
        [f"xi = {names[0]}, t = 1, s = -1/2, z = 1"] if one_param else []
    ))

    def above_bound(alpha, beta) -> list[int]:
        """The n above the nilpotent degree bound with a nonzero C_n."""
        kl = sum(alpha) + sum(beta)
        product = star_pbw(SymElement.monomial(algebra, alpha), SymElement.monomial(algebra, beta))
        cutoff = kl * (index - 1) / index
        return [n for n in range(1, kl) if n > cutoff and product.z_coefficient(n)]

    yield _law("C_n vanishing above the nilpotent degree bound", (
        f"{alpha}|{beta},n={n}"
        for alpha, beta in exp_mod.monomial_pairs(algebra, order)
        for n in above_bound(alpha, beta)
    ))


SUITES = {
    "assoc": _suite_assoc,
    "hopf": _suite_hopf,
    "appendix": _suite_appendix,
    "bch": _suite_bch,
    "nilpotent": _suite_nilpotent,
}
VERIFY_SUITES = (*SUITES, "all")


def cmd_verify(args) -> int:
    algebra, _ = _load_algebra_arg(args.algebra)
    if args.max_degree < 1:
        raise UsageError("--max-degree must be >= 1")
    if args.max_degree > VERIFY_MAX_DEGREE:
        raise UsageError(f"--max-degree must be <= {VERIFY_MAX_DEGREE}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"[{name}]")
        for law, ok, *witness in SUITES[name](algebra, args.max_degree, args.seed):
            print(f"  {'skip' if ok is None else 'pass' if ok else 'FAIL'}  {law}")
            for text in witness:
                print(f"        witness: {text}")
            all_ok = all_ok and ok is not False
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


# each option of `experiment` and the run_experiment parameter it sets
EXPERIMENT_OPTIONS = {
    "--algebra": "algebra",
    "--weight": "weights",
    "--R": "R_list",
    "--z": "z_list",
    "--eps": "eps",
    "--kmax": "k_max",
    "--Nmax": "n_max",
    "--max-degree": "max_degree",
    "--seed": "seed",
}


def cmd_experiment(args) -> int:
    given = {f: v for f, d in EXPERIMENT_OPTIONS.items() if (v := getattr(args, d)) is not None}
    # refuse each option that exp_mod.EXPERIMENTS says the experiment never reads
    reads = exp_mod.EXPERIMENTS[args.name][0] | {"R_list"}
    # without --eps, heisenberg-growth runs its fixed grid of (R, eps, z)
    grid_only = {"R_list", "z_list"} if "eps" in reads and args.eps is None else set()
    unread = [flag for flag in given if EXPERIMENT_OPTIONS[flag] not in reads - grid_only]
    if "--algebra" in unread or "--weight" in unread:
        raise UsageError(
            f"{args.name} always runs on the Heisenberg algebra with unit weights; "
            "--algebra and --weight do not apply"
        )
    if unread:
        without = " without --eps" if grid_only & {EXPERIMENT_OPTIONS[f] for f in unread} else ""
        raise UsageError(f"{args.name}{without} does not read {' or '.join(unread)}")
    # and each input that would leave a grid empty
    for flag in ("--max-degree", "--kmax", "--Nmax"):
        if given.get(flag, 0) < 0:
            raise UsageError(f"{flag} must be nonnegative")
    if args.name == "heisenberg-growth" and given.get("--kmax", 2) < 2:
        raise UsageError("heisenberg-growth needs --kmax >= 2 to test monotonicity")
    if args.name == "heisenberg-growth" and given.get("--kmax", 2) > GROWTH_MAX_KMAX:
        raise UsageError(f"heisenberg-growth needs --kmax <= {GROWTH_MAX_KMAX}")
    algebra, weights = _load_algebra_arg(args.algebra)
    for override in args.weights or ():
        try:
            index_text, _, value_text = override.partition("=")
            index = int(index_text)
            value = Fraction(value_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --weight override {override!r}") from exc
        if not 0 <= index < algebra.dim or value <= 0:
            raise UsageError(f"bad --weight override {override!r}")
        weights[index] = value
    options = {EXPERIMENT_OPTIONS[flag]: value for flag, value in given.items()}
    options.update(
        algebra=algebra,
        weights=weights,
        R_list=_parse_list(args.R_list, "--R", float),
        z_list=_parse_list(args.z_list, "--z", Fraction),
    )
    try:
        reports = exp_mod.run_experiment(args.name, **options)
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
        layer = sorted((w, c) for w, c in series.items() if len(w) == n)
        words = [{"w": w, "g": str(c)} for w, c in layer]
        slices = []
        for a in range(n + 1):
            block = [w for w, _ in layer if w.count("X") == a]
            if block:
                slices.append({"a": a, "b": n - a, "words": block})
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="guttstar",
        description="Exact engine for the deformed symmetric-algebra product "
        "over structure-constant Lie algebras",
    )
    sub = parser.add_subparsers(dest="command")

    mul = sub.add_parser("mul", help="multiply two expressions")
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
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--max-degree", type=int, default=8, dest="max_degree")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    experiment = sub.add_parser("experiment", help="run an estimate sweep")
    experiment.add_argument("name", choices=exp_mod.EXPERIMENT_NAMES)
    experiment.add_argument(
        "--weight",
        action="append",
        metavar="i=p/q",
        dest="weights",
        help="override a seminorm weight (repeatable)",
    )
    experiment.add_argument("--R", dest="R_list", help="comma-separated list of R exponents")
    experiment.add_argument("--z", dest="z_list", help="comma-separated list of rational z values")
    experiment.add_argument("--eps", type=float, help="growth-table epsilon")
    # None when not given: run_experiment holds the defaults
    experiment.add_argument("--kmax", type=int, dest="k_max")
    experiment.add_argument("--Nmax", type=int, dest="n_max")
    experiment.add_argument("--max-degree", type=int, dest="max_degree")
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--out", default="reports")
    experiment.add_argument("--format", choices=("csv", "text"), default="csv")
    experiment.set_defaults(func=cmd_experiment)
    for command in (mul, verify, experiment):
        command.add_argument("--algebra", help="algebra definition file (default: Heisenberg)")

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
