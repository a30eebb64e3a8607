"""Numerical reproduction of the continuity estimates and counterexamples.

Every check evaluates both sides of one printed inequality on a sample grid:
norms are computed exactly as rationals and converted to float at the end,
n!^R enters through lgamma, and a sample passes when both sides are finite
and

    lhs <= rhs * (1 + 1e-9).

A side that overflowed to inf (or became NaN) was not evaluated, so its
sample fails instead of passing as inf <= inf.  Each summary line reports
the worst finite lhs/rhs ratio of its report and where it occurred.

Constants are taken verbatim from the source results (32(|z|+1), 8e(|z|+1),
16e^2(|z|+1), 2^R, the Bernoulli series constant); the harness tests their
validity, not their tightness, and each estimate sweep accepts an overriding
constant so a deliberately falsified run can prove the harness is not vacuous.

Each gridded estimate has one sweep (``cn_sweep``, ``product_sweep``,
``linear_sweep``, ``nfold_sweep``, ``nilpotent_sweep``, ``functorial_sweep``,
``weyl_sweep``, ``hopf_sweep``) that takes its whole grid of R, z and central
values and returns one report per grid point.  It loops over the inputs
outside and the grid points inside, and does what no point changes once per
input: the star product, the exact morphism identity, the Weyl projection per
central value, the z-evaluation per z, the coproduct and antipode, and the
exact per-degree norms.  Each point's floats come from the same
``graded_term`` calls, in the same order, as a separate run at that point,
so the rows and their order are unchanged.  A single point is a one-point
grid, and nothing a sweep computes outlives the call.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .bch import bernoulli_star
from .hopf import antipode, coproduct, tensor_sum, tensor_terms, weyl_lift, weyl_project
from .liealg import (
    LieAlgebra,
    LieHom,
    Vector,
    basis_vector,
    check_hom,
    heisenberg,
    nilpotency_index,
)
from .pbw import _lift_hom, star_pbw
from .sym import (
    Seminorm,
    SymElement,
    asymptotic_estimate,
    factorial_power,
    graded_sum,
    graded_term,
    pn_norm,
    pn_terms,
    pR_norm,
    random_element,
)

SLACK = 1e-9

Scalar = Union[int, Fraction]


def _float(value: Scalar) -> float:
    """value as a float, or an infinity where it is too large for one, so
    that a row it enters fails as non-finite instead of raising."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass
class SampleRow:
    params: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.lhs)
            and math.isfinite(self.rhs)
            and self.lhs <= self.rhs * (1.0 + SLACK)
        )


@dataclass
class EstimateReport:
    estimate_id: str
    grid: str
    rows: list[SampleRow] = field(default_factory=list)

    def add(self, params: str, lhs: float, rhs: float) -> None:
        self.rows.append(SampleRow(params, lhs, rhs))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[SampleRow]:
        return [r for r in self.rows if not r.passed]

    def worst(self) -> Optional[SampleRow]:
        """The row with the largest finite lhs/rhs ratio, if any."""
        finite = [r for r in self.rows if math.isfinite(r.ratio)]
        return max(finite, key=lambda r: r.ratio, default=None)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}  {self.estimate_id} [{self.grid}] "
            f"({len(self.rows)} samples, {len(self.failures())} failures)"
        )


def write_csv(reports: Sequence[EstimateReport], path: Union[str, Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["estimate_id", "params", "lhs", "rhs", "ratio", "pass"])
        for report in reports:
            for row in report.rows:
                writer.writerow(
                    [
                        report.estimate_id,
                        row.params,
                        repr(row.lhs),
                        repr(row.rhs),
                        repr(row.ratio),
                        row.passed,
                    ]
                )


def summary_text(reports: Sequence[EstimateReport]) -> str:
    lines = []
    for report in reports:
        worst = report.worst()
        tightness = "" if worst is None else f", worst lhs/rhs {worst.ratio:.6g} at {worst.params}"
        lines.append(f"{report}{tightness}")
    total = sum(len(r.rows) for r in reports)
    bad = sum(len(r.failures()) for r in reports)
    lines.append(f"total: {total} samples, {bad} failures")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sample generation
# ---------------------------------------------------------------------------


def monomials_of_degree(L: LieAlgebra, degree: int) -> list[tuple[int, ...]]:
    out = []

    def build(prefix, remaining, slot):
        if slot == L.dim - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for a in range(remaining + 1):
            build(prefix + [a], remaining - a, slot + 1)

    build([], degree, 0)
    return out


def monomial_pairs(
    L: LieAlgebra, max_total_degree: int, max_factor_degree: Optional[int] = None
):
    """Monomial pairs by total degree, then by the degree of the left factor;
    with max_factor_degree, only the pairs whose factors both stay within it."""
    top = max_total_degree if max_factor_degree is None else max_factor_degree
    by_degree = [monomials_of_degree(L, k) for k in range(top + 1)]
    for total in range(max_total_degree + 1):
        for k in range(max(0, total - top), min(total, top) + 1):
            for alpha in by_degree[k]:
                for beta in by_degree[total - k]:
                    yield alpha, beta


def _monomial(L: LieAlgebra, alpha: tuple[int, ...]) -> SymElement:
    """xi^alpha for a valid multi-index, through the trusted constructor."""
    return SymElement._raw(L, {(alpha, 0): Fraction(1)})


def _norms(
    p: Seminorm, points: Sequence[tuple[float, float]]
) -> Callable[[SymElement], list[float]]:
    """x -> [(s p)_R(x) for each (R, s) of points], reading x once."""

    def norms(x: SymElement) -> list[float]:
        terms = pn_terms(p, x)
        return [graded_sum(terms, R, s) for R, s in points]

    return norms


def _distinct(values: list) -> tuple[list, list[int]]:
    """The distinct values in first-seen order, and the index of each value
    among them: a sweep works once per distinct z or central value and reads
    the result by int index, since hashing a Fraction for every row is slow."""
    distinct = list(dict.fromkeys(values))
    return distinct, [distinct.index(v) for v in values]


def _at_z(p: Seminorm, x: SymElement, zs: Sequence[Fraction]) -> list[list]:
    """[pn_terms(p, x at z = z0) for z0 in zs]."""
    return [pn_terms(p, x.evaluate_z(z0)) for z0 in zs]


def _monomial_inputs(
    L: LieAlgebra, max_degree: int, norms: Callable[[SymElement], list[float]]
) -> dict[tuple[int, ...], tuple[SymElement, list[float]]]:
    """{alpha: (xi^alpha, norms(xi^alpha))} for every monomial of degree at
    most max_degree, so that a sweep builds and measures each input once."""
    inputs = {}
    for k in range(max_degree + 1):
        for alpha in monomials_of_degree(L, k):
            x = _monomial(L, alpha)
            inputs[alpha] = (x, norms(x))
    return inputs


def _random_vector(L: LieAlgebra, rng: random.Random) -> Vector:
    while True:
        v = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(L.dim)
        )
        if any(v):
            return v


def _pair_inputs(L: LieAlgebra, max_total_degree: int, n_random: int, seed: int, norms):
    """(x, norms(x), y, norms(y), tag) for every monomial pair up to
    max_total_degree, then for n_random pairs of random elements."""
    inputs = _monomial_inputs(L, max_total_degree, norms)
    for alpha, beta in monomial_pairs(L, max_total_degree):
        yield (*inputs[alpha], *inputs[beta], f"mono:{alpha}|{beta}")
    rng = random.Random(seed)
    for i in range(n_random):
        x = random_element(L, rng, max_degree=4)
        y = random_element(L, rng, max_degree=4)
        yield x, norms(x), y, norms(y), f"rand:{i}"


# ---------------------------------------------------------------------------
# C_n and product continuity (general asymptotic-estimate route)
# ---------------------------------------------------------------------------


def cn_sweep(
    L: LieAlgebra,
    p: Seminorm,
    Rs: Sequence[float],
    max_total_degree: int = 8,
    n_random: int = 100,
    seed: int = 0,
    constant: float = 32.0,
) -> list[EstimateReport]:
    """p_R(C_n(x,y)) <= n!^(1-R) / (2 * 8^n) * (32 q)_R(x) (32 q)_R(y), R >= 1,
    at each R of Rs, one report per R."""
    q = asymptotic_estimate(L, p)
    reports = [
        EstimateReport("cn-estimate", f"R={R},deg<={max_total_degree},c={constant}")
        for R in Rs
    ]
    norms = _norms(q, [(R, constant) for R in Rs])
    for x, qx, y, qy, tag in _pair_inputs(L, max_total_degree, n_random, seed, norms):
        product = star_pbw(x, y)
        for n in range(1, max(x.max_degree + y.max_degree, 0)):
            terms = pn_terms(p, product.z_coefficient(n))
            params = f"{tag},n={n}"
            for R, report, a, b in zip(Rs, reports, qx, qy):
                rhs = factorial_power(n, 1.0 - R) / (2.0 * 8.0**n) * a * b
                report.add(params, graded_sum(terms, R), rhs)
    return reports


def product_sweep(
    L: LieAlgebra,
    p: Seminorm,
    grid: Sequence[tuple[float, Scalar]],
    max_total_degree: int = 8,
    n_random: int = 100,
    seed: int = 0,
    constant: float = 32.0,
) -> list[EstimateReport]:
    """p_R(x * y) <= (c q)_R(x) (c q)_R(y) with c = 32(|z|+1), R >= 1, at
    each (R, z0) of grid, one report per point."""
    grid = [(R, Fraction(z0)) for R, z0 in grid]
    q = asymptotic_estimate(L, p)
    reports = [
        EstimateReport("product-estimate", f"R={R},z={z0},deg<={max_total_degree}")
        for R, z0 in grid
    ]
    norms = _norms(q, [(R, constant * (abs(_float(z0)) + 1.0)) for R, z0 in grid])
    zs, zi = _distinct([z0 for _, z0 in grid])
    for x, qx, y, qy, tag in _pair_inputs(L, max_total_degree, n_random, seed, norms):
        terms = _at_z(p, star_pbw(x, y), zs)
        for (R, _), i, report, a, b in zip(grid, zi, reports, qx, qy):
            report.add(tag, graded_sum(terms[i], R), a * b)
    return reports


# ---------------------------------------------------------------------------
# the Heisenberg growth counterexample
# ---------------------------------------------------------------------------


@dataclass
class GrowthRow:
    k: int
    factor_norm: float
    product_norm: float
    lower_bound: float

    @property
    def passed(self) -> bool:
        return self.product_norm >= self.lower_bound * (1.0 - SLACK)


@dataclass
class GrowthTable:
    R: float
    eps: float
    z0: Fraction = Fraction(1)
    rows: list[GrowthRow] = field(default_factory=list)

    @property
    def bound_holds(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def factors_decreasing(self) -> bool:
        vals = [r.factor_norm for r in self.rows]
        return all(a > b for a, b in zip(vals, vals[1:]))

    @property
    def products_increasing(self) -> bool:
        vals = [r.product_norm for r in self.rows]
        return all(a < b for a, b in zip(vals, vals[1:]))

    @property
    def passed(self) -> bool:
        return self.bound_holds and self.factors_decreasing and self.products_increasing

    def as_report(self) -> EstimateReport:
        report = EstimateReport(
            "heisenberg-growth", f"R={self.R},eps={self.eps},z={self.z0}"
        )
        for row in self.rows:
            # lower bound: recorded as bound <= product, i.e. lhs=bound rhs=product
            report.add(f"k={row.k}", row.lower_bound, row.product_norm)
        report.add("factors-decreasing", 0.0 if self.factors_decreasing else 1.0, 0.0)
        report.add("products-increasing", 0.0 if self.products_increasing else 1.0, 0.0)
        return report


def heisenberg_growth(
    R: float, eps: float, k_max: int, z0: Scalar = 1
) -> GrowthTable:
    """Norms of a_k = P^k/k!^(R+eps), b_k = Q^k/k!^(R+eps) and their product.

    With the unit-weight norm, n_R(a_k) = k!^{-eps} exactly; the factors
    shrink to zero while the product norms diverge, so no continuity constant
    can exist for R < 1.  The exact product carries coefficients
    C(k,j)^2 j! (z/2)^j, so the textbook rate n_R(a_k * b_k) >= k!^{1-R-2eps}
    is rigorous for every k at z = 2 (where the (z/2)^j factor drops out);
    at z = 1 it holds for the (R, eps) pairs used by the default grids but
    fails for small R (e.g. R = 0, eps = 0.2 from k = 6 on) even though the
    divergence itself persists.
    """
    if not 0 <= R < 1:
        raise ValueError("need 0 <= R < 1")
    if eps <= 0 or 2 * eps >= 1 - R:
        raise ValueError("need eps > 0 with 2 eps < 1 - R")
    z0 = Fraction(z0)
    L = heisenberg()
    p = Seminorm.ell1(L)
    table = GrowthTable(R, eps, z0)
    P = SymElement.basis(L, 0)
    Q = SymElement.basis(L, 1)
    for k in range(1, k_max + 1):
        product = star_pbw(P**k, Q**k).evaluate_z(z0)
        norm_product = pR_norm(p, R, product)
        scale = factorial_power(k, -2.0 * (R + eps))
        table.rows.append(
            GrowthRow(
                k=k,
                factor_norm=factorial_power(k, -eps),
                product_norm=norm_product * scale,
                lower_bound=factorial_power(k, 1.0 - R - 2.0 * eps),
            )
        )
    return table


# ---------------------------------------------------------------------------
# linear-factor continuity (locally multiplicatively convex route)
# ---------------------------------------------------------------------------


def _log_fraction(f: Fraction) -> float:
    return math.log(f.numerator) - math.log(f.denominator)


def linear_factor_constant(R: float, z0: Scalar, terms: int = 120) -> float:
    """The convergent series bound c_{z,R} from the inductive continuity proof:
    sum |B*_n| |z|^n / n!^R for |z| < 2 pi, else the split product for R > 1.

    Summed in log space: the Bernoulli numbers grow factorially, so the
    numerator and the n!^R denominator overflow floats separately long before
    their ratio does.  A bound past the float range is inf."""
    az = abs(_float(Fraction(z0)))
    bern = bernoulli_star(terms)

    def term(n: int, b: Fraction, R_power: float) -> float:
        if b == 0 or (az == 0.0 and n > 0):
            return 0.0
        log_term = _log_fraction(abs(b)) - R_power * math.lgamma(n + 1)
        if n:
            log_term += n * math.log(az)
        return math.exp(log_term)

    try:
        if az < 2.0 * math.pi:
            return sum(term(n, b, R) for n, b in enumerate(bern))
        if R > 1:
            left = sum(
                math.exp(_log_fraction(abs(b)) - math.lgamma(n + 1))
                for n, b in enumerate(bern)
                if b
            )
            right = sum(
                math.exp(n * math.log(az) - (R - 1.0) * math.lgamma(n + 1)) if n else 1.0
                for n in range(terms + 1)
            )
            return left * right
    except OverflowError:
        return math.inf
    raise ValueError("need |z| < 2*pi or R > 1")


def linear_sweep(
    L: LieAlgebra,
    p: Seminorm,
    grid: Sequence[tuple[float, Scalar]],
    k_max: int = 8,
    n_random: int = 100,
    seed: int = 0,
    constant: Optional[float] = None,
) -> list[EstimateReport]:
    """p_R(x * eta) <= c_{z,R} (k+1)^R p_R(x) p(eta) for submultiplicative p,
    at each (R, z0) of grid, one report per point."""
    grid = [(R, Fraction(z0)) for R, z0 in grid]
    p_sub = asymptotic_estimate(L, p)
    cs = [linear_factor_constant(R, z0) if constant is None else constant for R, z0 in grid]
    reports = [EstimateReport("linear-estimate", f"R={R},z={z0},k<={k_max}") for R, z0 in grid]
    norms = _norms(p_sub, [(R, 1.0) for R, _ in grid])
    zs, zi = _distinct([z0 for _, z0 in grid])
    rng = random.Random(seed)

    def linear(eta: Vector) -> tuple[SymElement, float]:
        return SymElement.from_vector(L, eta), _float(p_sub.vector_norm(eta))

    def record(x: SymElement, px: list[float], y: SymElement, py: float, tag: str) -> None:
        k = max(x.max_degree, 0)
        terms = _at_z(p_sub, star_pbw(x, y), zs)
        for (R, _), i, c, report, a in zip(grid, zi, cs, reports, px):
            report.add(tag, graded_sum(terms[i], R), c * (k + 1.0) ** R * a * py)

    etas = [linear(basis_vector(L, i)) for i in range(L.dim)]
    for alpha, x_input in _monomial_inputs(L, k_max, norms).items():
        for i, eta_input in enumerate(etas):
            record(*x_input, *eta_input, f"mono:{alpha},eta={i}")
    for i in range(n_random):
        x = random_element(L, rng, max_degree=min(k_max, 5))
        record(x, norms(x), *linear(_random_vector(L, rng)), f"rand:{i}")
    return reports


# ---------------------------------------------------------------------------
# n-fold products of linear factors
# ---------------------------------------------------------------------------


def _star_fold(L: LieAlgebra, vectors: Sequence[Vector]) -> SymElement:
    acc = SymElement.from_vector(L, vectors[0])
    for v in vectors[1:]:
        acc = star_pbw(acc, SymElement.from_vector(L, v))
    return acc


def _add_fold_rows(
    reports, points, p: Seminorm, factors: list[Vector], q: Seminorm, vectors: list, tag: str
) -> None:
    """One row p_R(xi_1 * ... * xi_n at z0) <= c^n n!^S q(v_1)...q(v_n) per
    report, for its point (R, z0, c, S); each factor xi_i is v_i or its image
    under a hom.  The fold is taken once, and a c^n past the float range is inf."""
    n = len(factors)
    zs, zi = _distinct([z0 for _, z0, _, _ in points])
    terms = _at_z(p, _star_fold(p.algebra, factors), zs)
    weights = [_float(q.vector_norm(v)) for v in vectors]
    for (R, _, c, S), i, report in zip(points, zi, reports):
        try:
            rhs = c**n * factorial_power(n, S)
        except OverflowError:
            rhs = math.inf
        for w in weights:
            rhs *= w
        report.add(tag, graded_sum(terms[i], R), rhs)


def nfold_sweep(
    L: LieAlgebra,
    p: Seminorm,
    grid: Sequence[tuple[float, Scalar]],
    n_max: int = 6,
    n_random: int = 50,
    seed: int = 0,
    constant: Optional[float] = None,
) -> list[EstimateReport]:
    """p_R(xi_1 * ... * xi_n) <= c^n n!^R q(xi_1)...q(xi_n), c = 8e(|z|+1), at
    each (R, z0) of grid, one report per point."""
    grid = [(R, Fraction(z0)) for R, z0 in grid]
    q = asymptotic_estimate(L, p)
    points = [
        (R, z0, 8.0 * math.e * (abs(_float(z0)) + 1.0) if constant is None else constant, R)
        for R, z0 in grid
    ]
    reports = [EstimateReport("nfold-estimate", f"R={R},z={z0},n<={n_max}") for R, z0 in grid]
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for trial in range(max(1, n_random // n_max)):
            vectors = [basis_vector(L, rng.randrange(L.dim)) for _ in range(n)]
            _add_fold_rows(reports, points, p, vectors, q, vectors, f"basis:n={n},t={trial}")
        vectors = [_random_vector(L, rng) for _ in range(n)]
        _add_fold_rows(reports, points, p, vectors, q, vectors, f"rand:n={n}")
    return reports


# ---------------------------------------------------------------------------
# nilpotent refinements
# ---------------------------------------------------------------------------


def nilpotent_sweep(
    L: LieAlgebra,
    p: Seminorm,
    grid: Sequence[tuple[float, Scalar]],
    max_total_degree: int = 8,
    n_random: int = 50,
    seed: int = 0,
    constant: Optional[float] = None,
) -> list[EstimateReport]:
    """Nilpotent C_n bound with shifted exponent R+eps, the matching n-fold
    bound with c = 16 e^2 (|z|+1), and the structural vanishing of C_n above
    the degree bound n > (k+l)(N-1)/N, at each (R, z0) of grid, one report
    per point."""
    if not all(0 <= R < 1 for R, _ in grid):
        raise ValueError("the nilpotent refinement is for 0 <= R < 1")
    N = nilpotency_index(L)
    if N is None:
        raise ValueError("algebra is not nilpotent")
    grid = [(R, Fraction(z0)) for R, z0 in grid]
    epss = [(N - 1) / N * (1.0 - R) for R, _ in grid]
    q = asymptotic_estimate(L, p)
    c_cn = 32.0 * math.e if constant is None else constant
    c_folds = [
        16.0 * math.e**2 * (abs(_float(z0)) + 1.0) if constant is None else constant
        for _, z0 in grid
    ]
    points = [(R, z0, c, R + eps) for (R, z0), c, eps in zip(grid, c_folds, epss)]
    reports = [
        EstimateReport("nilpotent-estimate", f"R={R},z={z0},N={N},eps={eps:.4g}")
        for (R, z0), eps in zip(grid, epss)
    ]
    rng = random.Random(seed)

    inputs = _monomial_inputs(
        L, max_total_degree, _norms(q, [(R + eps, c_cn) for (R, _), eps in zip(grid, epss)])
    )
    for alpha, beta in monomial_pairs(L, max_total_degree):
        k, l = sum(alpha), sum(beta)
        if k + l == 0:
            continue
        (x, qx), (y, qy) = inputs[alpha], inputs[beta]
        product = star_pbw(x, y)
        cutoff = (k + l) * (N - 1) / N
        for n in range(1, k + l):
            cn = product.z_coefficient(n)
            terms = pn_terms(p, cn)
            vanish = 0.0 if cn.is_zero else 1.0
            tag = f"{alpha}|{beta},n={n}"
            for (R, _), report, a, b in zip(grid, reports, qx, qy):
                if n > cutoff:
                    report.add(f"vanish:{tag}", vanish, 0.0)
                report.add(f"cn:{tag}", graded_sum(terms, R), a * b / (2.0 * 8.0**n))

    for n in range(1, 7):
        for trial in range(max(1, n_random // 6)):
            vectors = [basis_vector(L, rng.randrange(L.dim)) for _ in range(n)]
            _add_fold_rows(reports, points, p, vectors, q, vectors, f"fold:n={n},t={trial}")
    return reports


# ---------------------------------------------------------------------------
# no exponentials for R >= 1, convergence below
# ---------------------------------------------------------------------------


@dataclass
class WitnessRow:
    order: int
    partial_sum: float
    term: float  # the degree-`order` summand of partial_sum


def no_exponential_witness(
    L: LieAlgebra, p: Seminorm, R: float, xi: Vector, n_max: int
) -> list[WitnessRow]:
    """Partial sums (c p)_R(sum_{n<=N} xi^n/n!) with c = 1/p(xi).

    Each degree contributes n!^(R-1), so for R >= 1 the partial sum at N is
    at least N (exactly N+1 at R = 1) and the exponential stays outside the
    completion; for R < 1 the same sums converge."""
    norm = p.vector_norm(xi)
    if norm == 0:
        raise ValueError("need p(xi) != 0")
    scaled = p.scale(1 / norm)
    element = SymElement.from_vector(L, xi)
    rows = []
    total = 0.0
    # degree-n part of the truncated exponential is xi^n/n!; build it up
    # incrementally instead of re-expanding the series at every order
    power = SymElement.unit(L)
    factorial = 1
    for n in range(n_max + 1):
        if n:
            power = power * element
            factorial *= n
        part = power.scale(Fraction(1, factorial))
        term = graded_term(n, R, pn_norm(scaled, part))
        total += term
        rows.append(WitnessRow(n, total, term))
    return rows


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------


def functorial_sweep(
    phi: LieHom,
    grid: Sequence[tuple[float, Scalar]],
    n_samples: int = 20,
    n_max: int = 5,
    seed: int = 0,
) -> list[EstimateReport]:
    """Exact morphism identity for the lifted hom, plus the continuity bound
    p_R(Phi(xi_1 * ... * xi_n)) <= (c r)_R with c = 8e(|z|+1) and r built from
    the target asymptotic estimate pulled back along phi, at each (R, z0) of
    grid, one report per point.  The morphism rows and the folds of the
    images depend on no point, so each is computed once."""
    if not check_hom(phi):
        raise ValueError("not a Lie algebra homomorphism")
    src, tgt = phi.source, phi.target
    grid = [(R, Fraction(z0)) for R, z0 in grid]
    rng = random.Random(seed)
    reports = [EstimateReport("functorial", f"z={z0},R={R}") for R, z0 in grid]

    for i in range(n_samples):
        x = random_element(src, rng, max_degree=3, terms=2)
        y = random_element(src, rng, max_degree=3, terms=2)
        lhs = _lift_hom(phi, star_pbw(x, y))
        rhs = star_pbw(_lift_hom(phi, x), _lift_hom(phi, y))
        for report in reports:
            report.add(f"morphism:{i}", 0.0 if lhs == rhs else 1.0, 0.0)

    p = Seminorm.ell1(tgt)
    q = asymptotic_estimate(tgt, p)
    r = Seminorm(src, tuple(q.vector_norm(col) or Fraction(1) for col in phi.matrix))
    points = [(R, z0, 8.0 * math.e * (abs(_float(z0)) + 1.0), R) for R, z0 in grid]
    for n in range(1, n_max + 1):
        for trial in range(3):
            vectors = [basis_vector(src, rng.randrange(src.dim)) for _ in range(n)]
            images = [phi.apply(v) for v in vectors]
            _add_fold_rows(reports, points, p, images, r, vectors, f"norm:n={n},t={trial}")
    return reports


# ---------------------------------------------------------------------------
# Weyl quotient and Hopf map estimates
# ---------------------------------------------------------------------------


def weyl_sweep(
    grid: Sequence[tuple[float, Scalar, Scalar]],
    max_factor_degree: int = 4,
    constant: Optional[float] = None,
) -> list[EstimateReport]:
    """p_R(pi(x * y)) <= (c p)_R(x) (c p)_R(y), c = 8(|z|+1)(|c|+1), R >= 1/2,
    with equal weights on P, Q, E, at each (R, z0, central) of grid, one
    report per point; each product is projected once per central value."""
    if any(R < 0.5 for R, _, _ in grid):
        raise ValueError("the quotient bound needs R >= 1/2")
    grid = [(R, Fraction(z0), Fraction(central)) for R, z0, central in grid]
    L = heisenberg()
    p = Seminorm.ell1(L)
    scales = [
        8.0 * (abs(_float(z0)) + 1.0) * (abs(_float(central)) + 1.0)
        if constant is None
        else constant
        for _, z0, central in grid
    ]
    reports = [
        EstimateReport("weyl-estimate", f"R={R},z={z0},c0={central}") for R, z0, central in grid
    ]
    norms = _norms(p, [(R, c) for (R, _, _), c in zip(grid, scales)])
    inputs = _monomial_inputs(L, max_factor_degree, norms)
    pairs, pi = _distinct([(z0, central) for _, z0, central in grid])
    centrals, ci = _distinct([central for _, central in pairs])
    for alpha, beta in monomial_pairs(L, 2 * max_factor_degree, max_factor_degree):
        (x, px), (y, py) = inputs[alpha], inputs[beta]
        product = star_pbw(x, y)
        projected = [weyl_project(product, c0) for c0 in centrals]
        terms = [
            pn_terms(p, weyl_lift(L, projected[j].evaluate_z(z0))) for (z0, _), j in zip(pairs, ci)
        ]
        params = f"mono:{alpha}|{beta}"
        for (R, _, _), i, report, a, b in zip(grid, pi, reports, px, py):
            report.add(params, graded_sum(terms[i], R), a * b)
    return reports


def standard_homs() -> list[tuple[str, LieHom]]:
    """Three validated homomorphisms used by the functoriality suite."""
    from .liealg import abelian, make_hom

    h = heisenberg()
    identity = make_hom(h, h, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    scaling = make_hom(h, h, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    quotient = make_hom(h, abelian(3), [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    return [("identity", identity), ("scaling", scaling), ("center-to-zero", quotient)]


# name -> (the run_experiment options it reads besides R_list, its default R
# list, its default z list); heisenberg-growth reads R_list and z_list only
# with eps, and runs DEFAULT_GROWTH_GRID without it; with eps = 0.125 its
# defaults give the grid point (0.5, 0.125, 1)
EXPERIMENTS = {
    "cn-estimate": ({"algebra", "weights", "max_degree", "seed"}, (1.0, 1.5, 2.0), ()),
    "product-estimate": (
        {"algebra", "weights", "z_list", "max_degree", "seed"}, (1.0, 1.5, 2.0), (0, 1, -2)
    ),
    "heisenberg-growth": ({"eps", "z_list", "k_max"}, (0.5,), (1,)),
    "linear-estimate": ({"algebra", "weights", "z_list", "k_max", "seed"}, (1.0, 2.0), (1, 7)),
    "nfold-estimate": ({"algebra", "weights", "z_list", "seed"}, (1.0, 1.5), (1, -2)),
    "nilpotent-estimate": (
        {"algebra", "weights", "z_list", "max_degree", "seed"}, (0.0, 0.5, 0.9), (1,)
    ),
    # the witness is scaled to p(xi) = 1, so no row depends on the algebra or weights
    "no-exp": ({"n_max"}, (1.0, 2.0, 0.9), ()),
    "functorial": ({"z_list", "seed"}, (1.0,), (1,)),
    "weyl-estimate": ({"z_list"}, (0.5, 1.0), (1, -2)),
    "hopf-estimate": ({"algebra", "weights", "max_degree", "seed"}, (0.5, 1.0, 2.0), ()),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)

# (R, eps, z): the three parameter pairs at the z = 2 normalization where
# the stated k!^(1-R-2eps) rate is exact for all k, plus the z = 1 point the
# acceptance suite pins down.
DEFAULT_GROWTH_GRID = (
    (0.0, 0.2, Fraction(2)),
    (0.5, 0.125, Fraction(2)),
    (0.9, 0.04, Fraction(2)),
    (0.5, 0.125, Fraction(1)),
)

NO_EXP_TAIL_TOLERANCE = 1e-6


def run_experiment(
    name: str,
    algebra: Optional[LieAlgebra] = None,
    weights: Optional[Sequence[Fraction]] = None,
    R_list: Optional[Sequence[float]] = None,
    z_list: Optional[Sequence[Fraction]] = None,
    eps: Optional[float] = None,
    k_max: int = 10,
    n_max: int = 20,
    max_degree: int = 8,
    seed: int = 0,
) -> list[EstimateReport]:
    """Drive one named experiment over its grid; returns one report per point."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    _, default_R, default_z = EXPERIMENTS[name]
    L = algebra if algebra is not None else heisenberg()
    p = Seminorm.ell1(L, weights)
    Rs = tuple(R_list) if R_list else default_R
    zs = tuple(z_list) if z_list else tuple(map(Fraction, default_z))
    reports: list[EstimateReport] = []

    if name == "cn-estimate":
        reports = cn_sweep(L, p, Rs, max_total_degree=max_degree, seed=seed)
    elif name == "product-estimate":
        grid = [(R, z0) for R in Rs for z0 in zs]
        reports = product_sweep(L, p, grid, max_total_degree=max_degree, seed=seed)
    elif name == "heisenberg-growth":
        if eps is not None:
            grid = [(R, eps, z0) for R in Rs for z0 in zs]
        else:
            grid = list(DEFAULT_GROWTH_GRID)
        for R, e, z0 in grid:
            reports.append(heisenberg_growth(R, e, k_max, z0).as_report())
    elif name == "linear-estimate":
        # points outside the lemma's parameter domain are left out
        grid = [(R, z0) for R in Rs for z0 in zs if abs(_float(z0)) < 2.0 * math.pi or R > 1]
        reports = linear_sweep(L, p, grid, k_max=min(k_max, 8), seed=seed) if grid else []
    elif name == "nfold-estimate":
        reports = nfold_sweep(L, p, [(R, z0) for R in Rs for z0 in zs], seed=seed)
    elif name == "nilpotent-estimate":
        grid = [(R, z0) for R in Rs for z0 in zs]
        reports = nilpotent_sweep(L, p, grid, max_total_degree=max_degree, seed=seed)
    elif name == "no-exp":
        xi = basis_vector(L, 0)
        for R in Rs:
            if R >= 1:
                rows = no_exponential_witness(L, p, R, xi, n_max)
                report = EstimateReport("no-exp", f"R={R},N<={n_max}")
                for row in rows:
                    # lower-bound orientation: N <= partial sum
                    report.add(f"N={row.order}", float(row.order), row.partial_sum)
                reports.append(report)
            else:
                # Windows start past the head of the series (degrees 0-50 sum
                # to about 6.6), and each window sums its own terms: a
                # difference of float partial sums reads exactly 0.0 once
                # the terms drop below the last bit of the sum.
                window = 50
                tail_n = max(n_max, 200) + window
                rows = no_exponential_witness(L, p, R, xi, tail_n)
                report = EstimateReport("no-exp-convergence", f"R={R},N={tail_n}")
                for start in range(window, tail_n, window):
                    end = start + window
                    tail = math.fsum(row.term for row in rows[start + 1 : end + 1])
                    report.add(f"tail:{start}->{end}", tail, NO_EXP_TAIL_TOLERANCE)
                reports.append(report)
    elif name == "functorial":
        for tag, phi in standard_homs():
            for report in functorial_sweep(phi, [(R, z0) for R in Rs for z0 in zs], seed=seed):
                report.estimate_id = f"functorial:{tag}"
                reports.append(report)
    elif name == "weyl-estimate":
        reports = weyl_sweep(
            [(R, z0, central) for R in Rs for z0 in zs for central in (Fraction(1), Fraction(-2))]
        )
    elif name == "hopf-estimate":
        reports = hopf_sweep(L, p, Rs, max_degree=max_degree, seed=seed)
    return reports


def hopf_sweep(
    L: LieAlgebra,
    p: Seminorm,
    Rs: Sequence[float],
    max_degree: int = 8,
    n_random: int = 60,
    seed: int = 0,
    constant: float = 2.0,
) -> list[EstimateReport]:
    """Antipode contraction p_R(S(x)) <= p_R(x) and the coproduct bound
    (p_R x p_R)(Delta(x)) <= (2p)_R(x), at each R of Rs, one report per R."""
    rng = random.Random(seed)
    reports = [EstimateReport("hopf-estimate", f"R={R},deg<={max_degree}") for R in Rs]

    def record(x: SymElement, tag: str) -> None:
        base = pn_terms(p, x)
        flipped = pn_terms(p, antipode(x))
        split = tensor_terms(p, coproduct(x))
        for R, report in zip(Rs, reports):
            report.add(f"antipode:{tag}", graded_sum(flipped, R), graded_sum(base, R))
            report.add(f"coproduct:{tag}", tensor_sum(split, R), graded_sum(base, R, constant))

    for degree in range(max_degree + 1):
        for alpha in monomials_of_degree(L, degree):
            record(_monomial(L, alpha), f"mono:{alpha}")
    for i in range(n_random):
        record(random_element(L, rng, max_degree=min(max_degree, 5)), f"rand:{i}")
    return reports
