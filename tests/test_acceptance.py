"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction

import guttstar.experiments as ex
from guttstar.bch import (
    carlitz_check,
    dynkin_consistency_residual,
    exp_product_check,
    kernel_K,
    one_parameter_check,
    star_bch,
    star_bch_elements,
    star_linear,
    thompson_sum,
)
from guttstar.hopf import verify_hopf
from guttstar.liealg import abelian, basis_vector, filiform4, heisenberg, sl2
from guttstar.pbw import star_graded, star_pbw
from guttstar.sym import Seminorm, SymElement
from guttstar.experiments import monomial_pairs

REL = 1e-9


def _report(criterion: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}")
    assert passed, criterion


def _random_vectors(L, rng, count):
    out = []
    while len(out) < count:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(L.dim))
        if any(v):
            out.append(v)
    return out


def test_criterion_01_three_products_equivalence():
    """star_pbw, star_graded, star_bch agree coefficient-wise in z (exact):
    pbw and graded on monomial pairs to degree 8, star_bch on power pairs to
    degree 8, all three on monomial pairs to degree 6."""
    ok = True
    for L in (heisenberg(), sl2()):
        # pbw vs graded on every monomial pair of total degree <= 8
        for alpha, beta in monomial_pairs(L, 8):
            x = SymElement.monomial(L, alpha)
            y = SymElement.monomial(L, beta)
            if star_pbw(x, y) != star_graded(x, y):
                ok = False
        # BCH route on all power pairs xi^k * eta^l, basis and random vectors
        rng = random.Random(1)
        vectors = [basis_vector(L, i) for i in range(L.dim)]
        vectors += _random_vectors(L, rng, 2)
        for xi in vectors:
            for eta in vectors:
                for k in range(0, 9):
                    for l in range(0, 9 - k):
                        got = star_bch(L, xi, k, eta, l)
                        want = star_pbw(
                            SymElement.from_vector(L, xi) ** k,
                            SymElement.from_vector(L, eta) ** l,
                        )
                        if got != want:
                            ok = False
        # full three-way on mixed monomials of total degree <= 6
        for alpha, beta in monomial_pairs(L, 6):
            x = SymElement.monomial(L, alpha)
            y = SymElement.monomial(L, beta)
            reference = star_pbw(x, y)
            if star_graded(x, y) != reference or star_bch_elements(x, y) != reference:
                ok = False
    _report("criterion 1: three product constructions agree exactly (deg <= 8)", ok)


def test_criterion_02_kernel_identity():
    """K(k,s) = delta(s,0) and Carlitz residuals vanish, k, m <= 12, exact."""
    ok = all(
        kernel_K(k, s) == (1 if s == 0 else 0)
        for k in range(13)
        for s in range(k + 1)
    )
    ok = ok and all(
        carlitz_check(k, m) == 0 for k in range(13) for m in range(13)
    )
    _report("criterion 2: kernel identity and Carlitz residuals (k,m <= 12)", ok)


def test_criterion_03_bernoulli_formula():
    """star_linear equals the PBW oracle exactly for degrees <= 8, dims <= 4."""
    ok = True
    rng = random.Random(2)
    for L in (heisenberg(), abelian(3), sl2(), filiform4()):
        exhaustive_to = 6 if L.dim == 4 else 8
        monomials = [
            alpha
            for d in range(exhaustive_to + 1)
            for alpha in ex.monomials_of_degree(L, d)
        ]
        for d in range(exhaustive_to + 1, 9):
            for _ in range(10):
                alpha = [0] * L.dim
                for _ in range(d):
                    alpha[rng.randrange(L.dim)] += 1
                monomials.append(tuple(alpha))
        etas = [basis_vector(L, i) for i in range(L.dim)] + _random_vectors(L, rng, 2)
        for alpha in monomials:
            x = SymElement.monomial(L, alpha)
            for eta in etas:
                if star_linear(x, eta) != star_pbw(x, SymElement.from_vector(L, eta)):
                    ok = False
    _report("criterion 3: Bernoulli linear-factor formula = oracle (k <= 8)", ok)


def test_criterion_04_goldberg_thompson():
    """Dynkin re-expansion reproduces the log series (n <= 8, exact);
    Thompson sums <= 2 for n <= 10."""
    ok = all(not dynkin_consistency_residual(n) for n in range(1, 9))
    ok = ok and all(thompson_sum(n) <= 2 for n in range(1, 11))
    _report("criterion 4: Goldberg/Thompson word expansion", ok)


def test_criterion_05_heisenberg_counterexample():
    """(R, eps) = (1/2, 1/8), k <= 12, z = 1: exact factor norms k!^(-eps)
    within 1e-9, product norms >= k!^(1-R-2eps), strict monotonicity."""
    table = ex.heisenberg_growth(0.5, 0.125, 12, z0=1)
    ok = True
    for row in table.rows:
        expected = math.exp(-0.125 * math.lgamma(row.k + 1))
        if not math.isclose(row.factor_norm, expected, rel_tol=REL):
            ok = False
        if row.product_norm < row.lower_bound * (1 - REL):
            ok = False
    ok = ok and table.factors_decreasing and table.products_increasing
    _report("criterion 5: Heisenberg growth counterexample (k <= 12)", ok)


def test_criterion_06_continuity_estimates():
    """Every sampled instance on the default grids passes at slack 1e-9;
    the falsified-constant control fails."""
    reports = []
    for name in (
        "cn-estimate",
        "product-estimate",
        "linear-estimate",
        "nfold-estimate",
        "nilpotent-estimate",
        "weyl-estimate",
        "hopf-estimate",
    ):
        reports.extend(ex.run_experiment(name))
    ok = all(r.passed for r in reports)
    (control,) = ex.cn_sweep(
        heisenberg(),
        Seminorm.ell1(heisenberg()),
        [1.0],
        max_total_degree=5,
        n_random=0,
        constant=0.25,
    )
    ok = ok and not control.passed
    for r in reports:
        print(f"    {r}")
    print(f"    negative control (constant 32 -> 1/4): {'fails as expected' if not control.passed else 'UNEXPECTEDLY PASSES'}")
    _report("criterion 6: continuity estimate grids + negative control", ok)


def test_criterion_07_hopf_axioms():
    """Coassociativity, counit, antipode, Delta-morphism exact to degree 6."""
    ok = True
    for L in (heisenberg(), abelian(2), sl2(), filiform4()):
        report = verify_hopf(L, max_degree=6, seed=0, samples=3)
        if not report:
            ok = False
    _report("criterion 7: Hopf axioms exact up to degree 6 (dims <= 4)", ok)


def test_criterion_08_nilpotent_exponentials():
    """exp(xi) * exp(eta) = exp(BCH/z) residual 0 to degree 8 at
    z in {1, 1/2, -2}; one-parameter group law exact."""
    L = heisenberg()
    P = basis_vector(L, 0)
    Q = basis_vector(L, 1)
    ok = all(
        exp_product_check(L, P, Q, z0, 8).is_zero
        for z0 in (Fraction(1), Fraction(1, 2), Fraction(-2))
    )
    ok = ok and one_parameter_check(L, P, Fraction(3), Fraction(-1, 2), 1, 8).is_zero
    ok = ok and one_parameter_check(
        L, (Fraction(1), Fraction(2), Fraction(0)), Fraction(1, 3), Fraction(2, 3), -2, 6
    ).is_zero
    _report("criterion 8: nilpotent exponential identities (degree 8)", ok)


def test_criterion_09_no_exponential_witness():
    """R = 1: partial sums equal N+1 exactly (N <= 20); R = 0.9: tail is
    Cauchy within 1e-6 by N = 200."""
    L = heisenberg()
    p = Seminorm.ell1(L)
    xi = basis_vector(L, 0)
    rows = ex.no_exponential_witness(L, p, 1.0, xi, 20)
    ok = all(row.partial_sum == row.order + 1 for row in rows)
    tail = ex.no_exponential_witness(L, p, 0.9, xi, 200)
    ok = ok and abs(tail[200].partial_sum - tail[150].partial_sum) < 1e-6
    _report("criterion 9: exponentials escape the R >= 1 completion", ok)


def test_criterion_10_functoriality():
    """lift_hom is a star-morphism exactly for three validated homs."""
    ok = True
    for tag, phi in ex.standard_homs():
        (report,) = ex.functorial_sweep(phi, [(1.0, 1)], n_samples=15)
        if not report.passed:
            ok = False
    _report("criterion 10: functoriality of lifted homomorphisms", ok)
