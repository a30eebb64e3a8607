import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guttstar.liealg import abelian, basis_vector, bracket, heisenberg
from guttstar.pbw import star_pbw
from guttstar.sym import (
    Seminorm,
    SymElement,
    asymptotic_estimate,
    exp_truncated,
    pR_norm,
    pn_norm,
    submultiplicative_scale,
    sym_mul,
)
from guttstar.zpoly import PolyZ

from random_inputs import random_element, random_monomial

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# product / projection / evaluation
# ---------------------------------------------------------------------------


def test_sym_mul_monomials(heis):
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    assert sym_mul(P, Q) == SymElement.monomial(heis, (1, 1, 0))
    one = SymElement.unit(heis)
    x = random_element(heis, random.Random(1), 3)
    assert sym_mul(one, x) == x
    assert sym_mul(P + Q, P - Q) == P**2 - Q**2


def test_basis_refuses_an_index_outside_the_basis(heis):
    assert SymElement.basis(heis, 2) == SymElement.monomial(heis, (0, 0, 1))
    for i in (3, -1, 1.0):
        with pytest.raises(ValueError, match="bad basis index"):
            SymElement.basis(heis, i)


def test_sym_mul_commutative_associative(heis, rng):
    for _ in range(10):
        x = random_element(heis, rng, 3)
        y = random_element(heis, rng, 3)
        w = random_element(heis, rng, 2)
        assert sym_mul(x, y) == sym_mul(y, x)
        assert sym_mul(sym_mul(x, y), w) == sym_mul(x, sym_mul(y, w))


def test_sym_mul_algebra_mismatch(heis):
    other = abelian(3)
    with pytest.raises(ValueError):
        sym_mul(SymElement.basis(heis, 0), SymElement.basis(other, 0))
    with pytest.raises(ValueError, match="different algebras"):
        SymElement.basis(heis, 0) + SymElement.basis(other, 0)


def test_scale_by_zero_is_zero(heis):
    from guttstar.hopf import SymTensorElement, WeylElement
    from guttstar.pbw import PbwElement

    unit = (0, 0, 0)
    for x in (
        SymElement(heis, {(1, 0, 2): 3}),
        PbwElement(heis, {(0, 1): PolyZ.z()}),
        SymTensorElement(heis, {((1, 0, 0), unit): 2}),
        WeylElement(2, {(1, 1): Fraction(1, 2)}),
    ):
        assert x.scale(0).is_zero and x.scale(0) == x - x
        assert x.scale(PolyZ()).is_zero


@pytest.mark.parametrize("alpha", [(1, 0), (1, 0, 0, 0), (1, -1, 0)])
def test_sym_element_rejects_bad_multi_indices(heis, alpha):
    with pytest.raises(ValueError, match="bad multi-index"):
        SymElement(heis, {alpha: 1})


def test_project(heis):
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    E = SymElement.basis(heis, 2)
    x = P**2 + sym_mul(P, Q) + E
    assert x.project(2) == P**2 + sym_mul(P, Q)
    assert x.project(5).is_zero
    assert sum((x.project(n) for n in x.degrees()), SymElement.zero(heis)) == x


def test_project_star_product_degree_one(heis):
    # degree-1 part of P * Q is (z/2)E
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    expected = SymElement(heis, {(0, 0, 1): PolyZ.z(coeff=Fraction(1, 2))})
    assert star_pbw(P, Q).project(1) == expected


def test_evaluate_z(heis):
    pq = SymElement(heis, {(1, 1, 0): 1, (0, 0, 1): PolyZ.z(coeff=Fraction(1, 2))})
    at_one = pq.evaluate_z(1)
    assert at_one == SymElement(heis, {(1, 1, 0): 1, (0, 0, 1): Fraction(1, 2)})
    assert pq.evaluate_z(0) == SymElement(heis, {(1, 1, 0): 1})
    vanishing = SymElement(heis, {(0, 0, 1): PolyZ({2: 1, 1: -1})})
    assert vanishing.evaluate_z(1).is_zero


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def test_pn_norm_examples(heis):
    p = Seminorm.ell1(heis)
    P = SymElement.basis(heis, 0)
    for k in range(6):
        assert pn_norm(p, P**k) == 1
    x = SymElement(heis, {(1, 1, 0): 3, (0, 0, 2): -2})
    assert pn_norm(p, x) == 5
    weighted = Seminorm.ell1(heis, [2, 1, 1])
    assert pn_norm(weighted, SymElement.monomial(heis, (1, 1, 0))) == 2


def test_pn_norm_preconditions(heis):
    p = Seminorm.ell1(heis)
    P = SymElement.basis(heis, 0)
    with pytest.raises(ValueError):
        pn_norm(p, P + P**2)
    with pytest.raises(ValueError):
        pn_norm(p, SymElement(heis, {(1, 0, 0): PolyZ.z()}))


def test_pR_norm_monomial_powers(heis):
    p = Seminorm.ell1(heis)
    P = SymElement.basis(heis, 0)
    for R in (0.0, 0.5, 1.0, 2.0):
        for n in (0, 1, 3, 6):
            assert close(pR_norm(p, R, P**n), math.exp(R * math.lgamma(n + 1)))
    assert pR_norm(p, 1.5, SymElement.zero(heis)) == 0.0


def test_pR_norm_exact_integral_R(heis):
    from guttstar.sym import pR_norm_exact

    p = Seminorm.ell1(heis)
    x = SymElement(heis, {(3, 0, 0): Fraction(1, 2), (1, 1, 0): 2})
    assert pR_norm_exact(p, 2, x) == Fraction(36, 2) + 4 * 2
    assert pR_norm_exact(p, 0, x) == Fraction(5, 2)
    assert float(pR_norm_exact(p, 1, x)) == pR_norm(p, 1, x)


def test_scale_seminorm(heis):
    p = Seminorm.ell1(heis)
    assert p.scale(1) == p
    scaled = p.scale(32)
    assert pn_norm(scaled, SymElement.monomial(heis, (1, 1, 0))) == 1024
    cube = SymElement.monomial(heis, (3, 0, 0))
    assert close(
        pR_norm(p.scale(2), 1.0, cube), 8 * pR_norm(p, 1.0, cube)
    )
    with pytest.raises(ValueError):
        p.scale(0)


def test_submultiplicative_scale(heis):
    assert submultiplicative_scale(heis, Seminorm.ell1(heis)) == 1
    assert submultiplicative_scale(abelian(3), Seminorm.ell1(abelian(3))) == 1
    assert submultiplicative_scale(heis, Seminorm.ell1(heis, [1, 1, 4])) == 4


def test_exp_truncated(heis):
    zero = SymElement.zero(heis)
    assert exp_truncated(zero, 5) == SymElement.unit(heis)
    P = SymElement.basis(heis, 0)
    assert exp_truncated(P, 2) == SymElement.unit(heis) + P + P**2 * Fraction(1, 2)
    both = SymElement.basis(heis, 0) + SymElement.basis(heis, 1)
    e = exp_truncated(both, 4)
    for n in range(5):
        assert e.project(n) == (both**n) * Fraction(1, math.factorial(n))
    with pytest.raises(ValueError):
        exp_truncated(P, -1)


# ---------------------------------------------------------------------------
# seminorm properties
# ---------------------------------------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def homogeneous_pair(draw):
    L = heisenberg()
    degree = draw(st.integers(min_value=0, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        alpha = [0] * 3
        for _ in range(degree):
            alpha[rng.randrange(3)] += 1
        terms[tuple(alpha)] = draw(small_fraction)
    return SymElement(L, terms), degree


@given(data=homogeneous_pair(), scale=small_fraction)
@settings(max_examples=60)
def test_pn_triangle_and_homogeneity(data, scale):
    x, _ = data
    p = Seminorm.ell1(x.algebra, [1, 2, Fraction(1, 3)])
    y = SymElement(
        x.algebra, {a: Fraction(1, 2) for a in dict(x.items())}
    )
    if x.degrees() == y.degrees():
        assert pn_norm(p, x + y) <= pn_norm(p, x) + pn_norm(p, y)
    assert pn_norm(p, x.scale(scale)) == abs(scale) * pn_norm(p, x)


def test_pn_submultiplicative_across_degrees(heis, rng):
    p = Seminorm.ell1(heis, [1, Fraction(1, 2), 3])
    for _ in range(40):
        a = random_monomial(heis, rng, 3)
        b = random_monomial(heis, rng, 3)
        x = SymElement(heis, {a: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))})
        y = SymElement(heis, {b: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))})
        assert pn_norm(p, sym_mul(x, y)) <= pn_norm(p, x) * pn_norm(p, y)


def test_pR_monotone_in_R(heis, rng):
    p = Seminorm.ell1(heis)
    for _ in range(20):
        x = random_element(heis, rng, 4)
        values = [pR_norm(p, R, x) for R in (0.0, 0.5, 1.0, 1.7, 2.0)]
        assert all(a <= b * (1 + REL) for a, b in zip(values, values[1:]))


def test_product_continuity_two_power_bound(heis, rng):
    p = Seminorm.ell1(heis)
    for R in (0.0, 1.0, 1.5):
        two_R = 2.0**R
        for _ in range(15):
            x = random_element(heis, rng, 3)
            y = random_element(heis, rng, 3)
            lhs = pR_norm(p, R, sym_mul(x, y))
            rhs = pR_norm(p, R, x, scale=two_R) * pR_norm(p, R, y, scale=two_R)
            assert lhs <= rhs * (1 + REL)


def _random_bracketing(L, rng, letters):
    # random full binary tree over the letters, evaluated in the algebra
    if len(letters) == 1:
        return basis_vector(L, letters[0])
    split = rng.randint(1, len(letters) - 1)
    return bracket(
        L,
        _random_bracketing(L, rng, letters[:split]),
        _random_bracketing(L, rng, letters[split:]),
    )


def test_asymptotic_estimate_on_random_bracketings(rng):
    from guttstar.liealg import sl2

    for L, weights in ((heisenberg(), [1, 1, 4]), (sl2(), [1, 2, 1])):
        p = Seminorm.ell1(L, weights)
        q = asymptotic_estimate(L, p)
        for _ in range(60):
            n = rng.randint(1, 5)
            letters = [rng.randrange(L.dim) for _ in range(n)]
            value = _random_bracketing(L, rng, letters)
            bound = Fraction(1)
            for i in letters:
                bound *= q.weights[i]
            assert q.vector_norm(value) <= bound
            assert p.vector_norm(value) <= bound
