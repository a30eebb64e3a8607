"""Property tests of the one-pass seminorms and the trusted derived elements
against their per-degree definitions, on random valid nilpotent algebras of
dimension 3-5 and on sl2, with non-uniform rational weights."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from guttstar.hopf import (
    SymTensorElement,
    WeylElement,
    coproduct,
    tensor_pR,
    weyl_lift,
    weyl_project,
)
from guttstar.liealg import make_algebra, sl2
from guttstar.sym import (
    Seminorm,
    SymElement,
    factorial_power_exact,
    graded_term,
    pn_norm,
    pR_norm,
    pR_norm_exact,
)
from guttstar.zpoly import PolyZ

from random_inputs import nilpotent_algebras

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
nonzero_rationals = rationals.filter(bool)
positive_rationals = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7).filter(
    lambda w: w > 0
)
STRUCTURE_CONSTANTS = [0, 0, 1, -1, 2, Fraction(1, 2)]
R_values = st.sampled_from([0, 0.5, 1, 1.5, 2])
scales = st.sampled_from([0.5, 2.0, 3.0, 32.0, 16 * math.e])


algebras = st.one_of(st.just(sl2()), nilpotent_algebras(STRUCTURE_CONSTANTS))


@st.composite
def seminorms(draw, L):
    weights = draw(st.lists(positive_rationals, min_size=L.dim, max_size=L.dim))
    assume(len(set(weights)) > 1)
    return Seminorm(L, tuple(weights))


def multi_indices(L, max_degree=6):
    return st.tuples(*[st.integers(0, 3)] * L.dim).filter(lambda a: sum(a) <= max_degree)


def z_polys():
    return st.dictionaries(st.integers(0, 3), nonzero_rationals, min_size=1, max_size=3).map(PolyZ)


def elements(L, coefficients):
    return st.dictionaries(multi_indices(L), coefficients, max_size=8).map(
        lambda terms: SymElement(L, terms)
    )


@st.composite
def norm_cases(draw):
    L = draw(algebras)
    return draw(seminorms(L)), draw(R_values), draw(elements(L, nonzero_rationals)), draw(scales)


# ---------------------------------------------------------------------------
# oracles: the per-degree definitions
# ---------------------------------------------------------------------------


def weight(p, alpha):
    out = Fraction(1)
    for w, a in zip(p.weights, alpha):
        out *= w**a
    return out


def degree_parts(p, x):
    """{n: sum_{|alpha| = n} |c_alpha| w^alpha}"""
    parts = {}
    for alpha, c in x.items():
        n = sum(alpha)
        parts[n] = parts.get(n, Fraction(0)) + abs(c.constant_value()) * weight(p, alpha)
    return parts


def evaluate(c, z0):
    return sum((v * z0**e for e, v in c.items()), Fraction(0))


def has_fraction_coefficients(terms):
    return all(isinstance(v, Fraction) for _, c in terms for _, v in c.items())


# ---------------------------------------------------------------------------
# seminorms on Sym(g)
# ---------------------------------------------------------------------------


@given(case=norm_cases())
@settings(deadline=None)
def test_pR_norm_is_the_sum_of_graded_terms_in_degree_order(case):
    p, R, x, scale = case
    parts = degree_parts(p, x)
    expected = 0.0
    for n in sorted(parts):
        expected += graded_term(n, R, parts[n], scale)
    assert pR_norm(p, R, x, scale) == expected
    assert pR_norm(p, R, x) == sum(
        (graded_term(n, R, parts[n]) for n in sorted(parts)), 0.0
    )


@given(case=norm_cases())
@settings(deadline=None)
def test_pR_norm_exact_and_pn_norm_match_the_definition(case):
    p, R, x, _ = case
    parts = degree_parts(p, x)
    for k in (0, 1, 2):
        assert pR_norm_exact(p, k, x) == sum(
            (factorial_power_exact(n, k) * v for n, v in parts.items()), Fraction(0)
        )
    for n in range(8):
        assert pn_norm(p, x.project(n)) == parts.get(n, 0)
    if len(parts) > 1:
        with pytest.raises(ValueError):
            pn_norm(p, x)


@given(
    n=st.integers(0, 40),
    R=st.sampled_from([-1, 0, 1, 2, 3, 2.0]),
    part=st.fractions(min_value=0, max_value=10**400, max_denominator=10**6),
    scale=st.sampled_from([1.0, 0.5, 32.0]),
)
def test_graded_term_integral_R_matches_exact_rational_form(n, R, part, scale):
    try:
        expected = (scale**n) * float(factorial_power_exact(n, int(R)) * part) if part else 0.0
    except OverflowError:
        expected = math.inf
    assert graded_term(n, R, part, scale) == expected


@st.composite
def z_dependent_cases(draw):
    L = draw(algebras)
    x = draw(elements(L, z_polys()))
    assume(not x.is_z_constant)
    return L, draw(seminorms(L)), x


@given(case=z_dependent_cases())
@settings(deadline=None)
def test_z_dependent_inputs_raise(case):
    L, p, x = case
    with pytest.raises(ValueError):
        pR_norm(p, 1.0, x)
    with pytest.raises(ValueError):
        pR_norm_exact(p, 1, x)
    n = next(sum(a) for a, c in x.items() if not c.is_constant)
    with pytest.raises(ValueError):
        pn_norm(p, x.project(n))


# ---------------------------------------------------------------------------
# derived elements built through the trusted constructor
# ---------------------------------------------------------------------------


@st.composite
def derived_cases(draw):
    L = draw(algebras)
    return L, draw(elements(L, z_polys())), draw(rationals)


@given(case=derived_cases())
@settings(deadline=None)
def test_project_evaluate_z_and_z_coefficient_match_checked_construction(case):
    L, x, z0 = case
    for n in range(8):
        assert x.project(n) == SymElement(L, {a: c for a, c in x.items() if sum(a) == n})
        coefficient = x.z_coefficient(n)
        assert coefficient == SymElement(L, {a: c.coeff(n) for a, c in x.items()})
        assert has_fraction_coefficients(coefficient.items())
    value = x.evaluate_z(z0)
    assert value == SymElement(L, {a: evaluate(c, z0) for a, c in x.items()})
    assert has_fraction_coefficients(value.items())
    for _, c in x.items():
        assert c.evaluate(z0) == evaluate(c, z0)


# ---------------------------------------------------------------------------
# Weyl quotient and tensor norms
# ---------------------------------------------------------------------------


@st.composite
def weyl_cases(draw):
    s = draw(nonzero_rationals)
    L = make_algebra(3, ("P", "Q", "E"), {(0, 1): {2: s}})
    x = draw(elements(L, st.one_of(nonzero_rationals, z_polys())))
    return L, x, draw(rationals), draw(rationals)


@given(case=weyl_cases(), R=R_values, scale=scales, data=st.data())
@settings(deadline=None)
def test_weyl_project_evaluate_and_norm_match_definitions(case, R, scale, data):
    L, x, central, z0 = case
    expected = {}
    for (p_exp, q_exp, e_exp), c in x.items():
        key = (q_exp, p_exp)
        expected[key] = expected.get(key, PolyZ()) + c * central**e_exp
    w = weyl_project(x, central)
    assert w == WeylElement(central, expected)
    value = w.evaluate_z(z0)
    assert value == WeylElement(central, {k: evaluate(c, z0) for k, c in w.items()})
    assert has_fraction_coefficients(value.items())

    p = data.draw(seminorms(L))
    parts = {}
    for (k, l), c in value.items():
        part = abs(c.constant_value()) * p.weights[1] ** k * p.weights[0] ** l
        parts[k + l] = parts.get(k + l, 0) + part
    total = 0.0
    for n in sorted(parts):
        total += graded_term(n, R, parts[n], scale)
    assert pR_norm(p, R, weyl_lift(L, value), scale) == total
    if not all(c.is_constant for _, c in w.items()):
        with pytest.raises(ValueError):
            pR_norm(p, R, weyl_lift(L, w), scale)


@given(case=norm_cases())
@settings(deadline=None)
def test_tensor_pR_matches_definition_in_term_order(case):
    p, R, x, scale = case
    t = coproduct(x)
    total = 0.0
    for (a, b), c in t.items():
        part = abs(c.constant_value()) * weight(p, a) * weight(p, b)
        total += graded_term(sum(b), R, Fraction(1), scale) * graded_term(sum(a), R, part, scale)
    assert tensor_pR(p, R, t, scale) == total
    one = tuple([1] + [0] * (x.algebra.dim - 1))
    with pytest.raises(ValueError):
        tensor_pR(p, R, SymTensorElement(x.algebra, {(one, one): PolyZ.z()}), scale)
