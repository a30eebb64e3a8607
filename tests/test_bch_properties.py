"""Property tests of the BCH route against the star_pbw oracle, on random
valid nilpotent algebras of dimension 3-5 and on sl2."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from guttstar.bch import (
    bch_ab,
    bernoulli_star,
    dynkin_bracket,
    log_expansion,
    star_bch,
    star_linear,
)
from guttstar.liealg import make_algebra, sl2, validate
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
structure_constants = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def nilpotent_algebras(draw):
    """Strictly upper-triangular brackets [e_i, e_j] in span(e_k : k > j),
    kept only when they satisfy the Jacobi identity."""
    dim = draw(st.integers(3, 5))
    brackets = {
        (i, j): {k: draw(structure_constants) for k in range(j + 1, dim)}
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    L = make_algebra(dim, tuple(f"e{i}" for i in range(dim)), brackets)
    assume(validate(L))
    return L


algebras = st.one_of(st.just(sl2()), nilpotent_algebras())


def vectors(L):
    return st.tuples(*[rationals] * L.dim)


@st.composite
def power_pairs(draw):
    """(L, xi, k, eta, l) with k + l <= 6, either exponent possibly 0."""
    L = draw(algebras)
    k = draw(st.integers(0, 6))
    l = draw(st.integers(0, 6 - k))
    return L, draw(vectors(L)), k, draw(vectors(L)), l


H, E, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@given(case=power_pairs())
@example(case=(sl2(), (1, 2, 0), 0, (0, 1, -1), 3))
@example(case=(sl2(), (1, 2, 0), 4, (0, 1, -1), 0))
@example(case=(sl2(), E, 0, F, 0))
@settings(deadline=None)
def test_star_bch_matches_star_pbw(case):
    L, xi, k, eta, l = case
    x = SymElement.from_vector(L, xi) ** k
    y = SymElement.from_vector(L, eta) ** l
    assert star_bch(L, xi, k, eta, l) == star_pbw(x, y)


# sl2 on the basis (H/3, E, F/2): every structure constant is non-integral
RATIONAL_SL2 = make_algebra(
    3,
    ("H", "E", "F"),
    {(0, 1): {1: Fraction(2, 3)}, (0, 2): {2: Fraction(-2, 3)}, (1, 2): {0: Fraction(3, 2)}},
)
coprime_components = st.sampled_from(
    [0, Fraction(1, 7), Fraction(5, 9), Fraction(-3, 7), Fraction(-2, 9), 1]
)


@st.composite
def coprime_power_pairs(draw):
    """(L, xi, k, eta, l) with k + l <= 5 and components over 7 and 9, so the
    two vectors' common denominators are coprime; zero vectors included."""
    L = draw(st.one_of(st.just(RATIONAL_SL2), algebras))
    k = draw(st.integers(0, 5))
    l = draw(st.integers(0, 5 - k))
    vector = st.tuples(*[coprime_components] * L.dim)
    return L, draw(vector), k, draw(vector), l


@given(case=coprime_power_pairs())
@example(case=(RATIONAL_SL2, (Fraction(1, 7), Fraction(5, 9), 0), 3, (0, Fraction(5, 9), Fraction(-3, 7)), 2))
@example(case=(RATIONAL_SL2, (0, 0, 0), 2, (Fraction(1, 7), 0, Fraction(5, 9)), 2))
@example(case=(sl2(), (Fraction(1, 7), 0, 1), 2, (0, 0, 0), 3))
@settings(deadline=None)
def test_bch_route_on_coprime_denominators(case):
    L, xi, k, eta, l = case
    x = SymElement.from_vector(L, xi) ** k
    y = SymElement.from_vector(L, eta) ** l
    assert star_bch(L, xi, k, eta, l) == star_pbw(x, y)
    assert star_linear(x, eta) == star_pbw(x, SymElement.from_vector(L, eta))


@st.composite
def elements_and_vectors(draw):
    """A random element of degree <= 4 with z-dependent coefficients, and a vector."""
    L = draw(algebras)
    multi_indices = st.tuples(*[st.integers(0, 2)] * L.dim).filter(lambda a: sum(a) <= 4)
    polys = st.dictionaries(st.integers(0, 2), rationals, max_size=2).map(PolyZ)
    x = SymElement(L, draw(st.dictionaries(multi_indices, polys, max_size=3)))
    return x, draw(vectors(L))


@given(case=elements_and_vectors())
@settings(deadline=None)
def test_star_linear_matches_star_pbw(case):
    x, eta = case
    assert star_linear(x, eta) == star_pbw(x, SymElement.from_vector(x.algebra, eta))


@st.composite
def bidegree_cases(draw):
    L = draw(algebras)
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0 if a else 1, 6 - a))
    return L, a, b, draw(vectors(L)), draw(vectors(L))


@given(case=bidegree_cases())
@example(case=(sl2(), 3, 2, H, E))
@settings(deadline=None)
def test_bch_ab_matches_definitional_sum(case):
    """The oracle brackets every word of bidegree (a, b) on its own."""
    L, a, b, xi, eta = case
    n = a + b
    expected = [Fraction(0)] * L.dim
    for word, g in log_expansion(n).bidegree_slice(a, b).items():
        for i, c in enumerate(dynkin_bracket(L, word, xi, eta)):
            expected[i] += g / n * c
    assert bch_ab(L, a, b, xi, eta) == tuple(expected)


def test_bernoulli_star_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = bernoulli_star(120)
    for n in range(121):
        value = sympy.bernoulli(n)
        assert table[n] == Fraction(int(value.p), int(value.q)), n
