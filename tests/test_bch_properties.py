"""Property tests of the BCH route against the star_pbw oracle, on random
valid nilpotent algebras of dimension 3-5, on sl2 and on rational rescalings
of sl2."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guttstar.bch import (
    bch_ab,
    bch_tilde,
    bernoulli_star,
    dynkin_bracket,
    log_expansion,
    star_bch,
    star_bch_elements,
    star_linear,
)
from guttstar.liealg import bracket, filiform4, heisenberg, make_algebra, sl2
from guttstar.pbw import star_graded, star_pbw
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

from random_inputs import nilpotent_algebras, rescaled_sl2

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
STRUCTURE_CONSTANTS = [0, 0, 1, -1, 2, Fraction(1, 2)]


algebras = st.one_of(st.just(sl2()), nilpotent_algebras(STRUCTURE_CONSTANTS))


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


@st.composite
def deep_power_pairs(draw):
    """(L, xi, k, eta, l) on a nilpotent algebra with 13 <= k + l <= 20, past
    the longest word the free series is built for; xi and eta have at most
    two nonzero entries each, as dense vectors expand the PBW side into
    about 10^6 pairs of monomials."""
    L = draw(nilpotent_algebras(STRUCTURE_CONSTANTS))
    n = draw(st.integers(13, 20))
    k = draw(st.integers(0, n))
    sparse = st.dictionaries(st.integers(0, L.dim - 1), rationals, max_size=2).map(
        lambda entries: tuple(entries.get(i, 0) for i in range(L.dim))
    )
    return L, draw(sparse), k, draw(sparse), n - k


@given(case=deep_power_pairs())
@example(case=(heisenberg(), (1, 0, 0), 24, (0, 1, 0), 24))
@example(case=(filiform4(), (1, 0, 0, 0), 16, (0, 1, 0, 0), 16))
@settings(deadline=None)
def test_star_bch_matches_star_pbw_past_degree_12_on_nilpotent_algebras(case):
    L, xi, k, eta, l = case
    x = SymElement.from_vector(L, xi) ** k
    y = SymElement.from_vector(L, eta) ** l
    assert star_bch(L, xi, k, eta, l) == star_pbw(x, y)


def test_star_bch_past_degree_12_needs_a_nilpotent_algebra():
    with pytest.raises(ValueError, match=r"k \+ l = 13\b.*not nilpotent"):
        star_bch(sl2(), H, 7, E, 6)


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
    for word, g in log_expansion(n).items():
        if len(word) != n or word.count("X") != a:
            continue
        for i, c in enumerate(dynkin_bracket(L, word, xi, eta)):
            expected[i] += g / n * c
    assert bch_ab(L, a, b, xi, eta) == tuple(expected)


# ---------------------------------------------------------------------------
# products of monomials and of general elements, by polarization
# ---------------------------------------------------------------------------

mixed_algebras = st.one_of(algebras, rescaled_sl2())


@st.composite
def monomial_pairs(draw):
    """(L, alpha, beta) with |alpha| + |beta| <= 6: up to six letters, the
    first k of them forming alpha."""
    L = draw(mixed_algebras)
    letters = draw(st.lists(st.integers(0, L.dim - 1), max_size=6))
    k = draw(st.integers(0, len(letters)))
    alpha, beta = [0] * L.dim, [0] * L.dim
    for t, i in enumerate(letters):
        (alpha if t < k else beta)[i] += 1
    return L, tuple(alpha), tuple(beta)


@given(case=monomial_pairs())
@example(case=(sl2(), (1, 1, 1), (0, 2, 1)))
@example(case=(sl2(), (0, 0, 0), (2, 0, 1)))
@settings(deadline=None)
def test_star_bch_elements_matches_star_pbw_on_monomials(case):
    L, alpha, beta = case
    x, y = SymElement.monomial(L, alpha), SymElement.monomial(L, beta)
    assert star_bch_elements(x, y) == star_pbw(x, y)


@st.composite
def element_pairs(draw, coefficients):
    """Two elements with up to three terms of degree <= 3 each."""
    L = draw(mixed_algebras)
    multi_indices = st.tuples(*[st.integers(0, 2)] * L.dim).filter(lambda a: sum(a) <= 3)
    terms = st.dictionaries(multi_indices, coefficients, max_size=3)
    return SymElement(L, draw(terms)), SymElement(L, draw(terms))


@given(case=element_pairs(rationals))
@settings(deadline=None)
def test_star_bch_elements_matches_star_pbw_on_elements(case):
    x, y = case
    assert star_bch_elements(x, y) == star_pbw(x, y)


@given(case=element_pairs(st.dictionaries(st.integers(0, 2), rationals, max_size=2).map(PolyZ)))
@settings(deadline=None)
def test_the_three_routes_agree_on_z_dependent_elements(case):
    x, y = case
    assert star_bch_elements(x, y) == star_graded(x, y) == star_pbw(x, y)


def bch_tilde_by_permutations(L, xis, etas):
    """The definition of bch_tilde: the average over the orderings of each
    block of sum_w (g_w/n) [w], the letters of w filled in that order."""
    a, b = len(xis), len(etas)
    n = a + b
    scale = Fraction(1, math.factorial(a) * math.factorial(b) * n)
    total = [Fraction(0)] * L.dim
    for word, g in log_expansion(n).items():
        if len(word) != n or word.count("X") != a:
            continue
        for px in itertools.permutations(xis):
            for py in itertools.permutations(etas):
                fill = {"X": iter(px), "Y": iter(py)}
                letters = [next(fill[ch]) for ch in word]
                val = letters[0]
                for v in letters[1:]:
                    val = bracket(L, val, v)
                for i, c in enumerate(val):
                    total[i] += g * scale * c
    return tuple(total)


@st.composite
def tilde_blocks(draw):
    """(L, xis, etas) with 1 <= a + b <= 5 and a, b <= 3."""
    L = draw(mixed_algebras)
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0 if a else 1, min(3, 5 - a)))
    xis = [draw(vectors(L)) for _ in range(a)]
    etas = [draw(vectors(L)) for _ in range(b)]
    return L, xis, etas


@given(case=tilde_blocks())
@settings(deadline=None)
def test_bch_tilde_matches_permutation_definition(case):
    L, xis, etas = case
    assert bch_tilde(L, xis, etas) == bch_tilde_by_permutations(L, xis, etas)


@given(case=tilde_blocks(), data=st.data())
@settings(deadline=None)
def test_bch_tilde_is_symmetric_in_each_block(case, data):
    L, xis, etas = case
    xis_perm = data.draw(st.permutations(xis))
    etas_perm = data.draw(st.permutations(etas))
    assert bch_tilde(L, xis_perm, etas_perm) == bch_tilde(L, xis, etas)


def test_bernoulli_star_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = bernoulli_star(120)
    for n in range(121):
        value = sympy.bernoulli(n)
        assert table[n] == Fraction(int(value.p), int(value.q)), n
