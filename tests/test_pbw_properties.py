"""Property tests of the PBW route, mostly on algebras with non-integral
structure constants, where the kernel and the Q memo run on Fraction
coefficients instead of int: random valid nilpotent algebras of dimension
3-5 and rational rescalings of sl2.  The memo tests add integral algebras
and sl2."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guttstar import pbw
from guttstar.experiments import monomial_pairs
from guttstar.liealg import bracket, filiform4, heisenberg, make_algebra, sl2
from guttstar.pbw import PbwElement, _context, pbw_mul, q_z, q_z_inv, star_graded, star_pbw
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

from random_inputs import nilpotent_algebras, rescaled_sl2
from test_pbw import brute_normal_order

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_rationals = rationals.filter(bool)
STRUCTURE_CONSTANTS = [0, 1, -1, Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(1, 7)]


algebras = st.one_of(nilpotent_algebras(STRUCTURE_CONSTANTS, non_integral=True), rescaled_sl2())


def elements(L, coefficients, max_degree=3):
    multi_indices = st.tuples(*[st.integers(0, 2)] * L.dim).filter(
        lambda a: sum(a) <= max_degree
    )
    return st.dictionaries(multi_indices, coefficients, max_size=3).map(
        lambda terms: SymElement(L, terms)
    )


@st.composite
def element_pairs(draw):
    L = draw(algebras)
    return draw(elements(L, rationals)), draw(elements(L, rationals))


@given(case=element_pairs())
@settings(deadline=None)
def test_star_pbw_matches_definition_and_star_graded(case):
    x, y = case
    product = star_pbw(x, y)
    assert product == q_z_inv(pbw_mul(q_z(x), q_z(y)))
    assert product == star_graded(x, y)


@st.composite
def vector_pairs(draw):
    L = draw(algebras)
    xi, eta = (draw(st.tuples(*[rationals] * L.dim)) for _ in range(2))
    return L, xi, eta


@given(case=vector_pairs())
@settings(deadline=None)
def test_star_commutator_of_vectors_is_z_bracket(case):
    """xi * eta - eta * xi = z [xi, eta], with the bracket taken from the
    structure constants, not from the kernel."""
    L, xi, eta = case
    x, y = SymElement.from_vector(L, xi), SymElement.from_vector(L, eta)
    z_bracket = SymElement.from_vector(L, bracket(L, xi, eta)).scale(PolyZ.z())
    assert star_pbw(x, y) - star_pbw(y, x) == z_bracket


@st.composite
def z_dependent_elements(draw):
    L = draw(algebras)
    polys = st.dictionaries(st.integers(0, 2), rationals, max_size=2).map(PolyZ)
    return draw(elements(L, polys, max_degree=4))


@given(x=z_dependent_elements())
@settings(deadline=None)
def test_q_z_inv_inverts_q_z(x):
    assert q_z_inv(q_z(x)) == x


@st.composite
def monomials(draw):
    L = draw(algebras)
    alpha = draw(st.tuples(*[st.integers(0, 4)] * L.dim).filter(lambda a: sum(a) <= 4))
    return L, alpha


@given(case=monomials())
@settings(deadline=None)
def test_q_z_matches_permutation_sum(case):
    """q(xi^alpha) = (1/n!) sum over the orderings sigma of the letters of
    normal_order(e_sigma(1) ... e_sigma(n))."""
    L, alpha = case
    letters = [i for i, a in enumerate(alpha) for _ in range(a)]
    kernel = _context(L).kernel
    expected = {}
    for perm in itertools.permutations(letters):
        for (w, e), c in kernel.normal_order(perm).items():
            slot = expected.setdefault(w, {})
            slot[e] = slot.get(e, 0) + Fraction(c, math.factorial(len(letters)))
    terms = {w: PolyZ(c) for w, c in expected.items()}
    assert dict(q_z(SymElement.monomial(L, alpha)).items()) == {
        w: c for w, c in terms.items() if c
    }


@st.composite
def unit_monomial_pairs(draw):
    L = draw(st.one_of(algebras, st.just(sl2())))
    index = st.tuples(*[st.integers(0, 2)] * L.dim).filter(lambda a: sum(a) <= 3)
    c = draw(nonzero_rationals.filter(lambda v: v != 1))
    return L, draw(index), draw(index), c


@given(case=unit_monomial_pairs())
@settings(deadline=None)
def test_unit_monomial_products_are_served_from_the_memo_unshared(case):
    """Unit monomials and a coefficient c != 1 read the same star memo entry
    and agree.  The entry is immutable, so the result shares no mutable dict
    with the memo: using it, even writing to its terms, leaves the memo as it
    was."""
    L, alpha, beta, c = case
    x, y = SymElement.monomial(L, alpha), SymElement.monomial(L, beta)
    product = star_pbw(x, y)
    assert product == star_pbw(x.scale(c), y).scale(1 / c)
    assert star_pbw(x, y) == product
    ctx = _context(L)
    hash(ctx.star_cache[(alpha, beta)])  # immutable all the way down
    before = dict(ctx.star_cache)
    used = (product + product.scale(c)).evaluate_z(c) + product.evaluate_z(c)
    assert used == product.scale(1 + c).evaluate_z(c) + product.evaluate_z(c)
    product._terms.clear()
    assert ctx.star_cache == before
    assert star_pbw(x, y) == star_pbw(x.scale(c), y).scale(1 / c)


def _monomial_products(L, degree):
    """star_pbw of every pair of monomials up to the degree, and the largest
    size the star memo reached on the way."""
    indices = [a for a in itertools.product(range(degree + 1), repeat=L.dim) if sum(a) <= degree]
    ctx = _context(L)
    products, largest = {}, 0
    for alpha in indices:
        for beta in indices:
            x, y = SymElement.monomial(L, alpha), SymElement.monomial(L, beta)
            products[alpha, beta] = star_pbw(x, y)
            largest = max(largest, len(ctx.star_cache))
    # a product of sums clears the memo between its own pairs
    low = [a for a in indices if sum(a) <= 2]
    x = SymElement(L, {a: k + 1 for k, a in enumerate(low)})
    products["sums"] = star_pbw(x, x.scale(-1) + SymElement.unit(L, 3))
    return products, max(largest, len(ctx.star_cache))


@given(L=nilpotent_algebras([0, 1, -1, 2]))
@settings(deadline=None, max_examples=2)
def test_star_memo_stays_within_its_cap_and_products_do_not_change(L):
    """With the cap at 8, every monomial pair to degree 4 (on sl2 and on a
    drawn nilpotent algebra) keeps the star memo at or below 8 entries, the
    memo does fill up, and every product equals the one computed with the
    cap lifted."""
    for algebra in (sl2(), L):
        runs = []
        for cap in (sys.maxsize, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pbw, "_contexts", {})
                mp.setattr(pbw, "STAR_MEMO_CAP", cap)
                runs.append(_monomial_products(algebra, 4))
        (lifted, _), (capped, largest) = runs
        assert largest == 8
        assert capped == lifted



def test_inverse_memo_holds_one_row_per_sorted_word():
    """A cold star_pbw over every monomial pair to total degree D leaves at
    most one inverse row per sorted word of length at most D, that is
    comb(D + dim, dim) rows however many pairs ran, and q_z of each row's
    element is its word, for integral and rational structure constants."""
    rational_sl2 = make_algebra(
        3,
        ("H", "E", "F"),
        {(0, 1): {1: Fraction(2, 3)}, (0, 2): {2: Fraction(-2, 3)}, (1, 2): {0: Fraction(1, 2)}},
    )
    for L, degree in ((sl2(), 6), (heisenberg(), 7), (filiform4(), 5), (rational_sl2, 5)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pbw, "_contexts", {})
            for alpha, beta in monomial_pairs(L, degree):
                star_pbw(SymElement.monomial(L, alpha), SymElement.monomial(L, beta))
            rows = _context(L).inv_cache
        assert len(rows) <= math.comb(degree + L.dim, L.dim)
        for word, (denom, row) in rows.items():
            element = SymElement._raw(L, {key: Fraction(n, denom) for key, n in row.items()})
            assert q_z(element) == PbwElement(L, {word: 1})

memo_algebras = st.one_of(
    nilpotent_algebras([0, 1, -1, 2]), st.just(sl2()), rescaled_sl2(), algebras
)


@st.composite
def memo_cases(draw):
    L = draw(memo_algebras)
    index = st.tuples(*[st.integers(0, 2)] * L.dim).filter(lambda a: sum(a) <= 4)
    return L, draw(index), draw(index)


@given(case=memo_cases())
@settings(deadline=None)
def test_star_memo_holds_reduced_integer_numerators_of_the_definition(case):
    """A star memo entry is (D, (((gamma, e), n), ...)) with n / D the
    coefficient of z^e xi^gamma in q_z^{-1}(q_z(xi^alpha) q_z(xi^beta)); for
    rational structure constants as for integral ones, D and every n are ints
    without a common factor."""
    L, alpha, beta = case
    x, y = SymElement.monomial(L, alpha), SymElement.monomial(L, beta)
    star_pbw(x.scale(2), y)
    denom, terms = _context(L).star_cache[(alpha, beta)]
    assert all(type(v) is int for v in (denom, *(n for _, n in terms)))
    assert math.gcd(denom, *(n for _, n in terms)) == 1
    entry = {}
    for (gamma, e), n in terms:
        entry.setdefault(gamma, {})[e] = Fraction(n, denom)
    assert SymElement(L, {g: PolyZ(c) for g, c in entry.items()}) == q_z_inv(
        pbw_mul(q_z(x), q_z(y))
    )


@st.composite
def z_dependent_pairs(draw):
    L = draw(memo_algebras)
    polys = st.dictionaries(st.integers(0, 2), nonzero_rationals, min_size=1, max_size=2)
    return L, *(draw(elements(L, polys.map(PolyZ), max_degree=3)) for _ in range(2))


@given(case=z_dependent_pairs())
@settings(deadline=None)
def test_star_pbw_is_the_bilinear_sum_of_monomial_products(case):
    """The integer accumulation over several memo entries and z-shifts equals
    the sum of the unit monomial products scaled by the coefficients."""
    L, x, y = case
    expected = SymElement.zero(L)
    for alpha, ca in x.items():
        for beta, cb in y.items():
            unit = star_pbw(SymElement.monomial(L, alpha), SymElement.monomial(L, beta))
            expected = expected + unit.scale(ca * cb)
    assert star_pbw(x, y) == expected


@st.composite
def algebra_words(draw):
    L = draw(st.one_of(nilpotent_algebras(STRUCTURE_CONSTANTS), st.just(sl2()), rescaled_sl2()))
    return L, tuple(draw(st.lists(st.integers(0, L.dim - 1), max_size=5)))


@given(case=algebra_words())
@settings(deadline=None)
def test_kernel_normal_order_matches_rewriting_oracle_and_counts_brackets(case):
    """The kernel's normal form of a word equals leftmost-descent rewriting,
    and each term's bracket count e is the length the word lost."""
    L, word = case
    terms = _context(L).kernel.normal_order(word)
    assert all(e == len(word) - len(w) for w, e in terms)
    grouped = {}
    for (w, e), c in terms.items():
        grouped.setdefault(w, {})[e] = c
    assert grouped == brute_normal_order(L, word)
