"""PBW layer tests, checked against an independent brute-force oracle.

The oracle normal-orders words by repeatedly rewriting the leftmost descent
(an iterative work-list, unlike the package's memoized insertion recursion)
and computes the symmetrization map by enumerating all n! permutations.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from guttstar.kernel import PbwKernel
from guttstar.liealg import abelian, heisenberg, make_hom, sl2
from guttstar.pbw import (
    PbwElement,
    _context,
    lift_hom,
    pbw_mul,
    q_z,
    q_z_inv,
    star,
    star_graded,
    star_pbw,
)
from guttstar.sym import SymElement, sym_mul
from guttstar.zpoly import PolyZ

from random_inputs import random_element, random_monomial

# ---------------------------------------------------------------------------
# normal-ordering kernel
# ---------------------------------------------------------------------------


def kernel_rows(L):
    """The kernel's bracket rows with the algebra's Fraction constants."""
    rows = {}
    for i in range(L.dim):
        for j in range(L.dim):
            if i != j:
                row = tuple(sorted(L.basis_bracket(i, j).items()))
                if row:
                    rows[(i, j)] = row
    return rows


def test_kernel_basic_rewrite():
    L = heisenberg()
    k = PbwKernel(L.dim, kernel_rows(L))
    # e_Q e_P -> e_P e_Q - z e_E: the bracket term carries one bracket count
    assert k.normal_order((1, 0)) == {
        ((0, 1), 0): Fraction(1),
        ((2,), 1): Fraction(-1),
    }


def test_insert_results_are_not_mutated():
    L = sl2()
    k = PbwKernel(L.dim, kernel_rows(L))
    first = k.insert(2, (0, 1))
    snapshot = dict(first)
    # exercise overlapping computations, then re-check the memoized value
    k.word_mul((2, 2), (0, 0, 1, 1))
    k.normal_order((2, 1, 0))
    assert k.insert(2, (0, 1)) == snapshot


def coefficient_types(raw):
    return {type(c) for c in raw.values()}


def test_integral_constants_stay_int_inside_and_fraction_outside():
    """Integral structure constants keep the kernel and the Q(alpha) memo on
    int; the public maps still return Fraction coefficients only."""
    for L in (heisenberg(), sl2()):
        x = SymElement(L, {(1, 2, 0): Fraction(1, 3), (0, 1, 1): 2})
        y = SymElement(L, {(2, 0, 1): Fraction(-5, 7), (1, 0, 0): 1})
        product = star_pbw(x, y)
        image = q_z(product)
        assert q_z_inv(image) == product
        ctx = _context(L)
        assert ctx.q_cache
        for raw in ctx.q_cache.values():
            assert coefficient_types(raw) == {int}
        for letter in range(L.dim):
            for n in range(4):
                for word in itertools.combinations_with_replacement(range(L.dim), n):
                    assert coefficient_types(ctx.kernel.insert(letter, word)) <= {int}
        for element in (product, q_z_inv(image)):
            assert {type(c) for _, p in element.items() for _, c in p.items()} == {Fraction}
        assert {type(c) for _, p in image.items() for _, c in p.items()} == {Fraction}


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_normal_order(L, word):
    """{sorted word: {z_exp: Fraction}} via leftmost-descent rewriting."""
    pending = {tuple(word): {0: Fraction(1)}}
    done = {}
    while pending:
        nxt = {}
        for w, coeff in pending.items():
            descent = next(
                (t for t in range(len(w) - 1) if w[t] > w[t + 1]), None
            )
            if descent is None:
                slot = done.setdefault(w, {})
                for e, c in coeff.items():
                    slot[e] = slot.get(e, Fraction(0)) + c
                continue
            a, b = w[descent], w[descent + 1]
            swapped = w[:descent] + (b, a) + w[descent + 2 :]
            slot = nxt.setdefault(swapped, {})
            for e, c in coeff.items():
                slot[e] = slot.get(e, Fraction(0)) + c
            for k, s in L.basis_bracket(a, b).items():
                contracted = w[:descent] + (k,) + w[descent + 2 :]
                slot = nxt.setdefault(contracted, {})
                for e, c in coeff.items():
                    slot[e + 1] = slot.get(e + 1, Fraction(0)) + c * s
        pending = {
            w: {e: c for e, c in coeff.items() if c}
            for w, coeff in nxt.items()
        }
        pending = {w: coeff for w, coeff in pending.items() if coeff}
    return {
        w: {e: c for e, c in coeff.items() if c}
        for w, coeff in done.items()
        if any(coeff.values())
    }


def brute_q(L, alpha):
    """Symmetrization by full permutation enumeration."""
    letters = [i for i, a in enumerate(alpha) for _ in range(a)]
    n = len(letters)
    acc = {}
    for perm in itertools.permutations(letters):
        for w, coeff in brute_normal_order(L, perm).items():
            slot = acc.setdefault(w, {})
            for e, c in coeff.items():
                slot[e] = slot.get(e, Fraction(0)) + c
    scale = Fraction(1, math.factorial(n))
    out = {}
    for w, coeff in acc.items():
        cleaned = {e: c * scale for e, c in coeff.items() if c}
        if cleaned:
            out[w] = cleaned
    return out if out else {(): {}}


def as_pbw(L, raw):
    return PbwElement(L, {w: PolyZ(c) for w, c in raw.items()})


def all_monomials(L, max_degree):
    def of_degree(d):
        for combo in itertools.combinations_with_replacement(range(L.dim), d):
            alpha = [0] * L.dim
            for i in combo:
                alpha[i] += 1
            yield tuple(alpha)

    for d in range(max_degree + 1):
        yield from of_degree(d)


def test_q_z_matches_brute_force_enumeration():
    for L in (heisenberg(), sl2()):
        for alpha in all_monomials(L, 4):
            expected = as_pbw(L, brute_q(L, alpha))
            assert q_z(SymElement.monomial(L, alpha)) == expected, alpha


def test_pbw_mul_matches_brute_force(rng):
    for L in (heisenberg(), sl2()):
        for _ in range(25):
            u = tuple(sorted(rng.randrange(L.dim) for _ in range(rng.randint(0, 4))))
            v = tuple(sorted(rng.randrange(L.dim) for _ in range(rng.randint(0, 4))))
            lhs = pbw_mul(
                PbwElement(L, {u: 1}), PbwElement(L, {v: 1})
            )
            assert lhs == as_pbw(L, brute_normal_order(L, u + v))


# ---------------------------------------------------------------------------
# pbw_mul
# ---------------------------------------------------------------------------


def test_pbw_mul_examples(heis):
    Q = PbwElement(heis, {(1,): 1})
    P = PbwElement(heis, {(0,): 1})
    product = pbw_mul(Q, P)
    assert product == PbwElement(heis, {(0, 1): 1, (2,): PolyZ.z(coeff=-1)})
    one = PbwElement.unit(heis)
    a = PbwElement(heis, {(0, 1, 2): Fraction(3, 2)})
    assert pbw_mul(one, a) == a
    assert pbw_mul(a, one) == a


def test_pbw_mul_abelian_is_concatenation():
    L = abelian(3)
    a = PbwElement(L, {(0, 2): 2})
    b = PbwElement(L, {(1,): Fraction(1, 3)})
    assert pbw_mul(a, b) == PbwElement(L, {(0, 1, 2): Fraction(2, 3)})
    assert pbw_mul(a, b) == pbw_mul(b, a)


def test_pbw_element_rejects_unsorted_words(heis):
    with pytest.raises(ValueError, match="not normal-ordered"):
        PbwElement(heis, {(1, 0): 1})
    # a letter past the basis, and a negative one
    for word in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside the basis"):
            PbwElement(heis, {word: 1})


# ---------------------------------------------------------------------------
# q_z and its inverse
# ---------------------------------------------------------------------------


def test_q_z_examples(heis):
    xi = SymElement.basis(heis, 0)
    assert q_z(xi) == PbwElement(heis, {(0,): 1})
    pq = SymElement.monomial(heis, (1, 1, 0))
    assert q_z(pq) == PbwElement(
        heis, {(0, 1): 1, (2,): PolyZ.z(coeff=Fraction(-1, 2))}
    )
    assert q_z(SymElement.monomial(heis, (2, 0, 0))) == PbwElement(heis, {(0, 0): 1})


def test_q_z_triangular(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(20):
            alpha = random_monomial(L, rng, 5)
            n = sum(alpha)
            word = tuple(
                sorted(i for i, a in enumerate(alpha) for _ in range(a))
            )
            image = q_z(SymElement.monomial(L, alpha))
            assert image.coefficient(word) == PolyZ(1)
            assert all(len(w) < n for w, _ in image.items() if w != word)


def test_q_z_inv_examples(heis):
    assert q_z_inv(PbwElement.unit(heis)) == SymElement.unit(heis)
    pq_word = PbwElement(heis, {(0, 1): 1})
    assert q_z_inv(pq_word) == SymElement(
        heis, {(1, 1, 0): 1, (0, 0, 1): PolyZ.z(coeff=Fraction(1, 2))}
    )


def test_q_z_roundtrip(heis, sl2_algebra, fil4, rng):
    for L in (heis, sl2_algebra, fil4):
        for _ in range(15):
            x = random_element(L, rng, 4)
            assert q_z_inv(q_z(x)) == x


# ---------------------------------------------------------------------------
# the oracle star product
# ---------------------------------------------------------------------------


def test_star_heisenberg_basics(heis):
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    half_z_E = SymElement(heis, {(0, 0, 1): PolyZ.z(coeff=Fraction(1, 2))})
    pq = sym_mul(P, Q)
    assert star_pbw(P, Q) == pq + half_z_E
    assert star_pbw(Q, P) == pq - half_z_E
    z_E = SymElement(heis, {(0, 0, 1): PolyZ.z()})
    assert star_pbw(P, Q) - star_pbw(Q, P) == z_E


def test_star_unit(heis, rng):
    one = SymElement.unit(heis)
    for _ in range(5):
        x = random_element(heis, rng, 4)
        assert star_pbw(x, one) == x
        assert star_pbw(one, x) == x


def test_star_powers_closed_form(heis):
    # P^k * Q^k = sum_j C(k,j)^2 j! (z/2)^j P^(k-j) Q^(k-j) E^j; the (1/2)^j
    # comes from the first BCH commutator term and survives in the exact
    # product (see the decisions ledger in the build notes).
    for k in range(1, 6):
        P = SymElement.basis(heis, 0)
        Q = SymElement.basis(heis, 1)
        expected_terms = {}
        for j in range(k + 1):
            coeff = Fraction(math.comb(k, j) ** 2 * math.factorial(j), 2**j)
            expected_terms[(k - j, k - j, j)] = PolyZ({j: coeff})
        assert star_pbw(P**k, Q**k) == SymElement(heis, expected_terms)


def test_star_associativity(heis, sl2_algebra, fil4, rng):
    for L in (heis, sl2_algebra, fil4):
        for _ in range(8):
            x = random_element(L, rng, 3, terms=2)
            y = random_element(L, rng, 3, terms=2)
            w = random_element(L, rng, 2, terms=2)
            assert star_pbw(star_pbw(x, y), w) == star_pbw(x, star_pbw(y, w))


def test_star_classical_limit_and_first_order(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(10):
            x = random_element(L, rng, 4)
            y = random_element(L, rng, 4)
            assert star_pbw(x, y).evaluate_z(0) == sym_mul(x, y)
        for i in range(L.dim):
            for j in range(L.dim):
                xi = SymElement.basis(L, i)
                eta = SymElement.basis(L, j)
                first = (star_pbw(xi, eta) - star_pbw(eta, xi)).z_coefficient(1)
                row = L.basis_bracket(i, j)
                expected = SymElement.from_vector(
                    L, tuple(row.get(k, Fraction(0)) for k in range(L.dim))
                )
                assert first == expected


def test_star_z_degree_bound(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(20):
            alpha = random_monomial(L, rng, 4)
            beta = random_monomial(L, rng, 4)
            k, l = sum(alpha), sum(beta)
            product = star_pbw(
                SymElement.monomial(L, alpha), SymElement.monomial(L, beta)
            )
            assert product.z_degree <= max(k + l - 1, 0)


# ---------------------------------------------------------------------------
# the graded construction
# ---------------------------------------------------------------------------


def test_star_graded_examples(heis):
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    assert star_graded(P, Q) == star_pbw(P, Q)
    x = random_element(heis, random.Random(3), 4)
    assert star_graded(x, SymElement.unit(heis)) == x


def test_star_graded_equals_pbw_on_monomials(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(30):
            alpha = random_monomial(L, rng, 3)
            beta = random_monomial(L, rng, 3)
            x = SymElement.monomial(L, alpha)
            y = SymElement.monomial(L, beta)
            assert star_graded(x, y) == star_pbw(x, y)


def test_star_graded_non_homogeneous(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(10):
            x = random_element(L, rng, 4)
            y = random_element(L, rng, 4)
            assert star_graded(x, y) == star_pbw(x, y)


def test_q_z_roundtrip_with_z_coefficients(heis):
    x = SymElement(
        heis,
        {(2, 1, 0): PolyZ({0: Fraction(1, 2), 2: -3}), (0, 0, 1): PolyZ.z()},
    )
    assert q_z_inv(q_z(x)) == x


def test_star_one_dimensional_algebra():
    A = abelian(1)
    u = SymElement.monomial(A, (3,), Fraction(2, 3))
    assert star_pbw(u, u) == SymElement.monomial(A, (6,), Fraction(4, 9))
    assert q_z_inv(q_z(u)) == u


def test_star_graded_requires_z_constant(heis):
    x = SymElement(heis, {(1, 0, 0): PolyZ.z()})
    with pytest.raises(ValueError):
        star_graded(x, SymElement.unit(heis))


def test_star_front_end_rejects_unknown_method(heis):
    x = SymElement.basis(heis, 0)
    with pytest.raises(ValueError):
        star(x, x, method="magic")


# ---------------------------------------------------------------------------
# lifted homomorphisms
# ---------------------------------------------------------------------------


def test_lift_hom_identity_and_zero(heis, rng):
    identity = make_hom(heis, heis, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    zero = make_hom(heis, abelian(3), [[0, 0, 0]] * 3)
    x = random_element(heis, rng, 3)
    assert lift_hom(identity, x) == x
    image = lift_hom(zero, x)
    unit_part = x.coefficient((0, 0, 0))
    assert image == SymElement(abelian(3), {(0, 0, 0): unit_part})


def test_lift_hom_is_star_morphism(heis, rng):
    scaling = make_hom(heis, heis, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    lhs = lift_hom(scaling, star_pbw(P, Q))
    rhs = star_pbw(lift_hom(scaling, P), lift_hom(scaling, Q))
    assert lhs == rhs
    for _ in range(10):
        x = random_element(heis, rng, 3, terms=2)
        y = random_element(heis, rng, 3, terms=2)
        assert lift_hom(scaling, star_pbw(x, y)) == star_pbw(
            lift_hom(scaling, x), lift_hom(scaling, y)
        )


def test_lift_hom_rejects_invalid(heis):
    swap = make_hom(heis, heis, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        lift_hom(swap, SymElement.basis(heis, 0))
