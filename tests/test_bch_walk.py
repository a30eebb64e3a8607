"""The composition backtrack of ``star_bch`` against the exhaustive walk it
prunes: every multiplicity vector over the BCH components, in the walk's
order, with the leaves built the same way."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from guttstar import bch
from guttstar.liealg import as_vector, filiform4, heisenberg, sl2

from random_inputs import nilpotent_algebras

DEGREE_PAIRS = [(k, n - k) for n in range(1, 8) for k in range(n + 1)]


def exhaustive_parts(L, xi, k, eta, l):
    """The parts of every multiplicity vector m with sum m_{a,b} (a, b) =
    (k, l) and a nonzero product, in the lexicographic order of m."""
    pairs = sorted(bch._bch_components(L, k, l, xi, eta).items())
    ranges = [range(min(k // a if a else k + l, l // b if b else k + l) + 1) for (a, b), _ in pairs]
    num = math.factorial(k) * math.factorial(l)
    parts = []
    for ms in itertools.product(*ranges):
        if sum(m * a for m, ((a, _), _) in zip(ms, pairs)) != k:
            continue
        if sum(m * b for m, ((_, b), _) in zip(ms, pairs)) != l:
            continue
        partial, den = {(0,) * L.dim: 1}, 1
        for m, (_, (vec, d)) in zip(ms, pairs):
            sparse = [(i, c) for i, c in enumerate(vec) if c]
            for j in range(1, m + 1):
                partial = bch._times_vector(partial, sparse)
                den *= j * d
        if partial:
            terms = [((gamma, 0), c) for gamma, c in partial.items()]
            parts.append((den, terms, num, k + l - sum(ms)))
    return parts


def assert_walk_is_exhaustive(L, xi, eta, degree_pairs=DEGREE_PAIRS):
    xi, eta = as_vector(L, xi), as_vector(L, eta)
    for k, l in degree_pairs:
        assert bch._star_bch_parts(L, xi, k, eta, l) == exhaustive_parts(L, xi, k, eta, l), (k, l)


def test_walk_matches_exhaustive_on_stock_algebras():
    cases = [
        (heisenberg(), (1, Fraction(-1, 2), 2), (Fraction(2, 3), 3, -1)),
        (sl2(), (1, 2, 3), (Fraction(2, 3), -1, Fraction(4, 3))),
        (filiform4(), (1, -1, 0, 2), (Fraction(1, 2), 1, 3, 0)),
    ]
    for L, xi, eta in cases:
        assert_walk_is_exhaustive(L, xi, eta)


def test_walk_on_degenerate_vectors():
    """k = 0 or l = 0, a zero vector (no leaf once its power is needed) and
    parallel vectors (every bracket vanishes)."""
    L = sl2()
    xi = (1, 2, 3)
    zero = (0, 0, 0)
    cases = [(xi, zero), (zero, xi), (xi, tuple(2 * c for c in xi)), (zero, zero)]
    for a, b in cases:
        assert_walk_is_exhaustive(L, a, b, DEGREE_PAIRS + [(0, 0), (0, 4), (5, 0)])
    assert bch._star_bch_parts(L, as_vector(L, xi), 3, as_vector(L, (0, 0, 0)), 2) == []


@settings(max_examples=5, deadline=None)
@given(data=st.data(), L=nilpotent_algebras([0, 1, -1, 2, Fraction(1, 2)]))
def test_walk_matches_exhaustive_on_drawn_algebra(data, L):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    xi = data.draw(st.tuples(*[small] * L.dim))
    eta = data.draw(st.tuples(*[small] * L.dim))
    assert_walk_is_exhaustive(L, xi, eta, [(k, l) for k, l in DEGREE_PAIRS if k + l <= 5])


def test_walk_raises_only_products_that_can_complete(monkeypatch):
    """The walk multiplies a partial product only on the way to a leaf: 45
    calls of _times_vector here, where the exhaustive walk makes 93."""
    calls = []
    times_vector = bch._times_vector

    def counted(p, vec):
        calls.append(1)
        return times_vector(p, vec)

    monkeypatch.setattr(bch, "_times_vector", counted)
    bch.star_bch(sl2(), (1, 2, 3), 4, (Fraction(2, 3), -1, Fraction(4, 3)), 3)
    assert len(calls) <= 45
