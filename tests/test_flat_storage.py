"""Every element type stores one flat map {(key, e): coeff} and builds its
``PolyZ`` coefficients on demand; these tests check what the checked
constructor stores and rejects, that the public view round-trips, and that
no view or product writes back into the stored map."""

from fractions import Fraction
from operator import index

import pytest

from guttstar.hopf import (
    SymTensorElement,
    WeylElement,
    coproduct,
    is_heisenberg_shaped,
    weyl_project,
)
from guttstar.pbw import PbwElement, q_z, q_z_inv
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

from random_inputs import random_monomial


def random_z_element(L, rng, max_degree=3, terms=4):
    """A Sym element whose coefficients are random polynomials of z-degree at
    most 2, with a z-dependent term of degree 2."""
    data = {(2,) + (0,) * (L.dim - 1): PolyZ({0: 1, 1: Fraction(1, 2)})}
    for _ in range(terms):
        top = rng.randint(1, 3)
        poly = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in range(top)}
        data[random_monomial(L, rng, max_degree)] = PolyZ(poly)
    return SymElement(L, data)


def elements_of_every_type(L, rng):
    """One z-dependent element of each of the four element types, with a key
    that none of them holds."""
    x = random_z_element(L, rng)
    out = [
        (x, (9,) * L.dim),
        (q_z(x), (0,) * 10),
        (coproduct(x), ((9,) * L.dim, (9,) * L.dim)),
    ]
    if is_heisenberg_shaped(L):
        out.append((weyl_project(x, Fraction(rng.randint(-3, 3), 2)), (9, 9)))
    return out


class Index:
    """An integer through ``__index__`` only, unequal to the int it stands
    for, so that it and that int are two keys of one input map."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def canonical(key):
    return tuple(map(index, key))


# per element type: the owner from the Heisenberg algebra, the key canonicalizer
# and eight distinct keys, of which the last two have one canonical form
CHECKED_TYPES = {
    SymElement: (
        lambda L: L,
        canonical,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (0, 0, 0), (1, 1, 1), (0, 3, 0), (0, Index(3), 0)],
    ),
    PbwElement: (
        lambda L: L,
        canonical,
        [(), (0,), (1,), (0, 1), (0, 0, 2), (1, 2, 2), (2,), (Index(2),)],
    ),
    SymTensorElement: (
        lambda L: L,
        lambda pair: tuple(map(canonical, pair)),
        [
            ((1, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (1, 0, 0)),
            ((0, 1, 0), (0, 0, 1)),
            ((2, 0, 0), (0, 1, 1)),
            ((0, 0, 0), (0, 0, 0)),
            ((1, 1, 0), (1, 1, 0)),
            ((0, 0, 1), (0, 0, 0)),
            ((0, 0, Index(1)), (0, 0, 0)),
        ],
    ),
    WeylElement: (
        lambda L: Fraction(3, 2),
        canonical,
        [(0, 0), (1, 0), (0, 1), (2, 3), (1, 1), (4, 0), (0, 2), (Index(0), 2)],
    ),
}
MIXED_COEFFS = [
    3,
    Fraction(-2, 7),
    PolyZ({0: 1, 2: Fraction(1, 3)}),
    0,
    PolyZ(),
    PolyZ({1: -4}),
    PolyZ({0: Fraction(5, 2), 1: 1}),
    -5,
]


def reference_flat(data, canon):
    """The flat map of data, built term by term: each coefficient as a
    polynomial in z, summed per canonical key and z-power, zeros dropped."""
    flat = {}
    for key, coeff in data.items():
        poly = dict(coeff.items()) if isinstance(coeff, PolyZ) else {0: coeff}
        for e, c in poly.items():
            flat[canon(key), e] = flat.get((canon(key), e), 0) + Fraction(c)
    return {k: c for k, c in flat.items() if c}


@pytest.mark.parametrize("cls", list(CHECKED_TYPES), ids=lambda cls: cls.__name__)
def test_the_checked_constructor_stores_nonzero_fractions_per_canonical_key(cls, heis):
    owner_of, canon, keys = CHECKED_TYPES[cls]
    owner = owner_of(heis)
    # the same keys with the coefficients in two orders; in the second, the
    # two keys of one canonical form cancel
    for coeffs in (MIXED_COEFFS, MIXED_COEFFS[1:] + [5]):
        data = dict(zip(keys, coeffs))
        x = cls(owner, data)
        expected = reference_flat(data, canon)
        assert x._terms == expected
        assert all(type(c) is Fraction and c for c in x._terms.values())
    assert any(e for _, e in x._terms)


@pytest.mark.parametrize(
    "cls, keys, message",
    [
        (SymElement, [(1.7, 0, 0), ("1", "0", "2")], "bad multi-index"),
        (PbwElement, [(0.5, 1), ("0",)], "outside the basis"),
        (
            SymTensorElement,
            [((1.0, 0, 0), (0, 0, 0)), ((0, 0, 0), ("1", 0, 0)), 5, ((0, 0, 0),) * 3],
            "bad multi-index",
        ),
        (WeylElement, [(0.5, 1), ("1", 2)], "bad exponent pair"),
    ],
    ids=["SymElement", "PbwElement", "SymTensorElement", "WeylElement"],
)
def test_the_checked_constructor_rejects_keys_that_are_not_integers(cls, keys, message, heis):
    owner = CHECKED_TYPES[cls][0](heis)
    for key in keys:
        with pytest.raises(ValueError, match=message):
            cls(owner, {key: 1})


def test_the_checked_constructor_rejects_other_coefficients(heis):
    for coeff in (1.5, "1/2", None):
        with pytest.raises(TypeError, match="not an int, Fraction or PolyZ"):
            SymElement(heis, {(1, 0, 0): coeff})


def test_the_public_view_round_trips_and_builds_fresh_coefficients(heis, sl2_algebra, rng):
    seen = set()
    for L in (heis, sl2_algebra) * 3:
        for x, absent in elements_of_every_type(L, rng):
            seen.add(type(x))
            assert not x.is_zero and any(p.degree > 0 for _, p in x.items())
            rebuilt = type(x)(x._owner(), dict(x.items()))
            assert rebuilt == x and hash(rebuilt) == hash(x)
            for key, p in x.items():
                assert x.coefficient(key) == p
            assert x.coefficient(absent) == PolyZ()

            snapshot = {key: dict(p.items()) for key, p in x.items()}
            for _, p in x.items():
                p._c.clear()
            assert {key: dict(p.items()) for key, p in x.items()} == snapshot
            assert x == rebuilt
    assert seen == {SymElement, PbwElement, SymTensorElement, WeylElement}


def test_q_z_inv_leaves_its_input_unchanged(sl2_algebra, rng):
    for _ in range(5):
        x = random_z_element(sl2_algebra, rng)
        u = q_z(x)
        copy = PbwElement(sl2_algebra, dict(u.items()))
        assert q_z_inv(u) == x
        assert u == copy
        assert q_z_inv(u) == x
