"""Every element type stores one flat map {(key, e): coeff} and builds its
``PolyZ`` coefficients on demand; these tests check that the public view
round-trips and that no view or product writes back into the stored map."""

from fractions import Fraction

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
