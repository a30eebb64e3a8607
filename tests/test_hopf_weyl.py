import math
from fractions import Fraction

import pytest

from guttstar.hopf import (
    SymTensorElement,
    WeylElement,
    antipode,
    antipode_convolution,
    coproduct,
    counit,
    is_heisenberg_shaped,
    tensor_pR,
    tensor_star,
    verify_hopf,
    weyl_lift,
    weyl_mul,
    weyl_pR,
    weyl_project,
)
from guttstar.liealg import sl2
from guttstar.pbw import star_pbw
from guttstar.sym import Seminorm, SymElement, pR_norm, sym_mul
from guttstar.zpoly import PolyZ

from random_inputs import random_element

REL = 1e-9


# ---------------------------------------------------------------------------
# structure maps
# ---------------------------------------------------------------------------


def test_coproduct_primitive(heis):
    xi = SymElement.basis(heis, 0)
    unit = (0, 0, 0)
    expected = SymTensorElement(
        heis, {((1, 0, 0), unit): 1, (unit, (1, 0, 0)): 1}
    )
    assert coproduct(xi) == expected


def test_tensor_element_rejects_bad_multi_indices(heis):
    with pytest.raises(ValueError, match="bad multi-index"):
        SymTensorElement(heis, {((1, 0), (0, 0, -1)): 1})
    with pytest.raises(ValueError, match="bad multi-index"):
        SymTensorElement(heis, {((1, 0, 0), (0, 0, -1)): 1})


def test_tensor_elements_over_different_algebras_do_not_add(heis, ab3):
    unit = (0, 0, 0)
    a = SymTensorElement(heis, {(unit, (1, 0, 0)): 1})
    b = SymTensorElement(ab3, {(unit, (1, 0, 0)): 1})
    with pytest.raises(ValueError, match="different algebras"):
        a + b
    with pytest.raises(ValueError, match="different algebras"):
        a - b


def test_coproduct_square(heis):
    P2 = SymElement.monomial(heis, (2, 0, 0))
    unit = (0, 0, 0)
    expected = SymTensorElement(
        heis,
        {
            ((2, 0, 0), unit): 1,
            ((1, 0, 0), (1, 0, 0)): 2,
            (unit, (2, 0, 0)): 1,
        },
    )
    assert coproduct(P2) == expected
    assert coproduct(SymElement.unit(heis)) == SymTensorElement(
        heis, {(unit, unit): 1}
    )


def test_tensor_star_is_the_sum_of_componentwise_products(heis, fil4, rng):
    """tensor_star against its definition, one SymTensorElement per term pair,
    on z-dependent tensors."""
    for L in (heis, fil4):
        x = random_element(L, rng, 3) + SymElement(
            L, {(1,) + (0,) * (L.dim - 1): PolyZ.z(coeff=Fraction(-2, 3))}
        )
        y = random_element(L, rng, 3)
        a, b = coproduct(x), coproduct(y)
        b = b + SymTensorElement(L, {key: PolyZ.z(2) for key, _ in b.items()})
        expected = SymTensorElement(L)
        for (a1, a2), ca in a.items():
            for (b1, b2), cb in b.items():
                left = star_pbw(SymElement.monomial(L, a1), SymElement.monomial(L, b1))
                right = star_pbw(SymElement.monomial(L, a2), SymElement.monomial(L, b2))
                expected = expected + SymTensorElement(
                    L,
                    {
                        (al, ar): cl * cr * ca * cb
                        for al, cl in left.items()
                        for ar, cr in right.items()
                    },
                )
        assert tensor_star(a, b) == expected
        assert tensor_star(coproduct(x), coproduct(y)) == coproduct(star_pbw(x, y))


def test_antipode(heis, rng):
    xi = SymElement.basis(heis, 0)
    assert antipode(xi) == -xi
    pq = SymElement.monomial(heis, (1, 1, 0))
    assert antipode(pq) == pq
    for _ in range(10):
        x = random_element(heis, rng, 5)
        assert antipode(antipode(x)) == x


def test_counit(heis):
    assert counit(SymElement.unit(heis)) == PolyZ(1)
    assert counit(SymElement.basis(heis, 0)) == PolyZ(0)
    x = SymElement.unit(heis, 3) + SymElement.monomial(heis, (2, 0, 0))
    assert counit(x) == PolyZ(3)


def test_antipode_law_linear_by_hand(heis):
    xi = SymElement.basis(heis, 1)
    assert antipode_convolution(xi).is_zero


def test_verify_hopf(heis, ab3, sl2_algebra, fil4):
    assert verify_hopf(heis, 4)
    assert verify_hopf(ab3, 4)
    for L in (sl2_algebra, fil4):
        report = verify_hopf(L, 4)
        assert report, str(report)


# ---------------------------------------------------------------------------
# tensor norms
# ---------------------------------------------------------------------------


def test_tensor_pR_primitive(heis):
    p = Seminorm.ell1(heis)
    for R in (0.0, 1.0, 1.5):
        assert math.isclose(
            tensor_pR(p, R, coproduct(SymElement.basis(heis, 0))), 2.0
        )
    assert tensor_pR(p, 1.0, SymTensorElement(heis)) == 0.0


def test_coproduct_bound(heis, rng):
    p = Seminorm.ell1(heis)
    for R in (0.5, 1.0, 2.0):
        for _ in range(10):
            x = random_element(heis, rng, 6)
            lhs = tensor_pR(p, R, coproduct(x))
            rhs = pR_norm(p, R, x, scale=2.0)
            assert lhs <= rhs * (1 + REL)


def test_antipode_isometric_on_homogeneous(heis, rng):
    p = Seminorm.ell1(heis, [1, 2, Fraction(1, 2)])
    for _ in range(10):
        x = random_element(heis, rng, 6)
        for n in x.degrees():
            part = x.project(n)
            assert pR_norm(p, 1.3, antipode(part)) == pR_norm(p, 1.3, part)
        assert pR_norm(p, 1.3, antipode(x)) <= pR_norm(p, 1.3, x) * (1 + REL)


# ---------------------------------------------------------------------------
# Weyl quotient
# ---------------------------------------------------------------------------


def test_heisenberg_shape_detection(heis, sl2_algebra, ab3):
    assert is_heisenberg_shaped(heis)
    assert not is_heisenberg_shaped(sl2_algebra)
    assert not is_heisenberg_shaped(ab3)


def test_weyl_project(heis):
    # pi(Q^k P^l E^m) = c^m Q^k P^l
    x = SymElement.monomial(heis, (2, 3, 2))  # P^2 Q^3 E^2
    w = weyl_project(x, Fraction(1, 2))
    assert w == WeylElement(Fraction(1, 2), {(3, 2): Fraction(1, 4)})
    assert weyl_project(SymElement.unit(heis), 5) == WeylElement(5, {(0, 0): 1})
    killed = weyl_project(SymElement.monomial(heis, (1, 0, 3)), 0)
    assert killed.is_zero
    with pytest.raises(ValueError):
        weyl_project(SymElement.basis(sl2(), 0), 1)


@pytest.mark.parametrize("key", [(-1, 2), (2, -1), (1, 2, 0)])
def test_weyl_element_rejects_bad_exponent_pairs(key):
    with pytest.raises(ValueError, match="bad exponent pair"):
        WeylElement(1, {key: 1})


def test_weyl_mul_examples(heis):
    P = weyl_project(SymElement.basis(heis, 0), 1)
    Q = weyl_project(SymElement.basis(heis, 1), 1)
    product = weyl_mul(heis, P, Q)
    assert product == WeylElement(1, {(1, 1): 1, (0, 0): PolyZ.z(coeff=Fraction(1, 2))})
    one = weyl_project(SymElement.unit(heis), 1)
    assert weyl_mul(heis, P, one) == P
    commutator = weyl_mul(heis, P, Q) - weyl_mul(heis, Q, P)
    assert commutator == WeylElement(1, {(0, 0): PolyZ.z()})
    with pytest.raises(ValueError):
        weyl_mul(heis, P, weyl_project(SymElement.basis(heis, 1), 2))


def test_weyl_well_defined(heis, rng):
    # representatives differing by (E - c) y project to the same products
    c = Fraction(2)
    for _ in range(10):
        x = random_element(heis, rng, 3)
        y = random_element(heis, rng, 2)
        w = random_element(heis, rng, 3)
        shift = sym_mul(
            SymElement.basis(heis, 2) - SymElement.unit(heis, c), y
        )
        x_prime = x + shift
        assert weyl_project(x, c) == weyl_project(x_prime, c)
        assert weyl_project(star_pbw(x, w), c) == weyl_project(star_pbw(x_prime, w), c)
        assert weyl_project(star_pbw(w, x), c) == weyl_project(star_pbw(w, x_prime), c)


def test_weyl_continuity_spot_check(heis):
    # p_R(pi(x * y)) <= (cp)_R(x) (cp)_R(y), c = 8(|z|+1)(|c0|+1), R >= 1/2
    p = Seminorm.ell1(heis)
    R = 0.5
    z0 = Fraction(1)
    for c0 in (Fraction(1), Fraction(-2)):
        c_tilde = 8.0 * (abs(float(z0)) + 1.0) * (abs(float(c0)) + 1.0)
        for alpha in [(0, 3, 0), (2, 2, 1), (1, 1, 2), (4, 0, 0)]:
            for beta in [(3, 0, 0), (1, 2, 1), (0, 0, 3)]:
                x = SymElement.monomial(heis, alpha)
                y = SymElement.monomial(heis, beta)
                projected = weyl_project(star_pbw(x, y), c0).evaluate_z(z0)
                lhs = weyl_pR(p, R, projected)
                rhs = pR_norm(p, R, x, scale=c_tilde) * pR_norm(p, R, y, scale=c_tilde)
                assert lhs <= rhs * (1 + REL)


def test_weyl_lift_roundtrip(heis, rng):
    for _ in range(5):
        x = random_element(heis, rng, 3)
        w = weyl_project(x, 3)
        assert weyl_project(weyl_lift(heis, w), 3) == w
