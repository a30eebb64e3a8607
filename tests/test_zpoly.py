from fractions import Fraction

import pytest

from guttstar.zpoly import PolyZ


def test_construction_drops_zeros():
    p = PolyZ({0: 1, 2: 0})
    assert p == PolyZ(1)
    assert PolyZ(0).is_zero
    assert not PolyZ()


def test_arithmetic():
    z = PolyZ.z()
    p = 1 + z * Fraction(1, 2)
    q = p * p
    assert q.coeff(0) == 1
    assert q.coeff(1) == 1
    assert q.coeff(2) == Fraction(1, 4)
    assert (p - p).is_zero
    assert (-p) + p == PolyZ(0)
    assert (z * z) == PolyZ.z(power=2)


def test_product_drops_cancelled_coefficients():
    z = PolyZ.z()
    product = (1 + z) * (1 - z)
    assert product == 1 - z * z
    assert dict(product.items()) == {0: 1, 2: -1}  # no z^1 entry with value 0


def test_evaluate():
    p = PolyZ({0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)})
    assert p.evaluate(1) == 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert p.evaluate(0) == 1


def test_constant_value_errors_on_z_terms():
    with pytest.raises(ValueError):
        PolyZ.z().constant_value()
    assert PolyZ(Fraction(3, 4)).constant_value() == Fraction(3, 4)


def test_degree_and_str():
    assert PolyZ().degree == -1
    assert PolyZ.z(power=3).degree == 3
    assert str(PolyZ({0: Fraction(1, 2), 1: -1})) == "1/2 - z"


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        PolyZ({-1: 1})
