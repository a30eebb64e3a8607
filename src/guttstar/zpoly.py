"""Polynomials in the deformation variable z over exact rationals, and the
package's one accumulate loop.

The package keeps the z-exponent in flat keys: a flat map {(key, e): coeff},
which every element stores, holds coeff z^e at key, and a raw product
``(D, terms)`` holds the pairs ``((key, e), n)`` of numerators n over one
denominator D.  ``add_scaled`` adds a scaled, z-shifted run of such pairs into
a flat map, dropping zeros; it is the one get/add/drop-zero loop that the
elements, the kernel, the part-sum (``sym.sum_parts``), the BCH series and
the z-polynomial sum and product accumulate through.  A ``PolyZ``, a
canonical map from nonnegative z-exponents to nonzero ``Fraction``, is only
the public view of one key's coefficient, built on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]
CoeffLike = Union[int, Fraction, "PolyZ"]
_FZERO = Fraction(0)  # shared default of coeff(); Fraction is immutable

# ---------------------------------------------------------------------------
# plain-dict helpers (hot path; add_scaled also serves the kernel, sym, pbw, bch)
# ---------------------------------------------------------------------------


def add_scaled(out: dict, terms: Iterable[tuple], scale, shift: int = 0) -> None:
    """out += scale * z^shift * terms, in place, dropping zeros, for the
    (key, coeff) pairs ``terms`` (a dict's items or a raw product's terms)
    and a nonzero ``scale``.  With ``shift`` each key is a (key, e) pair
    whose e is raised by ``shift``; without it any key works."""
    get = out.get
    if shift:  # kept apart from the shift-free loop, which reuses the keys
        for (w, e), c in terms:
            key = (w, e + shift)
            v = get(key)
            if v is None:
                out[key] = scale * c
            elif v := v + scale * c:
                out[key] = v
            else:
                del out[key]
    else:
        for key, c in terms:
            v = get(key)
            if v is None:
                out[key] = scale * c
            elif v := v + scale * c:
                out[key] = v
            else:
                del out[key]


def zp_add_into(acc: dict, other: Mapping[int, Fraction], scale: Fraction) -> None:
    """acc += scale * other, in place, dropping zeros."""
    if scale:
        add_scaled(acc, other.items(), scale)


def zp_mul(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> dict:
    out: dict = {}
    for ea, va in a.items():
        add_scaled(out, [(ea + eb, vb) for eb, vb in b.items()], va)
    return out


def zp_scale(a: Mapping[int, Scalar], scale: Scalar) -> dict:
    if not scale:
        return {}
    return {e: c * scale for e, c in a.items()}


def ratio_add(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num/den + n/d over the least common denominator (not reduced further)."""
    if den == d:
        return num + n, den
    g = gcd(den, d)
    return num * (d // g) + n * (den // g), den // g * d


def zp_eval(a: Mapping[int, Fraction], z0: Fraction) -> Fraction:
    """a(z0), exactly: a constant returns its value, and any other polynomial
    is summed on integers over the common denominator zd^top of z0 = zn/zd."""
    if len(a) == 1 and 0 in a:
        return a[0]
    zn, zd = z0.numerator, z0.denominator
    top = max(a, default=0)
    num, den = 0, 1
    for e, c in a.items():
        num, den = ratio_add(num, den, c.numerator * zn**e * zd ** (top - e), c.denominator)
    return Fraction(num, den * zd**top)


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------


class PolyZ:
    """Immutable polynomial in z with rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Scalar, Mapping[int, Scalar], None] = None):
        if coeffs is None:
            self._c: dict = {}
        elif isinstance(coeffs, (int, Fraction)):
            f = Fraction(coeffs)
            self._c = {0: f} if f else {}
        else:
            c = {}
            for e, v in coeffs.items():
                if e < 0:
                    raise ValueError("negative z-exponent")
                f = Fraction(v)
                if f:
                    c[int(e)] = f
            self._c = c

    # construction helpers -------------------------------------------------

    @classmethod
    def z(cls, power: int = 1, coeff: Scalar = 1) -> "PolyZ":
        return cls({power: coeff})

    @classmethod
    def _raw(cls, coeffs: dict) -> "PolyZ":
        p = cls.__new__(cls)
        p._c = coeffs
        return p

    @staticmethod
    def coerce(value: CoeffLike) -> "PolyZ":
        if isinstance(value, PolyZ):
            return value
        return PolyZ(value)

    # inspection ------------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return self._c.items()

    def coeff(self, exponent: int) -> Fraction:
        return self._c.get(exponent, _FZERO)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"coefficient depends on z: {self}")
        return self._c.get(0, _FZERO)

    @property
    def degree(self) -> int:
        """Degree in z; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def evaluate(self, z0: Scalar) -> Fraction:
        return zp_eval(self._c, Fraction(z0))

    # arithmetic ------------------------------------------------------------

    def __add__(self, other: CoeffLike) -> "PolyZ":
        other = PolyZ.coerce(other)
        acc = dict(self._c)
        zp_add_into(acc, other._c, Fraction(1))
        return PolyZ._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "PolyZ":
        return PolyZ._raw({e: -c for e, c in self._c.items()})

    def __sub__(self, other: CoeffLike) -> "PolyZ":
        return self + (-PolyZ.coerce(other))

    def __rsub__(self, other: CoeffLike) -> "PolyZ":
        return PolyZ.coerce(other) + (-self)

    def __mul__(self, other: CoeffLike) -> "PolyZ":
        if isinstance(other, (int, Fraction)):
            return PolyZ._raw(zp_scale(self._c, Fraction(other)))
        return PolyZ._raw(zp_mul(self._c, PolyZ.coerce(other)._c))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyZ(other)
        if not isinstance(other, PolyZ):
            return NotImplemented
        return self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"PolyZ({self})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            c = self._c[e]
            if e == 0:
                parts.append(str(c))
            else:
                zs = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    parts.append(zs)
                elif c == -1:
                    parts.append(f"-{zs}")
                else:
                    parts.append(f"({c})*{zs}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

