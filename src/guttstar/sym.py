"""Graded symmetric-algebra elements and the weighted seminorm family.

Elements of Sym(g) hold their terms c z^e xi^alpha, over multi-indices in the
chosen basis, flat as {(alpha, e): c}; the symmetric product adds multi-indices
and exponents.  ``SparseElement`` is that storage for all four element types,
with a ``PolyZ`` coefficient per key built only on demand.

Seminorms are weighted l1 norms on the basis.  For those, the projective
tensor power of a degree-n monomial xi^alpha is exactly
prod_i w_i^alpha_i: the symmetrized tensor splits into n!/alpha! distinct
words of weight alpha!/n! each, and distinct monomials have disjoint word
support, so the l1 value is computable in closed form.  That makes the
graded norms

    p_R = sum_n n!^R p^n

exactly evaluable on every element here (n!^R itself is taken in floating
point unless R is integral and an exact value is requested).

The module also holds the package's one part-sum, ``sum_parts``: every
product (PBW, graded, BCH and the Hopf maps) is a list of parts, each a raw
product (D, terms) of integer numerators over one denominator scaled by an
integer ratio and a power of z, and ``sum_parts`` turns them into the flat
``Fraction`` map an element stores.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, index
from typing import Iterable, Mapping, Optional, Sequence, Union

from .liealg import LieAlgebra, as_vector
from .zpoly import CoeffLike, PolyZ, add_scaled, ratio_add, zp_eval

MultiIndex = tuple[int, ...]
RLike = Union[int, float, Fraction]


def index_tuple(seq) -> Optional[tuple]:
    """seq as a tuple of ints read through ``operator.index``, or None when
    seq is not a sequence of integers (a float or a str entry, say)."""
    try:
        return tuple(map(index, seq))
    except TypeError:
        return None


class SparseElement:
    """Terms c z^e key, stored as the flat map ``_terms`` {(key, e): c} of
    nonzero ``Fraction`` c, the key form of the raw products; ``items``,
    ``coefficient`` and the reprs build a ``PolyZ`` per key on demand.

    A subclass names the field two operands must share (``_field``, with the
    error text ``_mismatch``) and checks its keys: ``_key(owner, key)`` reads
    a sequence of integers through ``index_tuple`` and returns it, or raises
    ``ValueError`` on a float or str entry and a bad length, sign or order.
    The public constructor takes a map key -> coeff, each coeff an ``int``, a
    ``Fraction`` or a ``PolyZ`` (else ``TypeError``), and stores nonzero
    ``Fraction`` values, dropping zeros and summing keys of one canonical
    form.  ``_raw`` trusts a flat map that is already canonical and does not
    copy it.
    """

    __slots__ = ("_terms",)
    _field = "algebra"
    _mismatch = "elements live over different algebras"

    def __init__(self, algebra: LieAlgebra, terms: Mapping[object, CoeffLike] = ()):
        setattr(self, self._field, algebra)
        check = self._key
        flat: dict = {}
        for key, coeff in dict(terms).items():
            key = check(algebra, key)
            if isinstance(coeff, PolyZ):
                pairs = coeff._c.items()
            elif isinstance(coeff, (int, Fraction)):
                pairs = ((0, coeff if type(coeff) is Fraction else Fraction(coeff)),) if coeff else ()
            else:
                raise TypeError(f"coefficient {coeff!r} is not an int, Fraction or PolyZ")
            for e, c in pairs:
                if (key, e) in flat:  # two input keys with one canonical form
                    add_scaled(flat, [((key, e), c)], 1)
                else:
                    flat[key, e] = c
        self._terms = flat

    @classmethod
    def _raw(cls, owner, terms: dict):
        """Trusted constructor: terms is already a canonical flat map (checked
        keys, nonzero ``Fraction`` coefficients) and is not copied."""
        x = cls.__new__(cls)
        setattr(x, cls._field, owner)
        x._terms = terms
        return x

    def _owner(self):
        return getattr(self, self._field)

    def _require_same(self, other: "SparseElement") -> None:
        if self._owner() != other._owner():
            raise ValueError(self._mismatch)

    def items(self) -> Iterable[tuple]:
        """The (key, PolyZ) pairs, each coefficient a fresh ``PolyZ``."""
        out: dict = {}
        for (key, e), c in self._terms.items():
            p = out.get(key)
            if p is None:
                out[key] = PolyZ._raw({e: c})
            else:
                p._c[e] = c
        return out.items()

    def coefficient(self, key) -> PolyZ:
        key = tuple(key)
        return PolyZ._raw({e: c for (k, e), c in self._terms.items() if k == key})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same(other)
        out = dict(self._terms)
        add_scaled(out, other._terms.items(), 1)
        return self._raw(self._owner(), out)

    def __neg__(self):
        return self._raw(self._owner(), {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff: CoeffLike):
        out: dict = {}
        for e, c in PolyZ.coerce(coeff).items():
            add_scaled(out, self._terms.items(), c, e)
        return self._raw(self._owner(), out)

    def evaluate_z(self, z0: Union[int, Fraction]):
        """Substitute z = z0 in every coefficient."""
        z0 = Fraction(z0)
        out = {}
        for k, p in self.items():
            v = zp_eval(p._c, z0)
            if v:
                out[(k, 0)] = v
        return self._raw(self._owner(), out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._owner() == other._owner() and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._owner(), frozenset(self._terms.items())))


class SymElement(SparseElement):
    """Element of Sym(g) with coefficients polynomial in z."""

    __slots__ = ("algebra",)
    # bound on the class itself as well: perfbench/layers.py traces these by
    # SymElement's own attributes, and its tracer does not look up the bases
    __init__ = SparseElement.__init__
    __add__ = SparseElement.__add__
    scale = SparseElement.scale
    evaluate_z = SparseElement.evaluate_z

    @staticmethod
    def _key(algebra: LieAlgebra, alpha: Sequence[int]) -> MultiIndex:
        key = index_tuple(alpha)
        if key is None or len(key) != algebra.dim or min(key, default=0) < 0:
            raise ValueError(f"bad multi-index {alpha!r} for dim {algebra.dim}")
        return key

    # constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "SymElement":
        return cls(algebra)

    @classmethod
    def unit(cls, algebra: LieAlgebra, coeff: CoeffLike = 1) -> "SymElement":
        return cls(algebra, {(0,) * algebra.dim: coeff})

    @classmethod
    def monomial(
        cls, algebra: LieAlgebra, alpha: Sequence[int], coeff: CoeffLike = 1
    ) -> "SymElement":
        return cls(algebra, {tuple(alpha): coeff})

    @classmethod
    def from_vector(cls, algebra: LieAlgebra, v: Sequence) -> "SymElement":
        v, rows = as_vector(algebra, v), range(algebra.dim)
        return cls(algebra, {tuple(int(k == i) for k in rows): c for i, c in enumerate(v)})

    @classmethod
    def basis(cls, algebra: LieAlgebra, i: int) -> "SymElement":
        key = index_tuple((i,))
        if key is None or not 0 <= key[0] < algebra.dim:
            raise ValueError(f"bad basis index {i!r} for dim {algebra.dim}")
        return cls.monomial(algebra, tuple(int(k == i) for k in range(algebra.dim)))

    # inspection ---------------------------------------------------------------

    @property
    def max_degree(self) -> int:
        """Top polynomial degree; -1 for the zero element."""
        return max((sum(a) for a, _ in self._terms), default=-1)

    @property
    def z_degree(self) -> int:
        return max((e for _, e in self._terms), default=-1)

    @property
    def is_z_constant(self) -> bool:
        return not any(e for _, e in self._terms)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degrees(self) -> list[int]:
        return sorted({sum(a) for a, _ in self._terms})

    # algebra --------------------------------------------------------------------

    def __mul__(self, other: Union["SymElement", CoeffLike]) -> "SymElement":
        if not isinstance(other, SymElement):
            return self.scale(other)
        return sym_mul(self, other)

    def __rmul__(self, other: CoeffLike) -> "SymElement":
        return self.scale(other)

    def __pow__(self, n: int) -> "SymElement":
        if n < 0:
            raise ValueError("negative powers are not defined in Sym(g)")
        result = SymElement.unit(self.algebra)
        for _ in range(n):
            result = sym_mul(result, self)
        return result

    def project(self, n: int) -> "SymElement":
        """Homogeneous degree-n part."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        return SymElement._raw(
            self.algebra, {k: c for k, c in self._terms.items() if sum(k[0]) == n}
        )

    def z_coefficient(self, n: int) -> "SymElement":
        """The Sym-valued coefficient of z^n."""
        return SymElement._raw(
            self.algebra, {(a, 0): c for (a, e), c in self._terms.items() if e == n}
        )

    def __str__(self) -> str:
        from .exprs import format_element

        return format_element(self)

    def __repr__(self) -> str:
        return f"<SymElement {self}>"


def sym_mul(x: SymElement, y: SymElement) -> SymElement:
    """Commutative graded product: multi-index addition on monomials."""
    x._require_same(y)
    out: dict = {}
    for (a, ea), ca in x._terms.items():
        terms = [((tuple(map(add, a, b)), ea + eb), cb) for (b, eb), cb in y._terms.items()]
        add_scaled(out, terms, ca)
    return SymElement._raw(x.algebra, out)


def raw_sum(parts: list) -> tuple[int, dict]:
    """The parts (den, terms, num, shift), each adding num z^shift terms / den
    for raw terms ((key, e), n) and nonzero ints den and num, as one raw
    product (D, {(key, e): n}) over the lcm D of the reduced num/den."""
    common = math.lcm(*(den // math.gcd(num, den) for den, _, num, _ in parts))
    acc: dict = {}
    for den, terms, num, shift in parts:
        add_scaled(acc, terms, num * common // den, shift)
    return common, acc


def sum_parts(parts: list) -> dict:
    """The one part-sum of the package: the ``raw_sum`` of the parts as a
    fresh flat map {(key, e): coeff}, each coeff one ``Fraction``.  One part,
    whose keys are distinct as a raw product's are, is read off directly."""
    if len(parts) == 1:
        (den, terms, num, shift), = parts
        return {(key, e + shift): Fraction(n * num, den) for (key, e), n in terms}
    common, acc = raw_sum(parts)
    return {key: Fraction(v, common) for key, v in acc.items()}


def exp_truncated(x: SymElement, order: int) -> SymElement:
    """sum_{n<=order} x^n / n!"""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    total = SymElement.unit(x.algebra)
    power = SymElement.unit(x.algebra)
    fact = 1
    for n in range(1, order + 1):
        power = sym_mul(power, x)
        fact *= n
        total = total + power.scale(Fraction(1, fact))
    return total


def random_element(
    algebra: LieAlgebra, rng: random.Random, max_degree: int, terms: int = 3
) -> SymElement:
    """Sparse random element with small rational coefficients: terms draws of
    a multi-index of degree at most max_degree and a coefficient num/den with
    0 < |num| <= 9 and 0 < den <= 9; the last draw of a repeated multi-index
    wins."""
    data = {}
    for _ in range(terms):
        alpha = [0] * algebra.dim
        for _ in range(rng.randint(0, max_degree)):
            alpha[rng.randrange(algebra.dim)] += 1
        num = rng.randint(-9, 9) or 1
        data[(tuple(alpha), 0)] = Fraction(num, rng.randint(1, 9))
    return SymElement._raw(algebra, data)


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seminorm:
    """Weighted l1 norm on the basis, extended to p^n and p_R."""

    algebra: LieAlgebra
    weights: tuple[Fraction, ...]
    # the weights as parallel tuples of int numerators and denominators, read
    # by pn_terms and hopf.tensor_terms
    _ratios: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != self.algebra.dim:
            raise ValueError("need one weight per basis element")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        ratios = (
            tuple(w.numerator for w in self.weights),
            tuple(w.denominator for w in self.weights),
        )
        object.__setattr__(self, "_ratios", ratios)

    @classmethod
    def ell1(cls, algebra: LieAlgebra, weights: Sequence = None) -> "Seminorm":
        if weights is None:
            weights = [1] * algebra.dim
        return cls(algebra, tuple(Fraction(w) for w in weights))

    def scale(self, c: Union[int, Fraction]) -> "Seminorm":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scaling factor must be positive")
        return Seminorm(self.algebra, tuple(c * w for w in self.weights))

    def vector_norm(self, v: Sequence) -> Fraction:
        v = as_vector(self.algebra, v)
        return sum((abs(c) * w for c, w in zip(v, self.weights)), Fraction(0))


def factorial_power(n: int, R: RLike) -> float:
    """n!^R in floating point, inf past the float range."""
    try:
        return math.exp(float(R) * math.lgamma(n + 1))
    except OverflowError:
        return math.inf


def factorial_power_exact(n: int, R: int) -> Fraction:
    if R < 0:
        return Fraction(1, math.factorial(n) ** (-R))
    return Fraction(math.factorial(n) ** R)


def graded_term(n: int, R: RLike, part: Fraction, scale: float = 1.0) -> float:
    """scale^n * n!^R * part as a float, part >= 0 rational.

    Integral R goes through exact rational arithmetic (so e.g. n!^1 * 1/n!
    is exactly 1.0); other R is assembled in log space, which keeps huge
    factorials and tiny rational coefficients from overflowing separately.
    """
    if part == 0:
        return 0.0
    fR = float(R)
    if fR.is_integer():
        # int true division rounds correctly, exactly as float(Fraction) does
        k = math.factorial(n) ** abs(int(fR))
        num, den = part.numerator, part.denominator
        try:
            return (scale**n) * (num * k / den if fR >= 0 else num / (den * k))
        except OverflowError:
            return math.inf
    log_term = (
        fR * math.lgamma(n + 1)
        + math.log(part.numerator)
        - math.log(part.denominator)
    )
    if scale != 1.0:
        log_term += n * math.log(scale)
    if log_term > 700.0:
        return math.inf
    return math.exp(log_term)


def weight_ratio(
    c: Union[int, Fraction], alpha: Sequence[int], nums: Sequence[int], dens: Sequence[int]
) -> tuple[int, int, int]:
    """(|alpha|, num, den) with num/den = |c| prod w^alpha, from a seminorm's
    ``_ratios``."""
    n, num, den = 0, abs(c.numerator), c.denominator
    for a, wn, wd in zip(alpha, nums, dens):
        if a:
            n += a
            num *= wn**a
            den *= wd**a
    return n, num, den


def pn_terms(p: Seminorm, x: SymElement) -> list[tuple[int, Fraction]]:
    """The (n, p^n(x_n)) pairs of x by increasing degree, read in one pass.

    Each degree sums |c_alpha| prod w^alpha as an int numerator over the
    least common denominator; only the final value is a Fraction."""
    nums, dens = p._ratios
    acc: dict[int, tuple[int, int]] = {}
    for (alpha, e), c in x._terms.items():
        if e:
            raise ValueError("pn_norm needs z-constant coefficients; evaluate_z first")
        n, num, den = weight_ratio(c, alpha, nums, dens)
        prev = acc.get(n)
        acc[n] = (num, den) if prev is None else ratio_add(*prev, num, den)
    return [(n, Fraction(num, den)) for n, (num, den) in sorted(acc.items())]


def pn_norm(p: Seminorm, x: SymElement) -> Fraction:
    """p^n of a homogeneous, z-constant element: sum |c_alpha| prod w^alpha."""
    if not x.is_homogeneous():
        raise ValueError("pn_norm needs a homogeneous element")
    return sum((v for _, v in pn_terms(p, x)), Fraction(0))


def graded_sum(
    terms: Iterable[tuple[int, Fraction]], R: RLike, scale: float = 1.0
) -> float:
    """sum of graded_term(n, R, part, scale) over (n, part), left to right."""
    total = 0.0
    for n, part in terms:
        total += graded_term(n, R, part, scale)
    return total


def pR_norm(p: Seminorm, R: RLike, x: SymElement, scale: float = 1.0) -> float:
    """(scale*p)_R(x) = sum_n scale^n n!^R p^n(x_n), in floating point.

    The scale factor is applied through the degree-homogeneity identity
    (c p)^n = c^n p^n, so irrational scales (2^R, 8e(|z|+1), ...) stay exact
    until the final float conversion.  A caller that needs x at several
    (R, scale) keeps pn_terms(p, x) and calls graded_sum on it.
    """
    return graded_sum(pn_terms(p, x), R, scale)


def pR_norm_exact(p: Seminorm, R: int, x: SymElement) -> Fraction:
    """p_R(x) as an exact rational, available for integral R."""
    return sum((factorial_power_exact(n, R) * v for n, v in pn_terms(p, x)), Fraction(0))


def submultiplicative_scale(L: LieAlgebra, p: Seminorm) -> Fraction:
    """Smallest c >= 1 so that q = c*p satisfies q([xi,eta]) <= q(xi)q(eta).

    q is then submultiplicative for the bracket, hence an asymptotic estimate
    for itself and (since q >= p) for p: any word of n letters and n-1
    brackets obeys p(word) <= q(word) <= q(letter_1) ... q(letter_n).
    """
    best = Fraction(1)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            row = L.basis_bracket(i, j)
            if not row:
                continue
            value = sum(
                (abs(c) * p.weights[k] for k, c in row.items()), Fraction(0)
            )
            ratio = value / (p.weights[i] * p.weights[j])
            if ratio > best:
                best = ratio
    return best


def asymptotic_estimate(L: LieAlgebra, p: Seminorm) -> Seminorm:
    """The scaled seminorm from submultiplicative_scale, ready to use."""
    return p.scale(submultiplicative_scale(L, p))
