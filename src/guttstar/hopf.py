"""Hopf structure maps on the symmetric algebra and the Weyl quotient.

The coproduct, antipode and counit are the undeformed (classical) maps; they
stay compatible with the deformed product, which ``verify_hopf`` checks
axiom by axiom on randomized elements.  The Weyl algebra arises from the
3-dim Heisenberg algebra by sending the central element to a scalar; the
induced product is computed by lifting to central-element-free
representatives, multiplying with the oracle product and projecting back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from typing import Mapping, Optional, Union

from .liealg import LieAlgebra
from .pbw import _context, star_pbw
from .sym import (
    MultiIndex,
    RLike,
    Seminorm,
    SparseElement,
    SymElement,
    graded_term,
    index_tuple,
    random_element,
    sum_parts,
    weight_ratio,
)
from .zpoly import CoeffLike, PolyZ, add_scaled

# ---------------------------------------------------------------------------
# Sym (x) Sym and the structure maps
# ---------------------------------------------------------------------------


class SymTensorElement(SparseElement):
    """Element of Sym(g) (x) Sym(g), sparse over pairs of multi-indices."""

    __slots__ = ("algebra",)

    @staticmethod
    def _key(algebra: LieAlgebra, pair: tuple[MultiIndex, MultiIndex]) -> tuple:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ValueError(f"bad multi-index pair {pair!r}")
        a, b = pair
        return SymElement._key(algebra, a), SymElement._key(algebra, b)

    def __repr__(self) -> str:
        return f"<SymTensorElement terms={len(self.items())}>"


def _split(alpha: MultiIndex):
    """The terms ((beta, alpha - beta), prod_i C(alpha_i, beta_i)) of the
    coproduct of xi^alpha, over every 0 <= beta <= alpha."""
    for beta in product(*(range(a + 1) for a in alpha)):
        mult = 1
        for a, b in zip(alpha, beta):
            mult *= comb(a, b)
        yield (beta, tuple(a - b for a, b in zip(alpha, beta))), mult


def coproduct(x: SymElement) -> SymTensorElement:
    """Shuffle-type coproduct; on a monomial xi^alpha it is
    sum_{0<=beta<=alpha} prod_i C(alpha_i, beta_i) xi^beta (x) xi^(alpha-beta)."""
    out: dict = {}
    for (alpha, e), c in x._terms.items():
        add_scaled(out, [((key, e), mult) for key, mult in _split(alpha)], c)
    return SymTensorElement._raw(x.algebra, out)


def antipode(x: SymElement) -> SymElement:
    """Multiplies the degree-n component by (-1)^n."""
    return SymElement._raw(
        x.algebra, {k: c if sum(k[0]) % 2 == 0 else -c for k, c in x._terms.items()}
    )


def counit(x: SymElement) -> PolyZ:
    """Projection onto degree zero."""
    return x.coefficient((0,) * x.algebra.dim)


# tensor-level helpers -------------------------------------------------------


def tensor_star(a: SymTensorElement, b: SymTensorElement) -> SymTensorElement:
    """Componentwise star product on Sym (x) Sym.

    The tensor of the raw monomial products (D1, T1) and (D2, T2) is the raw
    product over D1 D2 with the terms (((g1, g2), e1 + e2), n1 n2); each
    pair of coefficient terms scales it into one part of ``sum_parts``."""
    a._require_same(b)
    ctx = _context(a.algebra)
    parts = []
    for ((a1, a2), ea), va in a._terms.items():
        for ((b1, b2), eb), vb in b._terms.items():
            d1, left = ctx.star_monomials(a1, b1)
            d2, right = ctx.star_monomials(a2, b2)
            terms = [
                (((g1, g2), e1 + e2), n1 * n2)
                for (g1, e1), n1 in left
                for (g2, e2), n2 in right
            ]
            den = d1 * d2 * va.denominator * vb.denominator
            parts.append((den, terms, va.numerator * vb.numerator, ea + eb))
    return SymTensorElement._raw(a.algebra, sum_parts(parts))


def tensor_counit_left(t: SymTensorElement) -> SymElement:
    """(eps (x) id) applied to a tensor."""
    zero = (0,) * t.algebra.dim
    terms = {(b, e): c for ((a, b), e), c in t._terms.items() if a == zero}
    return SymElement._raw(t.algebra, terms)


def tensor_counit_right(t: SymTensorElement) -> SymElement:
    zero = (0,) * t.algebra.dim
    terms = {(a, e): c for ((a, b), e), c in t._terms.items() if b == zero}
    return SymElement._raw(t.algebra, terms)


def _triple(t: SymTensorElement, left: bool) -> dict:
    """(Delta (x) id) of a tensor if left, else (id (x) Delta), as a
    triple-index dict."""
    out: dict = {}
    for ((a, b), e), c in t._terms.items():
        split = _split(a if left else b)
        add_scaled(out, [(((u, v, b) if left else (a, u, v), e), m) for (u, v), m in split], c)
    return out


def antipode_convolution(x: SymElement) -> SymElement:
    """mu_star (S (x) id) Delta(x); equals eta(eps(x)) when the antipode law holds.

    Each coproduct term c xi^a (x) xi^b contributes (-1)^|a| c times the raw
    monomial product xi^a * xi^b, one part of ``sum_parts`` per term of c."""
    ctx = _context(x.algebra)
    parts = []
    for ((a, b), e), v in coproduct(x)._terms.items():
        den, terms = ctx.star_monomials(a, b)
        parts.append((den * v.denominator, terms, (-1) ** sum(a) * v.numerator, e))
    return SymElement._raw(x.algebra, sum_parts(parts))


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass
class HopfReport:
    """Each checked law with its outcome; ``witness`` names an input on
    which the first failing law fails."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        lines = [f"{'pass' if p else 'FAIL'}  {name}" for name, p in self.checks]
        if self.witness:
            lines.append(f"witness: {self.witness}")
        return "\n".join(lines)


def verify_hopf(L: LieAlgebra, max_degree: int, seed: int = 0, samples: int = 4) -> HopfReport:
    """Check coassociativity, the counit and antipode laws, and the
    Delta-morphism law for the deformed product, on random elements."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rng = random.Random(seed)
    report = HopfReport()
    elements = [random_element(L, rng, max_degree) for _ in range(samples)]
    unit_multi = (0,) * L.dim

    def record(law: str, witness: Optional[str]) -> None:
        report.checks.append((law, witness is None))
        if report.witness is None:
            report.witness = witness

    laws = (
        (
            "coassociativity",
            "coassociativity (Delta x id)Delta = (id x Delta)Delta",
            lambda x: _triple(coproduct(x), True) == _triple(coproduct(x), False),
        ),
        (
            "counit law",
            "counit law (eps x id)Delta = id = (id x eps)Delta",
            lambda x: tensor_counit_left(coproduct(x)) == x == tensor_counit_right(coproduct(x)),
        ),
        (
            "antipode law",
            "antipode law mu(S x id)Delta = unit . counit",
            lambda x: antipode_convolution(x) == SymElement(L, {unit_multi: counit(x)}),
        ),
    )
    for short, law, holds in laws:
        bad = next((x for x in elements if not holds(x)), None)
        record(law, None if bad is None else f"{short} fails on {bad}")

    witness = None
    for x in elements:
        y = random_element(L, rng, max_degree)
        if coproduct(star_pbw(x, y)) != tensor_star(coproduct(x), coproduct(y)):
            witness = f"Delta-morphism fails on {x} and {y}"
            break
    record("coproduct is a morphism for the deformed product", witness)
    return report


def tensor_terms(p: Seminorm, t: SymTensorElement) -> list[tuple[int, Fraction, int]]:
    """The (|a|, |c| w^a w^b, |b|) triple of each term c xi^a (x) xi^b of t,
    in the order of t, for tensor_sum."""
    nums, dens = p._ratios
    out = []
    for ((a, b), e), c in t._terms.items():
        if e:
            raise ValueError("tensor norm needs z-constant coefficients")
        na, an, ad = weight_ratio(c, a, nums, dens)
        nb, bn, bd = weight_ratio(1, b, nums, dens)
        out.append((na, Fraction(an * bn, ad * bd), nb))
    return out


def tensor_sum(terms: list[tuple[int, Fraction, int]], R: RLike, scale: float = 1.0) -> float:
    """(scale*p)_R (x) (scale*p)_R from the tensor_terms of a tensor."""
    total = 0.0
    for na, weight, nb in terms:
        total += graded_term(nb, R, Fraction(1), scale) * graded_term(na, R, weight, scale)
    return total


def tensor_pR(p: Seminorm, R: RLike, t: SymTensorElement, scale: float = 1.0) -> float:
    """(scale*p)_R (x) (scale*p)_R of a tensor, exact for weighted l1 norms."""
    return tensor_sum(tensor_terms(p, t), R, scale)


# ---------------------------------------------------------------------------
# Weyl quotient of the Heisenberg algebra
# ---------------------------------------------------------------------------


def is_heisenberg_shaped(L: LieAlgebra) -> bool:
    """dim 3 with the single bracket [e0, e1] = s e2, s != 0 (basis P, Q, E)."""
    if L.dim != 3 or len(L.brackets) != 1:
        return False
    i, j, row = L.brackets[0]
    return (i, j) == (0, 1) and len(row) == 1 and row[0][0] == 2


class WeylElement(SparseElement):
    """Element of the quotient by <E - c 1>, in Q^k P^l normal form."""

    __slots__ = ("central",)
    _field = "central"
    _mismatch = "central parameters differ"

    def __init__(
        self,
        central: Union[int, Fraction],
        terms: Mapping[tuple[int, int], CoeffLike] = (),
    ):
        super().__init__(Fraction(central), terms)

    @staticmethod
    def _key(central: Fraction, pair: tuple[int, int]) -> tuple[int, int]:
        key = index_tuple(pair)
        if key is None or len(key) != 2 or min(key) < 0:
            raise ValueError(f"bad exponent pair {pair!r}")
        return key

    def __repr__(self) -> str:
        parts = [
            f"({c})*Q^{k}P^{l}"
            for (k, l), c in sorted(self.items(), key=lambda t: (sum(t[0]), t[0]))
        ]
        return "<WeylElement " + (" + ".join(parts) or "0") + f" | E={self.central}>"


def weyl_project(x: SymElement, c: Union[int, Fraction]) -> WeylElement:
    """Quotient map: substitute E = c in every monomial (Q before P order)."""
    if not is_heisenberg_shaped(x.algebra):
        raise ValueError("Weyl projection needs the 3-dim Heisenberg algebra shape")
    c = Fraction(c)
    out: dict = {}
    # c^k vanishes only for c = 0 < k
    terms = [(((q, p), e), v * c**k) for ((p, q, k), e), v in x._terms.items() if c or not k]
    add_scaled(out, terms, 1)
    return WeylElement._raw(c, out)


def weyl_lift(L: LieAlgebra, w: WeylElement) -> SymElement:
    """The E-free representative of a Weyl element in Sym."""
    if not is_heisenberg_shaped(L):
        raise ValueError("Weyl lift needs the 3-dim Heisenberg algebra shape")
    return SymElement._raw(L, {((l, k, 0), e): c for ((k, l), e), c in w._terms.items()})


def weyl_mul(L: LieAlgebra, a: WeylElement, b: WeylElement) -> WeylElement:
    """Induced product on the quotient: lift, star-multiply, project.

    Well-defined because <E - c 1> is a two-sided star ideal (E is central
    for the deformed product as well)."""
    a._require_same(b)
    return weyl_project(star_pbw(weyl_lift(L, a), weyl_lift(L, b)), a.central)

