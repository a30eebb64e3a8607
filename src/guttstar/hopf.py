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
from typing import Mapping, Optional, Union

from .liealg import LieAlgebra
from .pbw import star_pbw
from .sym import (
    MultiIndex,
    RLike,
    Seminorm,
    SymElement,
    graded_sum,
    graded_term,
    weight_ratio,
    weight_ratios,
)
from .zpoly import CoeffLike, PolyZ, zp_accumulate, zp_add_into, zp_eval, zp_mul

# ---------------------------------------------------------------------------
# Sym (x) Sym and the structure maps
# ---------------------------------------------------------------------------


class SymTensorElement:
    """Element of Sym(g) (x) Sym(g), sparse over pairs of multi-indices."""

    __slots__ = ("algebra", "_terms")

    def __init__(
        self,
        algebra: LieAlgebra,
        terms: Mapping[tuple[MultiIndex, MultiIndex], CoeffLike] = (),
    ):
        self.algebra = algebra
        clean: dict[tuple[MultiIndex, MultiIndex], PolyZ] = {}
        for (a, b), coeff in dict(terms).items():
            key = (tuple(a), tuple(b))
            c = PolyZ.coerce(coeff)
            if not c.is_zero:
                prev = clean.get(key)
                c = c + prev if prev is not None else c
                if c.is_zero:
                    clean.pop(key, None)
                else:
                    clean[key] = c
        self._terms = clean

    @classmethod
    def _raw(
        cls, algebra: LieAlgebra, terms: dict[tuple[MultiIndex, MultiIndex], PolyZ]
    ) -> "SymTensorElement":
        """Trusted constructor: terms is already canonical (pairs of valid
        multi-index tuples, nonzero PolyZ coefficients) and is not copied."""
        t = cls.__new__(cls)
        t.algebra = algebra
        t._terms = terms
        return t

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "SymTensorElement") -> "SymTensorElement":
        out = dict(self._terms)
        for key, c in other._terms.items():
            prev = out.get(key)
            s = c + prev if prev is not None else c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return SymTensorElement(self.algebra, out)

    def __sub__(self, other: "SymTensorElement") -> "SymTensorElement":
        return self + other.scale(-1)

    def scale(self, coeff: CoeffLike) -> "SymTensorElement":
        c = PolyZ.coerce(coeff)
        return SymTensorElement(
            self.algebra, {k: v * c for k, v in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymTensorElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __repr__(self) -> str:
        return f"<SymTensorElement terms={len(self._terms)}>"


def coproduct(x: SymElement) -> SymTensorElement:
    """Shuffle-type coproduct; on a monomial xi^alpha it is
    sum_{0<=beta<=alpha} prod_i C(alpha_i, beta_i) xi^beta (x) xi^(alpha-beta)."""
    import math

    L = x.algebra
    out: dict[tuple[MultiIndex, MultiIndex], PolyZ] = {}
    for alpha, coeff in x.items():
        for beta in _sub_indices(alpha):
            mult = 1
            for a, b in zip(alpha, beta):
                mult *= math.comb(a, b)
            key = (beta, tuple(a - b for a, b in zip(alpha, beta)))
            c = coeff * mult
            prev = out.get(key)
            c = c + prev if prev is not None else c
            if c.is_zero:
                out.pop(key, None)
            else:
                out[key] = c
    return SymTensorElement(L, out)


def _sub_indices(alpha: MultiIndex):
    if not alpha:
        yield ()
        return
    for head in range(alpha[0] + 1):
        for rest in _sub_indices(alpha[1:]):
            yield (head,) + rest


def antipode(x: SymElement) -> SymElement:
    """Multiplies the degree-n component by (-1)^n."""
    return SymElement(
        x.algebra,
        {a: c if sum(a) % 2 == 0 else -c for a, c in x.items()},
    )


def counit(x: SymElement) -> PolyZ:
    """Projection onto degree zero."""
    return x.coefficient((0,) * x.algebra.dim)


# tensor-level helpers -------------------------------------------------------


def tensor_star(a: SymTensorElement, b: SymTensorElement) -> SymTensorElement:
    """Componentwise star product on Sym (x) Sym."""
    L = a.algebra
    out: dict[tuple[MultiIndex, MultiIndex], dict] = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            left = star_pbw(SymElement.monomial(L, a1), SymElement.monomial(L, b1))
            right = star_pbw(SymElement.monomial(L, a2), SymElement.monomial(L, b2))
            coeff = zp_mul(ca._c, cb._c)
            for al, cl in left.items():
                scaled = zp_mul(cl._c, coeff)
                for ar, cr in right.items():
                    zp_accumulate(out, (al, ar), scaled, cr._c)
    return SymTensorElement._raw(L, {k: PolyZ._raw(c) for k, c in out.items()})


def tensor_counit_left(t: SymTensorElement) -> SymElement:
    """(eps (x) id) applied to a tensor."""
    zero = (0,) * t.algebra.dim
    return SymElement(
        t.algebra, {b: c for (a, b), c in t.items() if a == zero}
    )


def tensor_counit_right(t: SymTensorElement) -> SymElement:
    zero = (0,) * t.algebra.dim
    return SymElement(
        t.algebra, {a: c for (a, b), c in t.items() if b == zero}
    )


def _triple_left(t: SymTensorElement) -> dict:
    """(Delta (x) id) of a tensor, as a triple-index dict."""
    out: dict = {}
    for (a, b), c in t.items():
        inner = coproduct(SymElement.monomial(t.algebra, a))
        for (a1, a2), ci in inner.items():
            key = (a1, a2, b)
            prev = out.get(key)
            s = c * ci + prev if prev is not None else c * ci
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _triple_right(t: SymTensorElement) -> dict:
    """(id (x) Delta) of a tensor, as a triple-index dict."""
    out: dict = {}
    for (a, b), c in t.items():
        inner = coproduct(SymElement.monomial(t.algebra, b))
        for (b1, b2), ci in inner.items():
            key = (a, b1, b2)
            prev = out.get(key)
            s = c * ci + prev if prev is not None else c * ci
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def antipode_convolution(x: SymElement) -> SymElement:
    """mu_star (S (x) id) Delta(x); equals eta(eps(x)) when the antipode law holds."""
    L = x.algebra
    out: dict[MultiIndex, dict] = {}
    for (a, b), c in coproduct(x).items():
        term = star_pbw(antipode(SymElement.monomial(L, a)), SymElement.monomial(L, b))
        for alpha, t in term.items():
            zp_accumulate(out, alpha, c._c, t._c)
    return SymElement._raw(L, {k: PolyZ._raw(v) for k, v in out.items()})


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


def random_element(
    L: LieAlgebra,
    rng: random.Random,
    max_degree: int,
    terms: int = 3,
    with_z: bool = False,
) -> SymElement:
    """Sparse random element with small rational coefficients."""
    data = {}
    for _ in range(terms):
        degree = rng.randint(0, max_degree)
        alpha = [0] * L.dim
        for _ in range(degree):
            alpha[rng.randrange(L.dim)] += 1
        num = rng.randint(-9, 9) or 1
        den = rng.randint(1, 9)
        coeff = PolyZ({rng.randint(0, 2) if with_z else 0: Fraction(num, den)})
        data[tuple(alpha)] = data.get(tuple(alpha), PolyZ()) + coeff
    return SymElement(L, data)


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
            lambda x: _triple_left(coproduct(x)) == _triple_right(coproduct(x)),
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
    nums, dens = weight_ratios(p)
    out = []
    for (a, b), c in t.items():
        if not c.is_constant:
            raise ValueError("tensor norm needs z-constant coefficients")
        na, an, ad = weight_ratio(c.coeff(0), a, nums, dens)
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


class WeylElement:
    """Element of the quotient by <E - c 1>, in Q^k P^l normal form."""

    __slots__ = ("central", "_terms")

    def __init__(
        self,
        central: Union[int, Fraction],
        terms: Mapping[tuple[int, int], CoeffLike] = (),
    ):
        self.central = Fraction(central)
        clean: dict[tuple[int, int], PolyZ] = {}
        for key, coeff in dict(terms).items():
            key = (int(key[0]), int(key[1]))
            c = PolyZ.coerce(coeff)
            if not c.is_zero:
                prev = clean.get(key)
                c = c + prev if prev is not None else c
                if c.is_zero:
                    clean.pop(key, None)
                else:
                    clean[key] = c
        self._terms = clean

    @classmethod
    def _raw(cls, central: Fraction, terms: dict[tuple[int, int], PolyZ]) -> "WeylElement":
        """Trusted constructor: terms is already canonical (int pairs, nonzero
        PolyZ coefficients) and is not copied."""
        w = cls.__new__(cls)
        w.central = central
        w._terms = terms
        return w

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.central != other.central:
            raise ValueError("central parameters differ")
        out = dict(self._terms)
        for key, c in other._terms.items():
            prev = out.get(key)
            s = c + prev if prev is not None else c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return WeylElement(self.central, out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + other.scale(-1)

    def scale(self, coeff: CoeffLike) -> "WeylElement":
        return WeylElement(
            self.central, {k: v * PolyZ.coerce(coeff) for k, v in self._terms.items()}
        )

    def evaluate_z(self, z0: Union[int, Fraction]) -> "WeylElement":
        z0 = Fraction(z0)
        out = {}
        for k, c in self._terms.items():
            v = zp_eval(c._c, z0)
            if v:
                out[k] = PolyZ._raw({0: v})
        return WeylElement._raw(self.central, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.central == other.central and self._terms == other._terms

    def __repr__(self) -> str:
        parts = [
            f"({c})*Q^{k}P^{l}"
            for (k, l), c in sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))
        ]
        return "<WeylElement " + (" + ".join(parts) or "0") + f" | E={self.central}>"


def weyl_project(x: SymElement, c: Union[int, Fraction]) -> WeylElement:
    """Quotient map: substitute E = c in every monomial (Q before P order)."""
    if not is_heisenberg_shaped(x.algebra):
        raise ValueError("Weyl projection needs the 3-dim Heisenberg algebra shape")
    c = Fraction(c)
    out: dict[tuple[int, int], dict] = {}
    for (p_exp, q_exp, e_exp), coeff in x.items():
        key = (q_exp, p_exp)
        acc = out.setdefault(key, {})
        zp_add_into(acc, coeff._c, c**e_exp)
        if not acc:
            del out[key]
    return WeylElement._raw(c, {k: PolyZ._raw(v) for k, v in out.items()})


def weyl_lift(L: LieAlgebra, w: WeylElement) -> SymElement:
    """The E-free representative of a Weyl element in Sym."""
    if not is_heisenberg_shaped(L):
        raise ValueError("Weyl lift needs the 3-dim Heisenberg algebra shape")
    return SymElement(L, {(l, k, 0): c for (k, l), c in w.items()})


def weyl_mul(L: LieAlgebra, a: WeylElement, b: WeylElement) -> WeylElement:
    """Induced product on the quotient: lift, star-multiply, project.

    Well-defined because <E - c 1> is a two-sided star ideal (E is central
    for the deformed product as well)."""
    if a.central != b.central:
        raise ValueError("central parameters differ")
    return weyl_project(star_pbw(weyl_lift(L, a), weyl_lift(L, b)), a.central)


def weyl_terms(p: Seminorm, w: WeylElement) -> list[tuple[int, Fraction]]:
    """The (degree, |c| w^alpha) pair of each term of w, in the order of w,
    for sym.graded_sum."""
    nums, dens = weight_ratios(p)
    out = []
    for (k, l), c in w.items():
        if not c.is_constant:
            raise ValueError("norm needs z-constant coefficients; evaluate_z first")
        n, num, den = weight_ratio(c.coeff(0), (l, k), nums, dens)  # P^l Q^k
        out.append((n, Fraction(num, den)))
    return out


def weyl_pR(p: Seminorm, R: RLike, w: WeylElement, scale: float = 1.0) -> float:
    """(scale*p)_R of a Weyl element in its Q^k P^l normal form."""
    return graded_sum(weyl_terms(p, w), R, scale)
