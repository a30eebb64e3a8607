"""Universal enveloping algebra in the normal-ordered PBW basis.

The enveloping algebra of the z-scaled bracket is presented on sorted words
over the basis, with the rewriting rule

    e_j e_i = e_i e_j + z [e_j, e_i]        (j > i)

carried out by the normal-ordering kernel.  The quantization map q_z
symmetrizes a monomial over all permutations,

    q(xi^alpha) = (1/n!) sum_sigma e_sigma(1) ... e_sigma(n),    n = |alpha|.

Grouping the sum by sigma(1) gives a division-free recursion for the scaled
symmetrization Q(alpha) = n! q(xi^alpha),

    Q(alpha) = sum_i alpha_i  e_i . Q(alpha - delta_i),    Q(0) = 1,

so Q(alpha) has integer coefficients whenever the structure constants are
integers; the kernel and the memo table of Q then hold Python ints only.

The inverse runs a top-down triangular elimination: q of a degree-n
monomial is its sorted word plus strictly shorter words.  The words still to
be eliminated are kept as numerators over one common denominator D.  Taking
off the words of length m reads each coefficient c / D, multiplies every
remaining numerator and D by m!, and subtracts c Q(alpha), which is then
exact: c/D q(xi^alpha) = c Q(alpha) / (D m!).  Each output coefficient
becomes one ``Fraction(c, D)``.  ``star_pbw`` is the pull-back product
q_z^{-1}(q_z(x) . q_z(y)), computed per monomial pair as
Q(alpha) Q(beta) / (|alpha|! |beta|!), and the reference oracle for every
other product construction in this package.

Rational structure constants flow through the same code as ``Fraction``
numerators.  Public elements always carry ``Fraction`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .kernel import PbwKernel
from .liealg import LieAlgebra, LieHom, check_hom
from .sym import MultiIndex, SymElement, sym_mul
from .zpoly import CoeffLike, PolyZ, zp_accumulate, zp_mul, zp_scale

Word = tuple[int, ...]
_UNIT = {0: 1}  # the raw coefficient dict of the constant 1


class PbwElement:
    """Element of U(g_z) expanded in sorted (normal-ordered) words."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: LieAlgebra, terms: Mapping[Word, CoeffLike] = ()):
        self.algebra = algebra
        clean: dict[Word, PolyZ] = {}
        for word, coeff in dict(terms).items():
            word = tuple(word)
            if any(not 0 <= i < algebra.dim for i in word):
                raise ValueError(f"word {word} uses letters outside the basis")
            if any(word[t] > word[t + 1] for t in range(len(word) - 1)):
                raise ValueError(f"word {word} is not normal-ordered")
            c = PolyZ.coerce(coeff)
            if not c.is_zero:
                prev = clean.get(word)
                c = c + prev if prev is not None else c
                if c.is_zero:
                    clean.pop(word, None)
                else:
                    clean[word] = c
        self._terms = clean

    @classmethod
    def unit(cls, algebra: LieAlgebra, coeff: CoeffLike = 1) -> "PbwElement":
        return cls(algebra, {(): coeff})

    def items(self) -> Iterable[tuple[Word, PolyZ]]:
        return self._terms.items()

    def coefficient(self, word: Word) -> PolyZ:
        return self._terms.get(tuple(word), PolyZ())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PbwElement") -> "PbwElement":
        if self.algebra != other.algebra:
            raise ValueError("elements live over different algebras")
        out = dict(self._terms)
        for w, c in other._terms.items():
            prev = out.get(w)
            s = c + prev if prev is not None else c
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return PbwElement(self.algebra, out)

    def __neg__(self) -> "PbwElement":
        return PbwElement(self.algebra, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "PbwElement") -> "PbwElement":
        return self + (-other)

    def scale(self, coeff: CoeffLike) -> "PbwElement":
        c = PolyZ.coerce(coeff)
        return PbwElement(self.algebra, {w: v * c for w, v in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PbwElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        names = self.algebra.basis_names
        parts = [
            f"({c})*{'*'.join(names[i] for i in w) or '1'}"
            for w, c in sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return "<PbwElement " + (" + ".join(parts) or "0") + ">"


# ---------------------------------------------------------------------------
# per-algebra computation contexts
# ---------------------------------------------------------------------------


class _Context:
    """Kernel plus memo tables for one algebra and one bracket weight."""

    def __init__(self, algebra: LieAlgebra, deformed: bool):
        self.algebra = algebra
        self.deformed = deformed
        rows = {}
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                if i != j:
                    row = tuple(
                        (k, c.numerator if c.denominator == 1 else c)
                        for k, c in sorted(algebra.basis_bracket(i, j).items())
                    )
                    if row:
                        rows[(i, j)] = row
        self.kernel = PbwKernel(algebra.dim, rows, deform=deformed)
        self.q_cache: dict[MultiIndex, dict] = {}
        self.star_cache: dict[tuple[MultiIndex, MultiIndex], dict] = {}

    # All internals speak the plain-dict coefficient representation
    # ({z_exp: coeff}, coeff an int numerator where the constants allow);
    # PolyZ wrapping and Fraction coefficients happen at the public boundary
    # only, which keeps the dominant elimination loops free of wrapper
    # object churn and of gcd normalization.

    def q_monomial(self, alpha: MultiIndex) -> dict[Word, dict]:
        """Q(alpha) = |alpha|! q(xi^alpha); callers must not mutate."""
        cached = self.q_cache.get(alpha)
        if cached is not None:
            return cached
        acc: dict[Word, dict] = {}
        if not any(alpha):
            acc[()] = {0: 1}
        for i, a in enumerate(alpha):
            if not a:
                continue
            for word, coeff in self.q_monomial(_decrement(alpha, i)).items():
                if a != 1:
                    coeff = zp_scale(coeff, a)
                for w2, c2 in self.kernel.insert(i, word).items():
                    zp_accumulate(acc, w2, coeff, c2)
        self.q_cache[alpha] = acc
        return acc

    def multiply_raw(self, a: dict, b: dict) -> dict:
        out: dict[Word, dict] = {}
        for u, cu in a.items():
            for v, cv in b.items():
                cuv = zp_mul(cu, cv)
                if not cuv:
                    continue
                for w, c in self.kernel.word_mul(u, v).items():
                    zp_accumulate(out, w, cuv, c)
        return out

    def q_raw(self, terms: dict) -> dict:
        out: dict[Word, dict] = {}
        for alpha, coeff in terms.items():
            scaled = zp_scale(coeff, Fraction(1, factorial(sum(alpha))))
            for w, c in self.q_monomial(alpha).items():
                zp_accumulate(out, w, scaled, c)
        return out

    def q_inv_raw(self, u: dict, denom: int = 1) -> dict:
        """q_z^{-1}(u / denom), by triangular elimination on the word length.

        Consumes u: its coefficient dicts become the working numerators.
        """
        dim = self.algebra.dim
        result: dict[MultiIndex, dict] = {}
        remaining = u
        while remaining:
            top_len = max(len(w) for w in remaining)
            layer = []
            for w in [w for w in remaining if len(w) == top_len]:
                coeff = remaining.pop(w)
                alpha = _word_to_multi(w, dim)
                result[alpha] = {e: Fraction(c, denom) for e, c in coeff.items()}
                layer.append((alpha, coeff))
            if top_len < 2:
                continue  # Q of degree 0 or 1 is its word alone
            f = factorial(top_len)
            for coeff in remaining.values():
                for e in coeff:
                    coeff[e] *= f
            denom *= f
            for alpha, coeff in layer:
                neg = zp_scale(coeff, -1)
                for w, c in self.q_monomial(alpha).items():
                    if len(w) < top_len:
                        zp_accumulate(remaining, w, neg, c)
            assert all(len(w) < top_len for w in remaining), "elimination failed"
        return result

    def star_monomials(self, alpha: MultiIndex, beta: MultiIndex) -> dict:
        """Raw xi^alpha * xi^beta; callers must not mutate."""
        key = (alpha, beta)
        cached = self.star_cache.get(key)
        if cached is None:
            product = self.multiply_raw(self.q_monomial(alpha), self.q_monomial(beta))
            cached = self.q_inv_raw(
                product, factorial(sum(alpha)) * factorial(sum(beta))
            )
            self.star_cache[key] = cached
        return cached


def _decrement(alpha: MultiIndex, i: int) -> MultiIndex:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


def _word_to_multi(word: Word, dim: int) -> MultiIndex:
    counts = [0] * dim
    for i in word:
        counts[i] += 1
    return tuple(counts)


def _sym_to_raw(x: SymElement) -> dict:
    return {alpha: c.as_dict() for alpha, c in x.items()}


def _raw_to_sym(algebra: LieAlgebra, terms: dict) -> SymElement:
    return SymElement._raw(
        algebra, {alpha: PolyZ._raw(c) for alpha, c in terms.items()}
    )


def _pbw_to_raw(u: PbwElement) -> dict:
    return {w: c.as_dict() for w, c in u.items()}


def _raw_to_pbw(algebra: LieAlgebra, terms: dict) -> PbwElement:
    return PbwElement(
        algebra, {w: PolyZ._raw(c) for w, c in terms.items() if c}
    )


_contexts: dict[tuple[LieAlgebra, bool], _Context] = {}


def _context(algebra: LieAlgebra, deformed: bool = True) -> _Context:
    key = (algebra, deformed)
    ctx = _contexts.get(key)
    if ctx is None:
        ctx = _contexts[key] = _Context(algebra, deformed)
    return ctx


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def pbw_mul(a: PbwElement, b: PbwElement) -> PbwElement:
    """Product in U(g_z), rewritten to the normal-ordered basis."""
    if a.algebra != b.algebra:
        raise ValueError("elements live over different algebras")
    ctx = _context(a.algebra)
    return _raw_to_pbw(a.algebra, ctx.multiply_raw(_pbw_to_raw(a), _pbw_to_raw(b)))


def q_z(x: SymElement) -> PbwElement:
    """PBW symmetrization map Sym(g) -> U(g_z)."""
    ctx = _context(x.algebra)
    return _raw_to_pbw(x.algebra, ctx.q_raw(_sym_to_raw(x)))


def q_z_inv(u: PbwElement) -> SymElement:
    """Exact inverse of q_z."""
    ctx = _context(u.algebra)
    return _raw_to_sym(u.algebra, ctx.q_inv_raw(_pbw_to_raw(u)))


def star_pbw(x: SymElement, y: SymElement) -> SymElement:
    """The star product q_z^{-1}(q_z(x) . q_z(y)); the oracle product.

    A pair of unit monomials (one term each, coefficient exactly 1) is
    served straight from the memo of monomial products, copied so that the
    result shares no dict with the memo.
    """
    if x.algebra != y.algebra:
        raise ValueError("elements live over different algebras")
    ctx = _context(x.algebra)
    if len(x._terms) == 1 and len(y._terms) == 1:
        (alpha, ca), = x.items()
        (beta, cb), = y.items()
        if ca._c == _UNIT and cb._c == _UNIT:
            cached = ctx.star_monomials(alpha, beta)
            return SymElement._raw(
                x.algebra, {gamma: PolyZ._raw(dict(cg)) for gamma, cg in cached.items()}
            )
    out: dict[MultiIndex, dict] = {}
    for alpha, ca in x.items():
        for beta, cb in y.items():
            c = zp_mul(ca, cb)
            for gamma, cg in ctx.star_monomials(alpha, beta).items():
                zp_accumulate(out, gamma, c, cg)
    return _raw_to_sym(x.algebra, out)


def star_graded(x: SymElement, y: SymElement) -> SymElement:
    """The degree-graded construction: undeformed PBW product, with the
    degree-(k+l-n) part of each homogeneous block reweighted by z^n.

    Requires z-constant inputs.  Must coincide with star_pbw.
    """
    if x.algebra != y.algebra:
        raise ValueError("elements live over different algebras")
    if not (x.is_z_constant and y.is_z_constant):
        raise ValueError("star_graded needs z-constant inputs")
    ctx = _context(x.algebra, deformed=False)
    out: dict[MultiIndex, dict] = {}
    for alpha, ca in x.items():
        for beta, cb in y.items():
            c = zp_mul(ca, cb)
            kl = sum(alpha) + sum(beta)
            for gamma, cg in ctx.star_monomials(alpha, beta).items():
                shift = kl - sum(gamma)
                zp_accumulate(out, gamma, c, {e + shift: v for e, v in cg.items()})
    return _raw_to_sym(x.algebra, out)


def lift_hom(phi: LieHom, x: SymElement) -> SymElement:
    """Sym-algebra morphism induced by a Lie algebra homomorphism."""
    if x.algebra != phi.source:
        raise ValueError("element does not live over the hom's source algebra")
    report = check_hom(phi)
    if not report:
        raise ValueError(f"not a Lie algebra homomorphism: {report}")
    return _lift_hom(phi, x)


def _lift_hom(phi: LieHom, x: SymElement) -> SymElement:
    """``lift_hom`` for a hom already checked and an element over its source:
    each monomial's image prod_i phi(e_i)^alpha_i is summed into one raw
    coefficient map."""
    target = phi.target
    images = [SymElement.from_vector(target, col) for col in phi.matrix]
    out: dict[MultiIndex, dict] = {}
    for alpha, coeff in x.items():
        image = SymElement.unit(target)
        for i, a in enumerate(alpha):
            for _ in range(a):
                image = sym_mul(image, images[i])
        for gamma, c in image.items():
            zp_accumulate(out, gamma, coeff._c, c._c)
    return _raw_to_sym(target, out)


def star(x: SymElement, y: SymElement, method: str = "pbw") -> SymElement:
    """Uniform front end over the three product constructions."""
    if method == "pbw":
        return star_pbw(x, y)
    if method == "graded":
        return star_graded(x, y)
    if method == "bch":
        from .bch import star_bch_elements

        return star_bch_elements(x, y)
    raise ValueError(f"unknown star method {method!r}")
