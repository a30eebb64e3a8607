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
exact: c/D q(xi^alpha) = c Q(alpha) / (D m!).  The result is
``(D, ((alpha, e, n), ...))``: every numerator n over the final D, and with
integral constants all of them ints reduced by their common gcd.
``star_pbw`` is the pull-back product q_z^{-1}(q_z(x) . q_z(y)), computed per
monomial pair as Q(alpha) Q(beta) / (|alpha|! |beta|!), and the reference
oracle for every other product construction in this package.  The star memo
keeps each monomial product in that ``(D, terms)`` form, immutable; the
public products sum their pairs on the numerators over one common
denominator and build each output coefficient as one ``Fraction``.  A
product of two unit monomials is served from a second memo of ready
``{gamma: PolyZ}`` maps, shared by every call: each call gets a fresh terms
dict over the same PolyZ objects, which is safe because nothing mutates a
PolyZ once built.

Give every letter and z degree 1: the rewriting rule is then homogeneous,
so a term of length m in Q(alpha), in a product of Q's or in any step of the
elimination carries exactly z^(n - m).  Every internal map is therefore flat,
``{(word or multi-index, e): coeff}`` or the star memo's ``(gamma, e, n)``
triples, with e the power of z; the kernel counts e one bracket at a time.
``star_pbw`` reads e as the z-exponent, while ``star_graded`` drops it and
reweights by the degree drop, so the two routes still check each other.  One
context (kernel, Q memo and the two star memos) serves each algebra and both
routes.

Rational structure constants flow through the same code as ``Fraction``
numerators, which are not reduced by a gcd.  Public elements always carry
``Fraction`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable

from .kernel import PbwKernel, add_scaled
from .liealg import LieAlgebra, LieHom, _bracket_table, check_hom
from .sym import MultiIndex, SparseElement, SymElement, sym_mul
from .zpoly import CoeffLike, PolyZ

Word = tuple[int, ...]
_UNIT = {0: 1}  # the raw coefficient dict of the constant 1


class PbwElement(SparseElement):
    """Element of U(g_z) expanded in sorted (normal-ordered) words."""

    __slots__ = ("algebra",)

    @staticmethod
    def _key(algebra: LieAlgebra, word: Word) -> Word:
        word = tuple(word)
        if any(not 0 <= i < algebra.dim for i in word):
            raise ValueError(f"word {word} uses letters outside the basis")
        if any(word[t] > word[t + 1] for t in range(len(word) - 1)):
            raise ValueError(f"word {word} is not normal-ordered")
        return word

    @classmethod
    def unit(cls, algebra: LieAlgebra, coeff: CoeffLike = 1) -> "PbwElement":
        return cls(algebra, {(): coeff})

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
    """Kernel plus memo tables for one algebra, shared by every route."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        rows = {}
        for (i, j), row in _bracket_table(algebra).items():
            rows[(i, j)] = row
            rows[(j, i)] = tuple((k, -c) for k, c in row)
        self.kernel = PbwKernel(algebra.dim, rows)
        self.q_cache: dict[MultiIndex, dict] = {}
        self.star_cache: dict[tuple[MultiIndex, MultiIndex], tuple] = {}
        # star_pbw of unit monomials as {gamma: PolyZ}, shared by every call
        self.unit_cache: dict[tuple[MultiIndex, MultiIndex], dict] = {}

    # Internals speak flat maps with int numerators where the constants
    # allow; PolyZ and Fraction appear at the public boundary only, which
    # keeps the elimination free of wrapper churn and gcd normalization.

    def q_monomial(self, alpha: MultiIndex) -> dict:
        """Q(alpha) = |alpha|! q(xi^alpha); callers must not mutate."""
        cached = self.q_cache.get(alpha)
        if cached is not None:
            return cached
        acc = {} if any(alpha) else {((), 0): 1}
        insert = self.kernel.insert
        for i, a in enumerate(alpha):
            if a:
                for (word, e), c in self.q_monomial(_decrement(alpha, i)).items():
                    add_scaled(acc, insert(i, word), a * c, e)
        self.q_cache[alpha] = acc
        return acc

    def multiply_raw(self, a: dict, b: dict) -> dict:
        out: dict = {}
        word_mul = self.kernel.word_mul
        for (u, eu), cu in a.items():
            for (v, ev), cv in b.items():
                add_scaled(out, word_mul(u, v), cu * cv, eu + ev)
        return out

    def q_raw(self, terms: dict) -> dict:
        out: dict = {}
        for (alpha, e), c in terms.items():
            add_scaled(out, self.q_monomial(alpha), Fraction(c, factorial(sum(alpha))), e)
        return out

    def q_inv_raw(self, u: dict, denom: int = 1) -> tuple:
        """q_z^{-1}(u / denom), by triangular elimination on the word length,
        as ``(D, ((alpha, e, n), ...))``: the coefficient of z^e xi^alpha is
        n / D.  Integer numerators come out reduced by their common gcd with D.

        Consumes u: its coefficients become the working numerators.
        """
        dim = self.algebra.dim
        layers = []  # (D when the layer was taken off, [(alpha, e, c), ...])
        remaining = u
        top_len = max(len(w) for w, _ in remaining) if remaining else 0
        while remaining:
            final = top_len < 2  # q is the identity on words of length 0 and 1
            layer = []
            for (w, e), c in remaining.items():
                if final or len(w) == top_len:
                    layer.append((_word_to_multi(w, dim), e, c))
            layers.append((denom, layer))
            if final:
                break
            f = factorial(top_len)
            for key in remaining:
                remaining[key] *= f
            denom *= f
            # c/D q(xi^alpha) = c Q(alpha) / (D f): subtract c Q(alpha), whose top
            # word (f times the sorted word) cancels the layer's scaled numerator
            for alpha, e, c in layer:
                add_scaled(remaining, self.q_monomial(alpha), -c, e)
            shorter = max(len(w) for w, _ in remaining) if remaining else 0
            assert shorter < top_len, "elimination failed"
            top_len = shorter
        terms = [(alpha, e, c * (denom // d)) for d, layer in layers for alpha, e, c in layer]
        try:
            g = gcd(denom, *[n for _, _, n in terms])
        except TypeError:  # Fraction numerators (rational constants or inputs)
            return denom, tuple(terms)
        if g > 1:
            denom //= g
            terms = [(alpha, e, n // g) for alpha, e, n in terms]
        return denom, tuple(terms)

    def star_monomials(self, alpha: MultiIndex, beta: MultiIndex) -> tuple:
        """Raw xi^alpha * xi^beta as ``(D, ((gamma, e, n), ...))``, the form
        of ``q_inv_raw``; immutable, so callers may keep it."""
        key = (alpha, beta)
        cached = self.star_cache.get(key)
        if cached is None:
            product = self.multiply_raw(self.q_monomial(alpha), self.q_monomial(beta))
            cached = self.q_inv_raw(product, factorial(sum(alpha)) * factorial(sum(beta)))
            self.star_cache[key] = cached
        return cached


def _decrement(alpha: MultiIndex, i: int) -> MultiIndex:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


def _word_to_multi(word: Word, dim: int) -> MultiIndex:
    counts = [0] * dim
    for i in word:
        counts[i] += 1
    return tuple(counts)


def _flatten(items: Iterable[tuple[tuple, PolyZ]]) -> dict:
    """Public (key, PolyZ) pairs as the flat map {(key, e): coeff}."""
    return {(key, e): c for key, p in items for e, c in p.items()}


def _grouped(items: Iterable[tuple[tuple, CoeffLike]]) -> dict:
    """The flat items ((key, e), coeff), each (key, e) once, as fresh
    {key: PolyZ}."""
    out: dict = {}
    for (key, e), c in items:
        p = out.get(key)
        if p is None:
            out[key] = PolyZ._raw({e: c})
        else:
            p._c[e] = c
    return out


_contexts: dict[LieAlgebra, _Context] = {}


def _context(algebra: LieAlgebra) -> _Context:
    ctx = _contexts.get(algebra)
    if ctx is None:
        ctx = _contexts[algebra] = _Context(algebra)
    return ctx


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def pbw_mul(a: PbwElement, b: PbwElement) -> PbwElement:
    """Product in U(g_z), rewritten to the normal-ordered basis."""
    a._require_same(b)
    ctx = _context(a.algebra)
    product = ctx.multiply_raw(_flatten(a.items()), _flatten(b.items()))
    return PbwElement(a.algebra, _grouped(product.items()))


def q_z(x: SymElement) -> PbwElement:
    """PBW symmetrization map Sym(g) -> U(g_z)."""
    ctx = _context(x.algebra)
    return PbwElement(x.algebra, _grouped(ctx.q_raw(_flatten(x.items())).items()))


def q_z_inv(u: PbwElement) -> SymElement:
    """Exact inverse of q_z."""
    denom, terms = _context(u.algebra).q_inv_raw(_flatten(u.items()))
    flat = (((alpha, e), Fraction(n, denom)) for alpha, e, n in terms)
    return SymElement._raw(u.algebra, _grouped(flat))


def star_pbw(x: SymElement, y: SymElement) -> SymElement:
    """The star product q_z^{-1}(q_z(x) . q_z(y)); the oracle product.  The
    power of z of each term is the kernel's bracket count e.

    Each pair of terms reads its monomial product from the star memo as
    numerators n over one denominator D (ints for integral constants), and
    every coefficient of the result is built as one ``Fraction`` at the end.  A pair of unit
    monomials (one term each, coefficient exactly 1) is served from a second
    memo of ready {gamma: PolyZ} maps: the result gets a fresh terms dict
    over the memo's PolyZ objects, which is safe because a PolyZ is never
    mutated once built.
    """
    x._require_same(y)
    ctx = _context(x.algebra)
    if len(x._terms) == 1 and len(y._terms) == 1:
        (alpha, ca), = x.items()
        (beta, cb), = y.items()
        if ca._c == _UNIT and cb._c == _UNIT:
            # looked up on every call, so that the star memo's hits count these
            denom, terms = ctx.star_monomials(alpha, beta)
            key = (alpha, beta)
            shared = ctx.unit_cache.get(key)
            if shared is None:
                shared = ctx.unit_cache[key] = _grouped(
                    ((gamma, e), Fraction(n, denom)) for gamma, e, n in terms
                )
            return SymElement._raw(x.algebra, dict(shared))
    parts = []
    for alpha, ca in x.items():
        for beta, cb in y.items():
            denom, terms = ctx.star_monomials(alpha, beta)
            for ea, a in ca._c.items():
                for eb, b in cb._c.items():
                    den = denom * a.denominator * b.denominator
                    parts.append((den, terms, a.numerator * b.numerator, ea + eb))
    return SymElement._raw(x.algebra, _sum_parts(parts))


def star_graded(x: SymElement, y: SymElement) -> SymElement:
    """The degree-graded construction: the PBW product with its bracket
    count dropped, and the degree-(k+l-n) part of each homogeneous block
    reweighted by z^n.

    Requires z-constant inputs.  Must coincide with star_pbw.
    """
    x._require_same(y)
    if not (x.is_z_constant and y.is_z_constant):
        raise ValueError("star_graded needs z-constant inputs")
    ctx = _context(x.algebra)
    parts = []
    for alpha, ca in x.items():
        for beta, cb in y.items():
            kl = sum(alpha) + sum(beta)
            denom, terms = ctx.star_monomials(alpha, beta)
            drop = [(gamma, kl - sum(gamma), n) for gamma, _, n in terms]
            a, b = ca.coeff(0), cb.coeff(0)
            den = denom * a.denominator * b.denominator
            parts.append((den, drop, a.numerator * b.numerator, 0))
    return SymElement._raw(x.algebra, _sum_parts(parts))


def _sum_parts(parts: list) -> dict:
    """sum num z^shift terms / den over the parts (den, ((gamma, e, n), ...),
    num, shift), with den and num nonzero ints, as fresh {gamma: PolyZ}.

    The sum runs on the numerators over the lcm of the parts' denominators,
    so each output coefficient is one ``Fraction``.
    """
    if len(parts) == 1:
        (den, terms, num, shift), = parts
        return _grouped([((gamma, e + shift), Fraction(n * num, den)) for gamma, e, n in terms])
    common = lcm(*(den for den, _, _, _ in parts))
    acc: dict = {}
    get = acc.get
    for den, terms, num, shift in parts:
        scale = num * (common // den)
        for gamma, e, n in terms:
            key = (gamma, e + shift)
            v = get(key)
            if v is None:
                acc[key] = n * scale
            elif v := v + n * scale:
                acc[key] = v
            else:
                del acc[key]
    return _grouped((key, Fraction(v, common)) for key, v in acc.items())


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
    out: dict = {}
    for alpha, coeff in x.items():
        image = SymElement.unit(target)
        for i, a in enumerate(alpha):
            for _ in range(a):
                image = sym_mul(image, images[i])
        flat = _flatten(image.items())
        for e, c in coeff.items():
            add_scaled(out, flat, c, e)
    return SymElement._raw(target, _grouped(out.items()))


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
