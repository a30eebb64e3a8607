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

q is unitriangular: q(xi^alpha) is the sorted word of alpha plus the terms of
Q(alpha) / n! with a power of z, all of them shorter words.  So the inverse
of a sorted word is xi^alpha minus the inverses of those shorter words, one
``sym.raw_sum`` over them, memoized per sorted word as Q is per multi-index.
The inverse of a PBW element is one more ``raw_sum``, over the inverse rows
of its words, taken to the raw product ``(D, (((alpha, e), n), ...))``:
every numerator n over one common denominator D, all of them ints reduced
by their common gcd.

``star_pbw`` is the pull-back product q_z^{-1}(q_z(x) . q_z(y)), computed per
monomial pair as Q(alpha) Q(beta) / (|alpha|! |beta|!), and the reference
oracle for every other product construction in this package.  The star memo
keeps each monomial product in that raw form, immutable.  Both star
products here are one call of ``sym.bilinear``, shared with the BCH route
and the tensor star: each pair of terms scales its raw monomial product
into one part of ``sym.sum_parts``, and the parts are summed on the
numerators over one common denominator, so each output coefficient is
built once, as one ``Fraction``.  The star memo, the one table keyed by
pairs, holds at most ``STAR_MEMO_CAP`` products and is cleared when full;
callers keep the immutable raw products they were handed, so a clear is
safe at any point.

Give every letter and z degree 1: the rewriting rule is then homogeneous,
so a term of length m in Q(alpha), in a product of Q's or in an inverse
row carries exactly z^(n - m).  Every internal map is therefore flat,
``{(word or multi-index, e): coeff}`` or the raw product's
``((gamma, e), n)`` pairs, with e the power of z, and every accumulation runs
through ``zpoly.add_scaled``; the kernel counts e one bracket at a time.
Elements store the same flat form, so ``pbw_mul``, ``q_z`` and ``q_z_inv``
pass their terms to the context and wrap its result unconverted.
``star_pbw`` reads e as the z-exponent, while ``star_graded`` drops it and
reweights by the degree drop, so the two routes still check each other.  One
context (kernel, Q memo, inverse memo and star memo) serves each algebra and
both routes.

Rational structure constants flow through the kernel and the Q memo as
``Fraction`` coefficients; each inverse row and raw product splits them into
int numerators and denominators, so the inverse memo and the star memo hold
ints for every algebra.  Elements always store ``Fraction`` coefficients,
and show them per key as ``PolyZ``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .kernel import PbwKernel
from .liealg import LieAlgebra, LieHom, _bracket_table, check_hom
from .sym import (
    MultiIndex, SparseElement, SymElement, bilinear, index_tuple, raw_sum, sum_parts, sym_mul
)
from .zpoly import CoeffLike, add_scaled

Word = tuple[int, ...]
STAR_MEMO_CAP = 4096  # monomial products held per algebra; cleared when full


class PbwElement(SparseElement):
    """Element of U(g_z) expanded in sorted (normal-ordered) words."""

    __slots__ = ("algebra",)

    @staticmethod
    def _key(algebra: LieAlgebra, word: Word) -> Word:
        key = index_tuple(word)
        if key is None or any(not 0 <= i < algebra.dim for i in key):
            raise ValueError(f"word {word!r} uses letters outside the basis")
        if key != tuple(sorted(key)):
            raise ValueError(f"word {word!r} is not normal-ordered")
        return key

    @classmethod
    def unit(cls, algebra: LieAlgebra, coeff: CoeffLike = 1) -> "PbwElement":
        return cls(algebra, {(): coeff})

    def __repr__(self) -> str:
        names = self.algebra.basis_names
        parts = [
            f"({c})*{'*'.join(names[i] for i in w) or '1'}"
            for w, c in sorted(self.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return "<PbwElement " + (" + ".join(parts) or "0") + ">"


# ---------------------------------------------------------------------------
# per-algebra computation contexts
# ---------------------------------------------------------------------------


class _Context:
    """Kernel plus memo tables for one algebra, shared by every route.

    The star memo, keyed by pairs, holds at most ``STAR_MEMO_CAP`` entries,
    enough for the working set of every default experiment sweep.  The
    kernel's insert memo (per letter and sorted word), the Q memo (per
    multi-index) and ``inv_cache`` (per sorted word) are not capped: they
    grow with the degree in use, not with the pairs.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        rows = {}
        for (i, j), row in _bracket_table(algebra).items():
            rows[(i, j)] = row
            rows[(j, i)] = tuple((k, -c) for k, c in row)
        self.kernel = PbwKernel(rows)
        self.q_cache: dict[MultiIndex, dict] = {}
        self.inv_cache: dict[Word, tuple] = {}
        self.star_cache: dict[tuple[MultiIndex, MultiIndex], tuple] = {}

    # Internals speak flat maps with int numerators where the constants
    # allow; PolyZ and Fraction appear at the public boundary only.

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
                    add_scaled(acc, insert(i, word).items(), a * c, e)
        self.q_cache[alpha] = acc
        return acc

    def multiply_raw(self, a: dict, b: dict) -> dict:
        out: dict = {}
        word_mul = self.kernel.word_mul
        for (u, eu), cu in a.items():
            for (v, ev), cv in b.items():
                add_scaled(out, word_mul(u, v).items(), cu * cv, eu + ev)
        return out

    def q_raw(self, terms: dict) -> dict:
        out: dict = {}
        for (alpha, e), c in terms.items():
            add_scaled(out, self.q_monomial(alpha).items(), Fraction(c, factorial(sum(alpha))), e)
        return out

    def q_inv_word(self, word: Word) -> tuple:
        """q_z^{-1} of a sorted word as the raw product ``(D, {(alpha, e): n})``;
        callers must not mutate.  q(xi^alpha) is the word plus the terms of
        Q(alpha) / n! with e > 0, all of them shorter words, so q^{-1}(word)
        is xi^alpha minus those terms' inverse rows."""
        cached = self.inv_cache.get(word)
        if cached is not None:
            return cached
        alpha = _word_to_multi(word, self.algebra.dim)
        f = factorial(len(word))
        parts = [(1, (((alpha, 0), 1),), 1, 0)]
        for (w, e), c in self.q_monomial(alpha).items():
            if e:
                d, row = self.q_inv_word(w)
                parts.append((d * f * c.denominator, row.items(), -c.numerator, e))
        cached = self.inv_cache[word] = raw_sum(parts)
        return cached

    def q_inv_raw(self, u: dict, denom: int = 1) -> tuple:
        """q_z^{-1}(u / denom) as the raw product ``(D, (((alpha, e), n), ...))``:
        the coefficient of z^e xi^alpha is n / D, with D and the int numerators
        reduced by their common gcd."""
        parts = []
        for (w, e), c in u.items():
            d, row = self.q_inv_word(w)
            parts.append((d * denom * c.denominator, row.items(), c.numerator, e))
        denom, acc = raw_sum(parts)
        g = gcd(denom, *acc.values())
        return denom // g, tuple((key, n // g) for key, n in acc.items())

    def star_monomials(self, alpha: MultiIndex, beta: MultiIndex) -> tuple:
        """Raw xi^alpha * xi^beta as ``(D, (((gamma, e), n), ...))``, the
        form of ``q_inv_raw``; immutable, so callers may keep it."""
        key = (alpha, beta)
        cached = self.star_cache.get(key)
        if cached is None:
            product = self.multiply_raw(self.q_monomial(alpha), self.q_monomial(beta))
            cached = self.q_inv_raw(product, factorial(sum(alpha)) * factorial(sum(beta)))
            if len(self.star_cache) >= STAR_MEMO_CAP:
                self.star_cache.clear()
            self.star_cache[key] = cached
        return cached


def _decrement(alpha: MultiIndex, i: int) -> MultiIndex:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


def _word_to_multi(word: Word, dim: int) -> MultiIndex:
    counts = [0] * dim
    for i in word:
        counts[i] += 1
    return tuple(counts)


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
    return PbwElement._raw(a.algebra, ctx.multiply_raw(a._terms, b._terms))


def q_z(x: SymElement) -> PbwElement:
    """PBW symmetrization map Sym(g) -> U(g_z)."""
    ctx = _context(x.algebra)
    return PbwElement._raw(x.algebra, ctx.q_raw(x._terms))


def q_z_inv(u: PbwElement) -> SymElement:
    """Exact inverse of q_z."""
    denom, terms = _context(u.algebra).q_inv_raw(u._terms)
    return SymElement._raw(u.algebra, sum_parts([(denom, terms, 1, 0)]))


def star_pbw(x: SymElement, y: SymElement) -> SymElement:
    """The star product q_z^{-1}(q_z(x) . q_z(y)); the oracle product.  The
    power of z of each term is the kernel's bracket count e.

    ``sym.bilinear`` over the monomial products of the star memo, each a raw
    product (D, terms); a product of two monomials with z-constant
    coefficients is one part, read off directly.
    """
    x._require_same(y)
    ctx = _context(x.algebra)
    return SymElement._raw(x.algebra, bilinear(x._terms, y._terms, ctx.star_monomials))


def star_graded(x: SymElement, y: SymElement) -> SymElement:
    """The degree-graded construction: the PBW product with its bracket
    count dropped, and the degree-(k+l-n) part of each homogeneous block
    reweighted by z^n.

    Q[z]-bilinear through ``sym.bilinear``.  Equals star_pbw.
    """
    x._require_same(y)
    ctx = _context(x.algebra)

    def graded(alpha: MultiIndex, beta: MultiIndex) -> tuple:
        kl = sum(alpha) + sum(beta)
        denom, terms = ctx.star_monomials(alpha, beta)
        return denom, [((gamma, kl - sum(gamma)), n) for (gamma, _), n in terms]

    return SymElement._raw(x.algebra, bilinear(x._terms, y._terms, graded))


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
    each monomial's image prod_i phi(e_i)^alpha_i, built once per monomial,
    is summed into one flat coefficient map.  The image columns and the
    units are built trusted."""
    target = phi.target
    basis = [tuple(int(k == i) for k in range(target.dim)) for i in range(target.dim)]
    images = [
        SymElement._raw(target, {(basis[k], 0): Fraction(c) for k, c in enumerate(col) if c})
        for col in phi.matrix
    ]
    unit = ((0,) * target.dim, 0)
    powers: dict = {}
    out: dict = {}
    for (alpha, e), c in x._terms.items():
        image = powers.get(alpha)
        if image is None:
            image = SymElement._raw(target, {unit: Fraction(1)})
            for i, a in enumerate(alpha):
                for _ in range(a):
                    image = sym_mul(image, images[i])
            powers[alpha] = image
        add_scaled(out, image._terms.items(), c, e)
    return SymElement._raw(target, out)


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
