"""Baker-Campbell-Hausdorff machinery and the product constructions built on it.

The associative expansion of log(e^X e^Y) is computed exactly on words of two
letters; its word coefficients g_w are the Goldberg coefficients, and the
left-nested Dynkin bracketing [w] recovers the Lie form

    BCH_n(xi, eta) = sum_{|w| = n} (g_w / n) [w].

On top of that sit the bidegree components BCH_{a,b}, their polarization, the
Bernoulli-number formula for products with a linear factor, the composition
formula for the z^n coefficients C_n of the star product, and the kernel
identities used to prove the equivalence of the product constructions.

The composition formula gives the power products xi^k * eta^l (``star_bch``),
and it is the one BCH route for every product: by polarization,

    xi^alpha = (1/k!) sum_{0 != b <= alpha} (-1)^(k-|b|) prod_i C(alpha_i, b_i) (b . e)^k,

with k = |alpha|, every monomial is a signed sum of powers of integer
vectors, so ``star_bch_elements`` is a weighted sum of power products, and
``bch_tilde`` polarizes ``bch_ab`` over the subset sums of each block.

The BCH route runs on integer numerators, with ``Fraction`` only at the
boundary: each vector is scaled by the lcm of its denominators, each word
weight g_w/n is an integer over one denominator per degree, partial products
and leaf weights are ints, and every output coefficient is one ``Fraction``.
Rational structure constants take the same path as ``Fraction`` numerators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .liealg import LieAlgebra, Vector, _bracket, as_vector, nilpotency_index
from .pbw import star_pbw
from .sym import SymElement, exp_truncated, sym_mul
from .zpoly import PolyZ

MAX_TRUNCATION = 12
DEFAULT_TRUNCATION = 8

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# free associative series on the letters X, Y
# ---------------------------------------------------------------------------


class FreeSeries:
    """Truncated series in the free algebra on {X, Y}, rational coefficients."""

    __slots__ = ("truncation", "terms")

    def __init__(self, truncation: int, terms: Optional[dict[str, Fraction]] = None):
        self.truncation = truncation
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if len(w) > truncation:
                    continue
                c = Fraction(c)
                if c:
                    self.terms[w] = c

    def coefficient(self, word: str) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def slice(self, n: int) -> dict[str, Fraction]:
        return {w: c for w, c in self.terms.items() if len(w) == n}

    def bidegree_slice(self, a: int, b: int) -> dict[str, Fraction]:
        return {
            w: c
            for w, c in self.terms.items()
            if w.count("X") == a and w.count("Y") == b
        }

    def add_scaled(self, other: "FreeSeries", scale: Fraction) -> "FreeSeries":
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, Fraction(0)) + c * scale
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return FreeSeries(self.truncation, out)

    def mul(self, other: "FreeSeries") -> "FreeSeries":
        out: dict[str, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                if len(wa) + len(wb) > self.truncation:
                    continue
                w = wa + wb
                v = out.get(w, Fraction(0)) + ca * cb
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
        return FreeSeries(self.truncation, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeSeries):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"<FreeSeries truncation={self.truncation} terms={n}>"


@lru_cache(maxsize=None)
def log_expansion(truncation: int) -> FreeSeries:
    """Coefficients of log(e^X e^Y) on all words of length <= truncation."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > MAX_TRUNCATION:
        raise ValueError(f"truncation above the supported maximum {MAX_TRUNCATION}")
    return _log_expansion_impl(truncation)


def _bucket(n: int) -> int:
    """The truncation whose cached expansion covers degree n; a few buckets
    keep the caches small."""
    if n > MAX_TRUNCATION:
        raise ValueError(f"degree {n} above the supported truncation {MAX_TRUNCATION}")
    for bucket in (DEFAULT_TRUNCATION, 10, MAX_TRUNCATION):
        if n <= bucket:
            return bucket
    raise AssertionError("unreachable")


def _series_for(n: int) -> FreeSeries:
    """A cached expansion covering degree n."""
    return log_expansion(_bucket(n))


def _log_expansion_impl(truncation: int) -> FreeSeries:
    """log(e^X e^Y) = sum_m (-1)^(m+1)/m E^m with E = e^X e^Y - 1, on ints.

    In the scaled form S(w) = |w|! coeff(w), E is C(a+b, a) on X^a Y^b and a
    product picks up S(uv) = C(|uv|, |u|) S(u) S(v), so every power E^m is an
    integer series; the sum over m runs over M = lcm(1..truncation), and each
    word's coefficient is one Fraction(sum, M |w|!).
    """
    e_terms = [
        ("X" * a + "Y" * (n - a), math.comb(n, a))
        for n in range(1, truncation + 1)
        for a in range(n + 1)
    ]
    M = math.lcm(*range(1, truncation + 1))
    power = {"": 1}
    total: dict[str, int] = {}
    for m in range(1, truncation + 1):
        nxt: dict[str, int] = {}
        for u, cu in power.items():
            lu = len(u)
            for v, cv in e_terms:
                n = lu + len(v)
                if n > truncation:
                    break
                w = u + v
                nxt[w] = nxt.get(w, 0) + math.comb(n, lu) * cu * cv
        power = nxt
        scale = M // m if m % 2 else -(M // m)
        for w, c in power.items():
            total[w] = total.get(w, 0) + scale * c
    return FreeSeries(
        truncation,
        {w: Fraction(c, M * math.factorial(len(w))) for w, c in total.items() if c},
    )


@lru_cache(maxsize=None)
def _goldberg_weights(truncation: int) -> tuple[dict[str, int], tuple[int, ...]]:
    """The weights g_w/|w| of log_expansion(truncation) as integer numerators
    over one denominator G_n per word length n: ({word: numerator}, G)."""
    by_length: list[dict[str, Fraction]] = [{} for _ in range(truncation + 1)]
    for w, g in log_expansion(truncation).terms.items():
        by_length[len(w)][w] = g / len(w)
    dens = tuple(math.lcm(*(q.denominator for q in d.values())) for d in by_length)
    numerators = {
        w: q.numerator * (dens[n] // q.denominator)
        for n, d in enumerate(by_length)
        for w, q in d.items()
    }
    return numerators, dens


def goldberg_coefficient(word: str, truncation: Optional[int] = None) -> Fraction:
    """g_w: the coefficient of the word in the associative log expansion."""
    if not word or set(word) - {"X", "Y"}:
        raise ValueError("word must be a nonempty string over {X, Y}")
    if truncation is None:
        return _series_for(len(word)).coefficient(word)
    if len(word) > truncation:
        raise ValueError("word exceeds the series truncation")
    return log_expansion(truncation).coefficient(word)


def thompson_sum(n: int) -> Fraction:
    """sum_{|w| = n} |g_w|; bounded by 2 for n >= 1."""
    series = _series_for(max(n, 1))
    return sum((abs(c) for c in series.slice(n).values()), Fraction(0))


def free_nested_bracket(word: str, truncation: int) -> FreeSeries:
    """Left-nested commutator [w] expanded back into associative words."""
    out = FreeSeries(truncation, {word[0]: 1})
    for ch in word[1:]:
        letter = FreeSeries(truncation, {ch: 1})
        out = out.mul(letter).add_scaled(letter.mul(out), Fraction(-1))
    return out


def dynkin_consistency_residual(n: int) -> FreeSeries:
    """Difference of sum_{|w|=n} (g_w/n) [w] and the degree-n log slice.

    Empty result certifies the left-nested orientation and the normalization
    of the Goldberg coefficients at degree n.
    """
    series = _series_for(n)
    residual = FreeSeries(n)
    for w, g in series.slice(n).items():
        residual = residual.add_scaled(free_nested_bracket(w, n), g / n)
    for w, c in series.slice(n).items():
        residual = residual.add_scaled(FreeSeries(n, {w: c}), Fraction(-1))
    return residual


# ---------------------------------------------------------------------------
# BCH on a concrete Lie algebra
# ---------------------------------------------------------------------------


def dynkin_bracket(L: LieAlgebra, word: str, xi: Sequence, eta: Sequence) -> Vector:
    """Left-nested bracket of the word with X -> xi, Y -> eta."""
    if not word or set(word) - {"X", "Y"}:
        raise ValueError("word must be a nonempty string over {X, Y}")
    xi = as_vector(L, xi)
    eta = as_vector(L, eta)
    val = xi if word[0] == "X" else eta
    for ch in word[1:]:
        val = _bracket(L, val, xi if ch == "X" else eta)
    return as_vector(L, val)


def _integral(v: Vector) -> tuple[int, tuple[int, ...]]:
    """(D, D v) with D the lcm of the denominators of v, so D v is integral."""
    d = math.lcm(*(c.denominator for c in v))
    return d, tuple(c.numerator * (d // c.denominator) for c in v)


def _bch_components(
    L: LieAlgebra, k: int, l: int, xi: Vector, eta: Vector, top: Optional[int] = None
) -> dict[tuple[int, int], tuple[tuple[Scalar, ...], int]]:
    """Every nonzero BCH_{a,b}(xi, eta) with a <= k, b <= l and a + b <= top
    (default k + l), keyed (a, b), as a pair (v, d) with BCH_{a,b} = v / d.

    One depth-first walk over the words with at most k X's and at most l Y's:
    a word's left-nested bracket is its prefix's bracket with one more letter,
    so each word costs one bracket, and a prefix whose bracket vanishes prunes
    every word that extends it (all words past XX or YY, and all words longer
    than the nilpotency index of a nilpotent algebra).  The walk brackets the
    integral vectors D_xi xi and D_eta eta and weights each word by the
    integer numerator of g_w/n over G_n, so d = G_{a+b} D_xi^a D_eta^b.
    Inputs are trusted.
    """
    top = k + l if top is None else top
    weights, dens = _goldberg_weights(_bucket(top))
    d_xi, xi = _integral(xi)
    d_eta, eta = _integral(eta)
    sums: dict[tuple[int, int], list[Scalar]] = {}

    def walk(word: str, a: int, b: int, val: tuple) -> None:
        g = weights.get(word)
        if g:
            total = sums.get((a, b))
            if total is None:
                total = sums[(a, b)] = [0] * L.dim
            for i, c in enumerate(val):
                if c:
                    total[i] += g * c
        if a + b == top:
            return
        if a < k:
            nxt = _bracket(L, val, xi)
            if any(nxt):
                walk(word + "X", a + 1, b, nxt)
        if b < l:
            nxt = _bracket(L, val, eta)
            if any(nxt):
                walk(word + "Y", a, b + 1, nxt)

    if k and any(xi):
        walk("X", 1, 0, xi)
    if l and any(eta):
        walk("Y", 0, 1, eta)
    return {
        (a, b): (tuple(total), dens[a + b] * d_xi**a * d_eta**b)
        for (a, b), total in sums.items()
        if any(total)
    }


def bch_ab(L: LieAlgebra, a: int, b: int, xi: Sequence, eta: Sequence) -> Vector:
    """The (a, b) bidegree component of the BCH series of (xi, eta).

    The (a, b) entry of one prefix walk over the words (``_bch_components``):
    each left-nested prefix is bracketed once, and a prefix whose bracket is
    zero prunes its subtree.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    xi = as_vector(L, xi)
    eta = as_vector(L, eta)
    vec, den = _bch_components(L, a, b, xi, eta).get((a, b), ((0,) * L.dim, 1))
    return tuple(Fraction(c, den) for c in vec)


def bch_tilde(
    L: LieAlgebra, xis: Sequence[Sequence], etas: Sequence[Sequence]
) -> Vector:
    """Polarization of bch_ab: the multilinear map, symmetric in each block,
    that collapses to BCH_{a,b}(xi, eta) on equal arguments.

    By the polarization identity over the subset sums of each block,

        bch_tilde = (1 / a! b!) sum_{S, T} (-1)^(a-|S|+b-|T|) BCH_{a,b}(x_S, y_T),

    where x_S is the sum of the xis in S and y_T that of the etas in T: one
    prefix walk (``_bch_components``) for each of the 2^a 2^b pairs of
    subsets, each component an integer vector over one denominator.
    """
    a, b = len(xis), len(etas)
    if a + b < 1:
        raise ValueError("need at least one argument")
    if a + b > MAX_TRUNCATION:
        raise ValueError(f"bidegree beyond the supported truncation {MAX_TRUNCATION}")
    norm = math.factorial(a) * math.factorial(b)
    terms = []
    y_sums = _subset_sums(L, etas)
    for sign_x, x in _subset_sums(L, xis):
        for sign_y, y in y_sums:
            component = _bch_components(L, a, b, x, y).get((a, b))
            if component:
                vec, den = component
                terms.append((sign_x * sign_y, norm * den, vec))
    return _vector_sum(L, terms)


def _subset_sums(L: LieAlgebra, vectors: Sequence[Sequence]) -> list[tuple[int, Vector]]:
    """(sign, sum of S) over the subsets S of the vectors, nonempty unless
    there are none, with sign = (-1)^(len(vectors) - |S|)."""
    sums = [(0, (Fraction(0),) * L.dim)]  # (|S|, sum of S)
    for v in vectors:
        v = as_vector(L, v)
        sums += [(m + 1, tuple(p + q for p, q in zip(s, v))) for m, s in sums]
    n = len(vectors)
    return [((-1) ** (n - m), s) for m, s in sums if m or not n]


def _vector_sum(L: LieAlgebra, terms) -> Vector:
    """sum (num/den) vec over the terms (num, den, vec) with int num, den,
    summed on ints over the lcm of the denominators."""
    common = math.lcm(*(den for _, den, _ in terms))
    total = [0] * L.dim
    for num, den, vec in terms:
        f = num * (common // den)
        for i, c in enumerate(vec):
            total[i] += f * c
    return tuple(Fraction(c, common) for c in total)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_star(n_max: int) -> tuple[Fraction, ...]:
    """B*_0 .. B*_{n_max}: coefficients of z/(1 - e^{-z}) = sum B*_n/n! z^n.

    B*_n = (-1)^n B_n, with the first-kind numbers from the recurrence
    B_n = -1/(n+1) sum_{k<n} C(n+1, k) B_k, and B_n = 0 for odd n > 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    first = [Fraction(1)]
    for n in range(1, n_max + 1):
        if n > 1 and n % 2:
            first.append(Fraction(0))
            continue
        acc = sum(math.comb(n + 1, k) * first[k] for k in range(n) if first[k])
        first.append(-acc / (n + 1))
    return tuple(-b if n % 2 else b for n, b in enumerate(first))


def bernoulli_first_kind(n_max: int) -> tuple[Fraction, ...]:
    """Standard first-kind Bernoulli numbers via B_n = (-1)^n B*_n."""
    return tuple((-1) ** n * b for n, b in enumerate(bernoulli_star(n_max)))


# ---------------------------------------------------------------------------
# the Bernoulli formula for a linear right factor
# ---------------------------------------------------------------------------


def star_linear(x: SymElement, eta: Sequence) -> SymElement:
    """Product of x with a vector via the Bernoulli-number formula.

    On a monomial with letter multiset alpha (|alpha| = k) the polarized form
    reads

        xi_1...xi_k * eta
          = sum_j (B*_j z^j / j!) sum_tails  N(t) xi^(alpha - t) ad_t(eta),

    where t runs over ordered j-tuples drawn without replacement from the
    multiset and N(t) is the falling-count multiplicity.  The tails are
    walked depth first on the integral vector D_eta eta, each ad_t(eta) one
    bracket from its parent's, and a zero bracket prunes every longer tail
    through it; N(t) ad_t(eta) is summed on ints per (gamma, j) and scaled
    by B*_j / (j! D_eta) once per coefficient term of x.  Extends
    Q[z]-linearly over the coefficients of x; equals star_pbw(x, eta).
    """
    L = x.algebra
    d_eta, eta = _integral(as_vector(L, eta))
    bern = bernoulli_star(max(x.max_degree, 0))
    basis = [tuple(int(k == i) for k in range(L.dim)) for i in range(L.dim)]
    parts = []

    for alpha, coeff in x.items():
        sums: dict[int, dict[tuple[int, ...], Scalar]] = {}

        def walk(counts: list[int], j: int, val: tuple, mult: int):
            if bern[j]:
                slot = sums.setdefault(j, {})
                for i, v in enumerate(val):
                    if v:
                        counts[i] += 1
                        gamma = tuple(counts)
                        counts[i] -= 1
                        slot[gamma] = slot.get(gamma, 0) + mult * v
            for i in range(L.dim):
                if counts[i]:
                    nxt = _bracket(L, basis[i], val)
                    if any(nxt):
                        counts[i] -= 1
                        walk(counts, j + 1, nxt, mult * (counts[i] + 1))
                        counts[i] += 1

        if any(eta):
            walk(list(alpha), 0, eta, 1)
        for j, terms in sums.items():
            b = bern[j]
            den = b.denominator * math.factorial(j) * d_eta
            for e, c in coeff.items():
                parts.append((e + j, c.numerator * b.numerator, c.denominator * den, terms))
    return _sym_from_parts(L, parts)


def _sym_from_parts(L: LieAlgebra, parts) -> SymElement:
    """The element sum (num/den) z^e sum_gamma c_gamma xi^gamma over the parts
    (e, num, den, {gamma: c_gamma}), with int num, den and int (or, for
    rational structure constants, Fraction) c_gamma; every output
    coefficient is one Fraction."""
    coefficients: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for e, _, common, acc in _combine_parts(parts):
        for gamma, c in acc.items():
            if c:
                coefficients.setdefault(gamma, {})[e] = Fraction(c, common)
    return SymElement._raw(
        L, {gamma: PolyZ._raw(poly) for gamma, poly in coefficients.items()}
    )


def _combine_parts(parts) -> list[tuple[int, int, int, dict]]:
    """The parts summed per z-exponent: one part (e, 1, common, {gamma: c})
    per exponent, summed on ints over the lcm of its reduced weight
    denominators; a coefficient may sum to zero."""
    groups: dict[int, list] = {}
    for e, num, den, terms in parts:
        g = math.gcd(num, den)
        groups.setdefault(e, []).append((num // g, den // g, terms))
    out = []
    for e, group in groups.items():
        common = math.lcm(*(den for _, den, _ in group))
        acc: dict[tuple[int, ...], Scalar] = {}
        for num, den, terms in group:
            f = num * (common // den)
            for gamma, c in terms.items():
                acc[gamma] = acc.get(gamma, 0) + f * c
        out.append((e, 1, common, acc))
    return out


def nfold_star(L: LieAlgebra, vectors: Sequence[Sequence]) -> SymElement:
    """Left-to-right iterated star product of linear factors."""
    if not vectors:
        raise ValueError("need at least one factor")
    acc = SymElement.from_vector(L, as_vector(L, vectors[0]))
    for v in vectors[1:]:
        acc = star_linear(acc, v)
    return acc


# ---------------------------------------------------------------------------
# the C_n operators
# ---------------------------------------------------------------------------


def cn_monomial(
    L: LieAlgebra, xi: Sequence, k: int, eta: Sequence, l: int, n: int
) -> SymElement:
    """z^n coefficient of xi^k * eta^l via the BCH composition formula.

    With r = k + l - n this is (k! l! / r!) times the sum over ordered tuples
    of bidegrees (a_i, b_i), a_i + b_i >= 1, summing to (k, l), of the
    Sym-product of the BCH_{a_i,b_i} vectors: the z^n part of ``star_bch``.
    """
    if k < 0 or l < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    return star_bch(L, xi, k, eta, l).z_coefficient(n)


def cn_general(x: SymElement, y: SymElement, n: int) -> SymElement:
    """z^n coefficient of star_pbw(x, y); inputs must be z-constant."""
    if not (x.is_z_constant and y.is_z_constant):
        raise ValueError("cn_general needs z-constant inputs")
    if n == 0:
        return sym_mul(x, y)
    return star_pbw(x, y).z_coefficient(n)


# ---------------------------------------------------------------------------
# assembled BCH-route star products
# ---------------------------------------------------------------------------


def star_bch(L: LieAlgebra, xi: Sequence, k: int, eta: Sequence, l: int) -> SymElement:
    """xi^k * eta^l assembled as sum_n z^n C_n from the composition formula.

    One prefix walk over the words (``_bch_components``) gives every nonzero
    V_{a,b} = BCH_{a,b}(xi, eta) = v_{a,b} / d_{a,b} with a <= k and b <= l,
    bracketing each left-nested prefix once and pruning at zero brackets.
    One backtracking pass over the multiplicities m_{a,b} with
    sum m_{a,b} (a, b) = (k, l) then covers every n at once:
    k! l! prod V_{a,b}^{m_{a,b}} / m_{a,b}! lands in the z^(k+l-r)
    coefficient, r = sum m_{a,b}.  The vectors are z-constant, so partial
    products are {multi-index: int} maps of the v_{a,b}, and each leaf
    carries its weight k! l! / prod(m_{a,b}! d_{a,b}^m_{a,b}) as an int
    pair."""
    xi = as_vector(L, xi)
    eta = as_vector(L, eta)
    if k + l == 0:
        return SymElement.unit(L)
    return _sym_from_parts(L, _star_bch_parts(L, xi, k, eta, l))


def _star_bch_parts(L: LieAlgebra, xi: Vector, k: int, eta: Vector, l: int) -> list:
    """The leaves (e, num, den, {gamma: c}) of ``star_bch`` on trusted
    vectors (``Fraction`` or ``int`` entries)."""
    pairs = [
        (a, b, den, _sparse(vec))
        for (a, b), (vec, den) in sorted(_bch_components(L, k, l, xi, eta).items())
    ]
    num = math.factorial(k) * math.factorial(l)
    parts = []

    def backtrack(idx: int, a_left: int, b_left: int, used: int, partial: dict, den: int):
        if a_left == 0 and b_left == 0:
            parts.append((k + l - used, num, den, partial))
            return
        if idx == len(pairs):
            return
        a, b, d, vec = pairs[idx]
        m_max = min(left // deg for left, deg in ((a_left, a), (b_left, b)) if deg)
        for m in range(m_max + 1):
            if m:
                partial = _times_vector(partial, vec)
                if not partial:
                    return
                den *= m * d
            backtrack(idx + 1, a_left - m * a, b_left - m * b, used + m, partial, den)

    backtrack(0, k, l, 0, {(0,) * L.dim: 1}, 1)
    return parts


def _sparse(vec: Sequence[Scalar]) -> list[tuple[int, Scalar]]:
    return [(i, c) for i, c in enumerate(vec) if c]


def _times_vector(
    p: dict[tuple[int, ...], Scalar], vec: list[tuple[int, Scalar]]
) -> dict[tuple[int, ...], Scalar]:
    """Sym product of a z-constant coefficient map with a sparse vector."""
    out: dict[tuple[int, ...], Scalar] = {}
    for alpha, c in p.items():
        for i, v in vec:
            key = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            out[key] = out.get(key, 0) + c * v
    return {alpha: c for alpha, c in out.items() if c}


def star_bch_elements(x: SymElement, y: SymElement) -> SymElement:
    """BCH-route product extended bilinearly to arbitrary z-constant elements.

    Each homogeneous part of x and y polarizes onto powers of integer
    vectors (``_polarize``), so x * y is a weighted sum of power products
    (b . e)^k * (c . e)^l, each one ``star_bch`` by the composition formula.
    The power products are memoized, bounded, per (L, b, k, c, l), so
    monomial pairs that share a direction share its product; the weighted
    parts are summed on ints into one element.
    """
    x._require_same(y)
    if not (x.is_z_constant and y.is_z_constant):
        raise ValueError("the BCH route needs z-constant inputs")
    L = x.algebra
    y_powers = _polarize(y)
    parts = []
    for k, x_dirs in _polarize(x).items():
        for l, y_dirs in y_powers.items():
            for b, wb in x_dirs.items():
                for c, wc in y_dirs.items():
                    w = wb * wc
                    for e, num, den, terms in _power_parts(L, b, k, c, l):
                        parts.append((e, num * w.numerator, den * w.denominator, terms))
    return _sym_from_parts(L, parts)


def _polarize(x: SymElement) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """The z-constant x as sum_k sum_b w_{k,b} (b . e)^k, {k: {b: w_{k,b}}},
    over primitive nonnegative integer vectors b (b = 0 only for k = 0).

    A monomial of degree k polarizes as

        xi^alpha = (1/k!) sum_{0 != b <= alpha} (-1)^(k-|b|) prod_i C(alpha_i, b_i) (b . e)^k,

    and b = g b' with b' primitive contributes g^k (b' . e)^k.
    """
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for alpha, coeff in x.items():
        k = sum(alpha)
        c = coeff.constant_value() / math.factorial(k)
        slot = out.setdefault(k, {})
        for b in itertools.product(*(range(a + 1) for a in alpha)):
            g = math.gcd(*b)
            if k and not g:
                continue  # (0 . e)^k = 0
            key = tuple(v // (g or 1) for v in b)
            w = (-1) ** (k - sum(b)) * g**k * math.prod(map(math.comb, alpha, b))
            slot[key] = slot.get(key, 0) + c * w
    return {k: {b: w for b, w in slot.items() if w} for k, slot in out.items()}


@lru_cache(maxsize=4096)
def _power_parts(
    L: LieAlgebra, b: tuple[int, ...], k: int, c: tuple[int, ...], l: int
) -> tuple[tuple[int, int, int, dict], ...]:
    """(b . e)^k * (c . e)^l for integer vectors b, c: the parts of
    ``star_bch``, one per z-exponent.  The memo is bounded; its entries are
    never mutated."""
    return tuple(_combine_parts(_star_bch_parts(L, b, k, c, l)))


# ---------------------------------------------------------------------------
# kernel identities (appendix material)
# ---------------------------------------------------------------------------


def kernel_K(k: int, s: int) -> Fraction:
    """The symmetrization kernel; evaluates to delta_{s,0}.

    K(k,s) = 1/(k+1) sum_{n<=k} C(k+1,n) B*_n sum_{j<=n} (-1)^j C(n,j)
             sum_{l<=k-n} delta_{s, l+j}
    """
    if not 0 <= s <= k:
        raise ValueError("need 0 <= s <= k")
    bern = bernoulli_star(k)
    total = Fraction(0)
    for n in range(k + 1):
        if bern[n] == 0:
            continue
        inner = Fraction(0)
        for j in range(n + 1):
            l = s - j
            if 0 <= l <= k - n:
                inner += Fraction((-1) ** j * math.comb(n, j))
        total += Fraction(math.comb(k + 1, n)) * bern[n] * inner
    return total / (k + 1)


def carlitz_check(k: int, m: int) -> Fraction:
    """Residual of the Carlitz symmetry; zero when the identity holds.

    (-1)^k sum_j C(k,j) B_{m+j}  =  (-1)^m sum_i C(m,i) B_{k+i}
    with first-kind Bernoulli numbers B_n = (-1)^n B*_n.
    """
    if k < 0 or m < 0:
        raise ValueError("need k, m >= 0")
    bern = bernoulli_first_kind(k + m)
    lhs = Fraction((-1) ** k) * sum(
        (Fraction(math.comb(k, j)) * bern[m + j] for j in range(k + 1)), Fraction(0)
    )
    rhs = Fraction((-1) ** m) * sum(
        (Fraction(math.comb(m, i)) * bern[k + i] for i in range(m + 1)), Fraction(0)
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# exponential identities on nilpotent algebras
# ---------------------------------------------------------------------------


def bch_element(L: LieAlgebra, xi: Sequence, eta: Sequence, z0: Scalar) -> Vector:
    """(1/z) BCH(z xi, z eta) = sum z^{a+b-1} BCH_{a,b}(xi, eta), finite for
    nilpotent algebras.

    One prefix walk to the nilpotency index gives the components v/d; with
    z0 = p/q, each adds p^(n-1) v / (q^(n-1) d), n = a + b, summed on ints
    over one common denominator."""
    idx = nilpotency_index(L)
    if idx is None:
        raise ValueError("BCH element only terminates for nilpotent algebras")
    z0 = Fraction(z0)
    xi = as_vector(L, xi)
    eta = as_vector(L, eta)
    p, q = z0.numerator, z0.denominator
    return _vector_sum(
        L,
        [
            (p ** (a + b - 1), q ** (a + b - 1) * den, vec)
            for (a, b), (vec, den) in _bch_components(L, idx, idx, xi, eta, idx).items()
        ],
    )


def exp_product_check(
    L: LieAlgebra, xi: Sequence, eta: Sequence, z0: Scalar, order: int
) -> SymElement:
    """Residual of exp(xi) * exp(eta) = exp((1/z) BCH(z xi, z eta)).

    Both sides are compared on all parts of degree <= order.  The left factor
    exponentials are truncated at order * nilpotency_index: a product
    C_n(xi^a, eta^b) can land as low as degree (a+b)/N, so that truncation
    captures every contribution below the comparison degree and the residual
    is exactly zero, not merely small.
    """
    idx = nilpotency_index(L)
    if idx is None:
        raise ValueError("exp product identity needs a nilpotent algebra")
    z0 = Fraction(z0)
    if z0 == 0:
        raise ValueError("z must be nonzero")
    if order < 1:
        raise ValueError("order must be >= 1")
    factor_order = order * idx
    lhs = star_pbw(
        exp_truncated(SymElement.from_vector(L, as_vector(L, xi)), factor_order),
        exp_truncated(SymElement.from_vector(L, as_vector(L, eta)), factor_order),
    ).evaluate_z(z0)
    rhs = exp_truncated(
        SymElement.from_vector(L, bch_element(L, xi, eta, z0)), order
    )
    return _truncate(lhs, order) - _truncate(rhs, order)


def one_parameter_check(
    L: LieAlgebra, xi: Sequence, t: Scalar, s: Scalar, z0: Scalar, order: int
) -> SymElement:
    """Residual of exp(t xi) * exp(s xi) = exp((t+s) xi); brackets all vanish,
    so truncation at the comparison order is already exact."""
    xi = as_vector(L, xi)
    t, s = Fraction(t), Fraction(s)
    lhs = star_pbw(
        exp_truncated(SymElement.from_vector(L, xi).scale(t), order),
        exp_truncated(SymElement.from_vector(L, xi).scale(s), order),
    ).evaluate_z(Fraction(z0))
    rhs = exp_truncated(SymElement.from_vector(L, xi).scale(t + s), order)
    return _truncate(lhs, order) - rhs


def _truncate(x: SymElement, order: int) -> SymElement:
    return SymElement._raw(x.algebra, {a: c for a, c in x.items() if sum(a) <= order})
