"""Baker-Campbell-Hausdorff machinery and the product constructions built on it.

The associative expansion of log(e^X e^Y) is computed exactly on words of two
letters; its word coefficients g_w are the Goldberg coefficients, and the
left-nested Dynkin bracketing [w] recovers the Lie form

    BCH_n(xi, eta) = sum_{|w| = n} (g_w / n) [w].

Free series are plain maps {word: coefficient}.  One Goldberg table holds
g_w/|w| as int numerators over one denominator per length for every word up
to the longest length asked so far; only a longer request builds it again.

On top of that sit the bidegree components BCH_{a,b}, their polarization, the
Bernoulli-number formula for products with a linear factor, the composition
formula for the z^n coefficients C_n of the star product, and the kernel
identities used to prove the equivalence of the product constructions.

The composition formula gives the power products xi^k * eta^l (``star_bch``),
and it is the one BCH route for every product: by polarization,

    xi^alpha = (1/k!) sum_{0 != b <= alpha} (-1)^(k-|b|) prod_i C(alpha_i, b_i) (b . e)^k,

with k = |alpha|, every monomial is a signed sum of powers of integer
vectors, so ``star_bch_elements`` is ``sym.bilinear`` over power products,
and ``bch_tilde`` polarizes ``bch_ab``
over the subset sums of each block.  The word walk stops at length
min(k + l, N), N the nilpotency index; without one, at 12 letters.

The BCH route runs on integer numerators, with ``Fraction`` only at the
boundary: each vector is scaled by the lcm of its denominators, each word
weight g_w/n and each Bernoulli weight B*_j/j! is an integer over one
denominator, and partial products and leaf weights are ints.  Every product
here is a list of parts summed by ``sym.sum_parts``, the part-sum of the PBW
route and the Hopf maps, so every output coefficient is one ``Fraction``;
each memoized power product is kept in the star memo's raw form (D, terms).
Every accumulation, the free series included, runs through
``zpoly.add_scaled``.  Rational structure constants take the same path as
``Fraction`` numerators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .liealg import LieAlgebra, Vector, _bracket, as_vector, nilpotency_index
from .pbw import star_pbw
from .sym import SymElement, bilinear, exp_truncated, raw_sum, sum_parts
from .zpoly import add_scaled

MAX_TRUNCATION = 12

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# free associative series on the letters X, Y, as maps {word: coefficient}
# ---------------------------------------------------------------------------

# The Goldberg table ({word: numerator of g_w/|w| over G_|w|}, (G_0, ..., G_top)).
_goldberg: tuple[dict[str, int], tuple[int, ...]] = ({}, (1,))


def _goldberg_weights(truncation: int) -> tuple[dict[str, int], tuple[int, ...]]:
    """The Goldberg table, for every word up to the longest length asked so
    far, top >= truncation.

    A shorter request reads the table; a longer one builds it again from
    log(e^X e^Y) = sum_m (-1)^(m+1)/m E^m with E = e^X e^Y - 1, on ints: in
    the scaled form S(w) = |w|! coeff(w), E is C(a+b, a) on X^a Y^b and a
    product picks up S(uv) = C(|uv|, |u|) S(u) S(v), so every power E^m is an
    integer series; the sum over m runs over M = lcm(1..top), so g_w/|w| =
    t_w / (M |w|! |w|) for an int t_w.  Dividing the t_w of one length n and
    M n! n by their gcd gives the numerators over the reduced G_n.
    """
    global _goldberg
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > MAX_TRUNCATION:
        raise ValueError(f"truncation above the supported maximum {MAX_TRUNCATION}")
    if truncation < len(_goldberg[1]):
        return _goldberg
    e_terms = [
        ("X" * a + "Y" * (n - a), math.comb(n, a))
        for n in range(1, truncation + 1)
        for a in range(n + 1)
    ]
    fit = [r * (r + 3) // 2 for r in range(truncation + 1)]  # terms of length <= r
    M = math.lcm(*range(1, truncation + 1))
    power = {"": 1}
    total: dict[str, int] = {}
    for m in range(1, truncation + 1):
        nxt: dict[str, int] = {}
        for u, cu in power.items():
            lu = len(u)
            room = e_terms[: fit[truncation - lu]]
            add_scaled(nxt, [(u + v, math.comb(lu + len(v), lu) * cv) for v, cv in room], cu)
        power = nxt
        add_scaled(total, power.items(), M // m if m % 2 else -(M // m))
    full = [M * math.factorial(n) * n or 1 for n in range(truncation + 1)]
    gcds = list(full)
    for w, t in total.items():
        gcds[len(w)] = math.gcd(gcds[len(w)], t)
    weights = {w: t // gcds[len(w)] for w, t in total.items()}
    _goldberg = weights, tuple(f // g for f, g in zip(full, gcds))
    return _goldberg


def log_expansion(truncation: int) -> dict[str, Fraction]:
    """Coefficients g_w of log(e^X e^Y) on all words of length <= truncation,
    read from the Goldberg table, as {word: g_w} without zeros."""
    weights, dens = _goldberg_weights(truncation)
    return {
        w: Fraction(len(w) * c, dens[len(w)]) for w, c in weights.items() if len(w) <= truncation
    }


def goldberg_coefficient(word: str) -> Fraction:
    """g_w: the coefficient of the word in the associative log expansion."""
    if not word or set(word) - {"X", "Y"}:
        raise ValueError("word must be a nonempty string over {X, Y}")
    weights, dens = _goldberg_weights(len(word))
    return Fraction(len(word) * weights.get(word, 0), dens[len(word)])


def thompson_sum(n: int) -> Fraction:
    """sum_{|w| = n} |g_w|; bounded by 2 for n >= 1."""
    return sum((abs(c) for w, c in log_expansion(max(n, 1)).items() if len(w) == n), Fraction(0))


def free_nested_bracket(word: str) -> dict[str, int]:
    """Left-nested commutator [w] expanded back into associative words:
    [u c] = [u] c - c [u], one map per letter."""
    out = {word[0]: 1}
    for ch in word[1:]:
        nxt = {u + ch: c for u, c in out.items()}
        add_scaled(nxt, [(ch + u, c) for u, c in out.items()], -1)
        out = nxt
    return out


def dynkin_consistency_residual(n: int) -> dict[str, Fraction]:
    """Difference of sum_{|w|=n} (g_w/n) [w] and the degree-n log slice,
    summed into one map {word: coefficient} without zeros.  An empty map
    certifies the left-nested orientation and the normalization of the
    Goldberg coefficients at degree n."""
    layer = [(w, g) for w, g in log_expansion(n).items() if len(w) == n]
    residual: dict[str, Fraction] = {}
    for w, g in layer:
        add_scaled(residual, free_nested_bracket(w).items(), g / n)
    add_scaled(residual, layer, -1)
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
    L: LieAlgebra, k: int, l: int, xi: Vector, eta: Vector
) -> dict[tuple[int, int], tuple[tuple[Scalar, ...], int]]:
    """Every nonzero BCH_{a,b}(xi, eta) with a <= k and b <= l, keyed (a, b),
    as a pair (v, d) with BCH_{a,b} = v / d.

    One depth-first walk over the words with at most k X's and at most l Y's:
    a word's left-nested bracket is its prefix's bracket with one more letter,
    so each word costs one bracket, and a prefix whose bracket vanishes prunes
    every word that extends it (all words past XX or YY).  No word longer
    than the nilpotency index N of a nilpotent algebra has a nonzero bracket,
    so the walk stops at length top = min(k + l, N), refused past 12, and
    reads its weights from the Goldberg table.  The walk brackets the
    integral vectors D_xi xi and D_eta eta and weights each word by the
    integer numerator of g_w/n over G_n, so d = G_{a+b} D_xi^a D_eta^b.
    Inputs are trusted.
    """
    if k + l == 0:
        return {}
    index = nilpotency_index(L)
    top = min(k + l, index or k + l)
    if top > MAX_TRUNCATION:
        why = f"has nilpotency index {index}" if index else "is not nilpotent"
        raise ValueError(f"k + l = {k + l} exceeds {MAX_TRUNCATION} and the algebra {why}")
    weights, dens = _goldberg_weights(top)
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
    summed by ``raw_sum`` with the coordinates as keys."""
    common, acc = raw_sum([(den, enumerate(vec), num, 0) for num, den, vec in terms if num])
    return tuple(Fraction(acc.get(i, 0), common) for i in range(L.dim))


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


@lru_cache(maxsize=None)
def _bernoulli_weights(n_max: int) -> tuple[int, tuple[int, ...]]:
    """B*_j / j! for j <= n_max as integer numerators over one denominator:
    (W, (w_0, ..., w_n_max))."""
    ratios = [b / math.factorial(j) for j, b in enumerate(bernoulli_star(n_max))]
    common = math.lcm(*(r.denominator for r in ratios))
    return common, tuple(r.numerator * (common // r.denominator) for r in ratios)


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
    through it.  With B*_j / j! = w_j / W over one denominator W, each
    monomial's sum of w_j N(t) ad_t(eta) z^j is one raw product over
    W D_eta, and each coefficient term of x scales it into one part of
    ``sum_parts``.  Extends Q[z]-linearly over the coefficients of x; equals
    star_pbw(x, eta).
    """
    L = x.algebra
    d_eta, eta = _integral(as_vector(L, eta))
    common, weights = _bernoulli_weights(max(x.max_degree, 0))
    basis = [tuple(int(k == i) for k in range(L.dim)) for i in range(L.dim)]
    parts = []

    for alpha, coeff in x.items():
        acc: dict = {}

        def walk(counts: list[int], j: int, val: tuple, mult: int):
            if weights[j]:
                terms = []
                for i, v in enumerate(val):
                    if v:
                        counts[i] += 1
                        terms.append(((tuple(counts), j), v))
                        counts[i] -= 1
                add_scaled(acc, terms, mult * weights[j])
            for i in range(L.dim):
                if counts[i]:
                    nxt = _bracket(L, basis[i], val)
                    if any(nxt):
                        counts[i] -= 1
                        walk(counts, j + 1, nxt, mult * (counts[i] + 1))
                        counts[i] += 1

        if any(eta):
            walk(list(alpha), 0, eta, 1)
        for e, c in coeff.items():
            parts.append((common * d_eta * c.denominator, acc.items(), c.numerator, e))
    return SymElement._raw(L, sum_parts(parts))


def nfold_star(L: LieAlgebra, vectors: Sequence[Sequence]) -> SymElement:
    """Left-to-right iterated star product of linear factors."""
    if not vectors:
        raise ValueError("need at least one factor")
    acc = SymElement.from_vector(L, as_vector(L, vectors[0]))
    for v in vectors[1:]:
        acc = star_linear(acc, v)
    return acc


# ---------------------------------------------------------------------------
# assembled BCH-route star products
# ---------------------------------------------------------------------------


def star_bch(L: LieAlgebra, xi: Sequence, k: int, eta: Sequence, l: int) -> SymElement:
    """xi^k * eta^l assembled as sum_n z^n C_n from the composition formula.

    One prefix walk over the words (``_bch_components``) gives every nonzero
    V_{a,b} = BCH_{a,b}(xi, eta) = v_{a,b} / d_{a,b} with a <= k and b <= l,
    bracketing each left-nested prefix once and pruning at zero brackets.
    One backtracking pass over the multiplicities m_{a,b} with
    sum m_{a,b} (a, b) = (k, l), entering only the branches that can still
    complete to (k, l), then covers every n at once:
    k! l! prod V_{a,b}^{m_{a,b}} / m_{a,b}! lands in the z^(k+l-r)
    coefficient, r = sum m_{a,b}.  The vectors are z-constant, so partial
    products are {multi-index: int} maps of the v_{a,b}, and each leaf
    carries its weight k! l! / prod(m_{a,b}! d_{a,b}^m_{a,b}) as an int
    pair."""
    xi = as_vector(L, xi)
    eta = as_vector(L, eta)
    return SymElement._raw(L, sum_parts(_star_bch_parts(L, xi, k, eta, l)))


def _star_bch_parts(L: LieAlgebra, xi: Vector, k: int, eta: Vector, l: int) -> list:
    """The leaves of ``star_bch`` on trusted vectors (``Fraction`` or ``int``
    entries) as parts (den, terms, num, e) of ``sum_parts``: the terms of a
    leaf are its partial product {gamma: c} as z-constant pairs
    ((gamma, 0), c).

    ``reach[idx]`` is the set of bidegrees that the pairs from idx on sum to
    exactly, so the walk enters only the multiplicities whose remainder can
    still complete, and raises its partial product only up to the largest of
    them.  The leaves stay in the lexicographic order of their multiplicity
    vectors, which fixes the order of every output's terms."""
    pairs = [
        (a, b, den, [(i, c) for i, c in enumerate(vec) if c])
        for (a, b), (vec, den) in sorted(_bch_components(L, k, l, xi, eta).items())
    ]
    reach = [{(0, 0)}]
    for a, b, _, _ in reversed(pairs):
        sums = set()
        for ra, rb in reach[-1]:
            while ra <= k and rb <= l:
                sums.add((ra, rb))
                ra, rb = ra + a, rb + b
        reach.append(sums)
    reach.reverse()
    num = math.factorial(k) * math.factorial(l)
    parts = []

    def backtrack(idx: int, a_left: int, b_left: int, used: int, partial: dict, den: int):
        if a_left == 0 and b_left == 0:
            terms = [((gamma, 0), c) for gamma, c in partial.items()]
            parts.append((den, terms, num, k + l - used))
            return
        a, b, d, vec = pairs[idx]
        fits = reach[idx + 1]
        m_max = min(left // deg for left, deg in ((a_left, a), (b_left, b)) if deg)
        ms = [m for m in range(m_max + 1) if (a_left - m * a, b_left - m * b) in fits]
        for m in range(ms[-1] + 1):
            if m:
                partial = _times_vector(partial, vec)
                if not partial:
                    return
                den *= m * d
            if m in ms:
                backtrack(idx + 1, a_left - m * a, b_left - m * b, used + m, partial, den)

    if (k, l) in reach[0]:
        backtrack(0, k, l, 0, {(0,) * L.dim: 1}, 1)
    return parts


def _times_vector(
    p: dict[tuple[int, ...], Scalar], vec: list[tuple[int, Scalar]]
) -> dict[tuple[int, ...], Scalar]:
    """Sym product of a z-constant coefficient map with a sparse vector."""
    out: dict[tuple[int, ...], Scalar] = {}
    for i, v in vec:
        bumped = [(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :], c) for alpha, c in p.items()]
        add_scaled(out, bumped, v)
    return out


def star_bch_elements(x: SymElement, y: SymElement) -> SymElement:
    """BCH-route product extended Q[z]-bilinearly to arbitrary elements.

    Each term of x and y polarizes onto powers of integer vectors
    (``_polarize``), so x * y is ``sym.bilinear`` over the power products
    (b . e)^k * (c . e)^l, each one ``star_bch`` by the composition formula.
    The power products are memoized, bounded, per (L, b, k, c, l), so
    monomial pairs that share a direction share its product.
    """
    x._require_same(y)
    L = x.algebra
    terms = bilinear(_polarize(x), _polarize(y), lambda bk, cl: _power_parts(L, *bk, *cl))
    return SymElement._raw(L, terms)


def _polarize(x: SymElement) -> dict:
    """x as sum_{b,k,j} w_{b,k,j} z^j (b . e)^k, the flat map {((b, k), j): w},
    over primitive nonnegative integer vectors b (b = 0 only for k = 0).

    A monomial of degree k polarizes as

        xi^alpha = (1/k!) sum_{0 != b <= alpha} (-1)^(k-|b|) prod_i C(alpha_i, b_i) (b . e)^k,

    and b = g b' with b' primitive contributes g^k (b' . e)^k.
    """
    out: dict = {}
    for (alpha, e), coeff in x._terms.items():
        k = sum(alpha)
        terms = []
        for b in itertools.product(*(range(a + 1) for a in alpha)):
            g = math.gcd(*b)
            if k and not g:
                continue  # (0 . e)^k = 0
            w = (-1) ** (k - sum(b)) * g**k * math.prod(map(math.comb, alpha, b))
            terms.append((((tuple(v // (g or 1) for v in b), k), 0), w))
        add_scaled(out, terms, coeff / math.factorial(k), e)
    return out


@lru_cache(maxsize=4096)
def _power_parts(L: LieAlgebra, b: tuple[int, ...], k: int, c: tuple[int, ...], l: int) -> tuple:
    """(b . e)^k * (c . e)^l for integer vectors b, c as the raw product
    ``(D, (((gamma, e), n), ...))`` of the star memo: the parts of
    ``star_bch`` summed once.  The memo is bounded; its entries are
    immutable."""
    common, acc = raw_sum(_star_bch_parts(L, b, k, c, l))
    return common, tuple(acc.items())


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
    bern = [(-1) ** n * b for n, b in enumerate(bernoulli_star(k + m))]
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
            for (a, b), (vec, den) in _bch_components(L, idx, idx, xi, eta).items()
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
    return _exp_residual(L, xi, eta, bch_element(L, xi, eta, z0), z0, order * idx, order)


def one_parameter_check(
    L: LieAlgebra, xi: Sequence, t: Scalar, s: Scalar, z0: Scalar, order: int
) -> SymElement:
    """Residual of exp(t xi) * exp(s xi) = exp((t+s) xi); brackets all vanish,
    so truncation at the comparison order is already exact."""
    xi = as_vector(L, xi)
    t, s = Fraction(t), Fraction(s)
    return _exp_residual(
        L, [t * c for c in xi], [s * c for c in xi], [(t + s) * c for c in xi],
        Fraction(z0), order, order,
    )


def _exp_residual(
    L: LieAlgebra, xi: Sequence, eta: Sequence, zeta: Sequence, z0: Fraction,
    factor_order: int, order: int,
) -> SymElement:
    """exp(xi) * exp(eta) at z = z0 minus exp(zeta), cut to degree <= order;
    the factor exponentials are truncated at factor_order, exp(zeta) at order."""

    def exp(v: Sequence, top: int) -> SymElement:
        return exp_truncated(SymElement.from_vector(L, v), top)

    lhs = star_pbw(exp(xi, factor_order), exp(eta, factor_order)).evaluate_z(z0)
    diff = lhs - exp(zeta, order)
    return SymElement._raw(L, {k: c for k, c in diff._terms.items() if sum(k[0]) <= order})
