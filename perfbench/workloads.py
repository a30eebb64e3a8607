"""The benchmark workloads: inputs made from a seed, the timed operations,
and the check of every result against the committed reference.

pbw-cold        ``star_pbw`` on every monomial pair up to a total degree, on
                four algebras.  Every product is new, so the star memo never
                hits: the time is the kernel and the pbw layer.
bch-route       ``star_bch`` on power pairs of basis and fixed random
                vectors, and ``star_linear`` on monomials: the BCH route,
                where kernel and pbw stay idle.
estimate-grids  the ten experiment sweeps on the CLI's default algebra
                and grids, at a smaller maximum degree: the seminorm path,
                hopf, and a warm star memo.

The seed decides the random inputs and the order of the operations, but
not their cost, so that runs on different seeds measure the same work.  Each
check compares a canonical digest of the result (``digest``) with the
reference that ``reference.py`` derives from the ``star_pbw`` oracle, so a
run never recomputes the oracle.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

# (algebra, max total degree of a pbw-cold monomial pair)
PBW_SIZES = (("heisenberg", 9), ("sl2", 7), ("filiform4", 6), ("nil5", 6))
BCH_ALGEBRAS = ("heisenberg", "sl2", "filiform4")
BCH_MAX_DEGREE = 7  # k + l of star_bch(L, xi, k, eta, l), with k, l >= 1
LINEAR_MAX_DEGREE = 5  # degree of the monomial x in star_linear(x, eta)
VECTOR_SEED = 20150930  # the random vectors are fixed, so every seed costs the same
RANDOM_VECTORS = 2  # per algebra, each with every component nonzero
EXPERIMENT_SEEDS = 16  # experiment seed = run seed mod this; the reference covers them all
EXPERIMENT_MAX_DEGREE = 6  # CLI default 8; at 6 a rep takes a third of the time


def algebras() -> dict:
    """The workloads' algebras, each validated; nil5 is 3-step nilpotent."""
    from guttstar.liealg import filiform4, heisenberg, make_algebra, nilpotency_index, sl2, validate

    out = {
        "heisenberg": heisenberg(),
        "sl2": sl2(),
        "filiform4": filiform4(),
        "nil5": make_algebra(
            5,
            ("X0", "X1", "X2", "X3", "X4"),
            {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}},
        ),
    }
    for name, L in out.items():
        report = validate(L)
        if not report:
            raise ValueError(f"{name}: {report}")
    if nilpotency_index(out["nil5"]) != 3:
        raise ValueError("nil5 is not 3-step nilpotent")
    return out


def digest(x) -> str:
    """Digest of an element's canonical text; the same in every process."""
    parts = []
    for alpha, coeff in sorted(x.items()):
        terms = ",".join(f"{e}:{c.numerator}/{c.denominator}" for e, c in sorted(coeff.items()))
        parts.append(f"{tuple(alpha)}={terms}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:8]


def monomial_pairs(dim: int, max_total: int):
    """Every (alpha, beta) of multi-indices with |alpha| + |beta| <= max_total,
    in a fixed order."""
    def monomials(degree, slots):
        if slots == 1:
            yield (degree,)
            return
        for a in range(degree + 1):
            for rest in monomials(degree - a, slots - 1):
                yield (a,) + rest

    for total in range(max_total + 1):
        for k in range(total + 1):
            for alpha in monomials(k, dim):
                for beta in monomials(total - k, dim):
                    yield alpha, beta


def monomials_up_to(dim: int, max_degree: int):
    """Every multi-index of degree 1..max_degree, in a fixed order."""
    return [alpha for alpha, beta in monomial_pairs(dim, max_degree) if not any(beta) and any(alpha)]


def _rational(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_vectors(L) -> list[tuple]:
    """The fixed random vectors of one algebra (the same in every run)."""
    rng = random.Random(f"{VECTOR_SEED}:{L.basis_names}")
    out = []
    while len(out) < RANDOM_VECTORS:
        v = tuple(_rational(rng, 4) for _ in range(L.dim))
        if all(v) and v not in out:
            out.append(v)
    return out


def basis(L, i: int) -> tuple:
    return tuple(Fraction(int(k == i)) for k in range(L.dim))


def bch_ops(name: str, L):
    """The keyed bch-route operations on one algebra, in a fixed order.

    Yields (key, kind, args): kind "bch" is star_bch(L, xi, k, eta, l) for
    ordered pairs of distinct basis vectors and of distinct random vectors,
    k, l >= 1, k + l <= BCH_MAX_DEGREE; kind "linear" is star_linear(x^alpha,
    eta) for every such vector eta.
    """
    vectors = {f"b{i}": basis(L, i) for i in range(L.dim)}
    vectors.update({f"r{i}": v for i, v in enumerate(random_vectors(L))})
    pairs = [(u, v) for u in vectors for v in vectors if u != v and u[0] == v[0]]
    for u, v in pairs:
        for n in range(2, BCH_MAX_DEGREE + 1):
            for k in range(1, n):
                yield f"{name}/bch/{u}/{k}/{v}/{n - k}", "bch", (L, vectors[u], k, vectors[v], n - k)
    for alpha in monomials_up_to(L.dim, LINEAR_MAX_DEGREE):
        for v in vectors:
            yield f"{name}/linear/{alpha}/{v}", "linear", (L, alpha, vectors[v])


def experiment_kwargs(seed: int) -> dict:
    return {"seed": seed, "max_degree": EXPERIMENT_MAX_DEGREE}


class Op:
    """One timed library call and what its check needs."""

    __slots__ = ("fn", "args", "kwargs", "expect", "scale")

    def __init__(self, fn, args, expect, kwargs=None, scale=None):
        self.fn, self.args, self.kwargs = fn, args, kwargs or {}
        self.expect, self.scale = expect, scale


class Workload:
    """Inputs for one seed (built in set-up), then ``ops`` to time and
    ``check`` to count the attempted and failed ones among the results.
    ``known_failing`` counts the results that ``check`` found to fail their
    estimate exactly as the reference records (a known defect of the
    library, not a wrong output)."""

    known_failing = 0

    def check(self, op: Op, result) -> tuple[int, int, bool]:
        """(attempted, failed, correct) for one operation's result."""
        if isinstance(result, Exception) or op.expect is None:
            return 1, 1, False
        value = result.scale(op.scale) if op.scale is not None else result
        ok = digest(value) == op.expect
        return 1, int(not ok), ok


class PbwCold(Workload):
    def __init__(self, seed: int, reference: dict) -> None:
        from guttstar.pbw import star_pbw
        from guttstar.sym import SymElement

        rng = random.Random(seed)
        algs = algebras()
        self.ops = []
        for name, max_total in PBW_SIZES:
            L = algs[name]
            ref = reference["pbw-cold"].get(name, {})
            digests = ref.get("digests", "") if ref.get("max_degree") == max_total else ""
            for i, (alpha, beta) in enumerate(monomial_pairs(L.dim, max_total)):
                ca = _rational(rng, 9) or Fraction(1)
                cb = _rational(rng, 9) or Fraction(1)
                expect = digests[8 * i : 8 * i + 8] or None
                x = SymElement.monomial(L, alpha, ca)
                y = SymElement.monomial(L, beta, cb)
                self.ops.append(Op(star_pbw, (x, y), expect, scale=1 / (ca * cb)))
        rng.shuffle(self.ops)


class BchRoute(Workload):
    """The seed flips the sign of each vector argument and scales each
    monomial by a random rational: both homogeneous, so the check divides
    them out, and neither changes the cost of an operation."""

    def __init__(self, seed: int, reference: dict) -> None:
        from guttstar.bch import star_bch, star_linear
        from guttstar.sym import SymElement

        rng = random.Random(seed)
        algs = algebras()
        digests = reference["bch-route"]
        self.ops = []
        for name in BCH_ALGEBRAS:
            L = algs[name]
            for key, kind, args in bch_ops(name, L):
                if kind == "bch":
                    _, xi, k, eta, l = args
                    s, t = rng.choice((-1, 1)), rng.choice((-1, 1))
                    inputs = (L, tuple(s * c for c in xi), k, tuple(t * c for c in eta), l)
                    self.ops.append(Op(star_bch, inputs, digests.get(key), scale=s**k * t**l))
                else:
                    _, alpha, eta = args
                    c = _rational(rng, 9) or Fraction(1)
                    t = rng.choice((-1, 1))
                    inputs = (SymElement.monomial(L, alpha, c), tuple(t * e for e in eta))
                    self.ops.append(Op(star_linear, inputs, digests.get(key), scale=1 / (c * t)))
        rng.shuffle(self.ops)


class EstimateGrids(Workload):
    def __init__(self, seed: int, reference: dict) -> None:
        from guttstar.experiments import EXPERIMENT_NAMES, run_experiment

        exp_seed = seed % EXPERIMENT_SEEDS
        rows = reference["estimate-grids"].get(str(exp_seed), {})
        self.ops = [
            Op(run_experiment, (name,), rows.get(name), kwargs=experiment_kwargs(exp_seed))
            for name in EXPERIMENT_NAMES
        ]

    def check(self, op: Op, result) -> tuple[int, int, bool]:
        """A sample row fails when it does not pass or is not finite; rows
        missing from or extra to the reference count as failed too.  A row
        the reference lists as failing is the output the reference expects:
        it counts in ``known_failing``, not in ``failed``, and may pass
        instead.  Any other failure is a changed result."""
        if isinstance(result, Exception) or op.expect is None:
            total = max(sum(op.expect["rows"]) if op.expect else 0, 1)
            return total, total, False
        expect = op.expect["rows"]
        known = {(i, params) for i, params in op.expect["failing"]}
        attempted = failed = 0
        correct = len(result) == len(expect)
        for i, report in enumerate(result):
            want = expect[i] if i < len(expect) else 0
            got = len(report.rows)
            attempted += max(got, want)
            failed += abs(got - want)
            correct = correct and got == want
            for row in report.rows:
                if not (math.isfinite(row.lhs) and math.isfinite(row.rhs)):
                    failed += 1
                    correct = False
                elif (i, row.params) in known:
                    self.known_failing += not row.passed
                elif not row.passed:
                    failed += 1
                    correct = False
        for want in expect[len(result) :]:
            attempted += want
            failed += want
        return attempted, failed, correct


WORKLOADS = {"pbw-cold": PbwCold, "bch-route": BchRoute, "estimate-grids": EstimateGrids}
