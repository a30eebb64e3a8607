"""Finite-dimensional Lie algebras given by structure constants.

An algebra is stored through its brackets on basis pairs with i < j only;
antisymmetry is then true by construction and cannot be violated by input.
All coefficients are exact rationals.  Validation checks the Jacobi identity
on every basis triple, which by trilinearity settles it for all elements.

The on-disk definition format (UTF-8 JSON) is::

    {
      "dim": 3,
      "basis": ["P", "Q", "E"],
      "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
      "weights": ["1", "1", "1"]          # optional, seminorm weights
    }

Rational strings use "p/q" or plain integer form, indices are zero-based and
require i < j, and unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]
BracketRow = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    # ((i, j, ((k, c), ...)), ...) with i < j, rows sorted, no empty rows
    brackets: tuple[tuple[int, int, BracketRow], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.basis_names) != self.dim:
            raise ValueError("basis_names length must equal dim")
        for i, j, row in self.brackets:
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket indices ({i},{j}) need 0 <= i < j < dim")
            for k, c in row:
                if not 0 <= k < self.dim:
                    raise ValueError(f"bracket target index {k} out of range")
                if not isinstance(c, Fraction) or c == 0:
                    raise ValueError("bracket coefficients must be nonzero Fractions")
        # hashed once: every memo lookup keyed by the algebra rehashes it
        object.__setattr__(
            self, "_hash", hash((self.dim, self.basis_names, self.brackets))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, so an unpickled copy rehashes its names
        # under the loading process's hash seed
        return (LieAlgebra, (self.dim, self.basis_names, self.brackets))

    def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coefficient map (antisymmetry applied)."""
        if i == j:
            return {}
        row = _bracket_table(self).get((min(i, j), max(i, j)), ())
        sign = 1 if i < j else -1
        return {k: Fraction(sign * c) for k, c in row}

    def __str__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={','.join(self.basis_names)})"


@lru_cache(maxsize=None)
def _bracket_table(L: LieAlgebra) -> dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]:
    """The rows of L.brackets, each integral constant as an ``int``."""
    return {
        (i, j): tuple((k, c.numerator if c.denominator == 1 else c) for k, c in row)
        for i, j, row in L.brackets
    }


def make_algebra(
    dim: int,
    basis_names: Sequence[str],
    brackets: dict[tuple[int, int], dict[int, Union[int, Fraction, str]]],
) -> LieAlgebra:
    """Build a LieAlgebra from a {(i, j): {k: coeff}} description with i < j."""
    rows = []
    for (i, j), coeffs in sorted(brackets.items()):
        row = tuple(
            (k, Fraction(c)) for k, c in sorted(coeffs.items()) if Fraction(c) != 0
        )
        if row:
            rows.append((i, j, row))
    return LieAlgebra(dim=dim, basis_names=tuple(basis_names), brackets=tuple(rows))


# ---------------------------------------------------------------------------
# stock algebras used throughout the test and experiment suites
# ---------------------------------------------------------------------------


def heisenberg() -> LieAlgebra:
    """3-dim Heisenberg algebra: [P, Q] = E, E central."""
    return make_algebra(3, ("P", "Q", "E"), {(0, 1): {2: 1}})


def abelian(dim: int, prefix: str = "A") -> LieAlgebra:
    return make_algebra(dim, tuple(f"{prefix}{i}" for i in range(dim)), {})


def sl2() -> LieAlgebra:
    """sl2-like basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    return make_algebra(
        3, ("H", "E", "F"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    )


def filiform4() -> LieAlgebra:
    """4-dim 3-step nilpotent algebra: [e0,e1] = e2, [e0,e2] = e3."""
    return make_algebra(4, ("X0", "X1", "X2", "X3"), {(0, 1): {2: 1}, (0, 2): {3: 1}})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def as_vector(L: LieAlgebra, v: Sequence[Union[int, Fraction]]) -> Vector:
    if len(v) != L.dim:
        raise ValueError(f"vector length {len(v)} != dim {L.dim}")
    return tuple(Fraction(c) for c in v)


def basis_vector(L: LieAlgebra, i: int) -> Vector:
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(L.dim))


def bracket(L: LieAlgebra, v: Sequence, w: Sequence) -> Vector:
    """[v, w] via the structure constants; bilinear and antisymmetric."""
    return as_vector(L, _bracket(L, as_vector(L, v), as_vector(L, w)))


def _bracket(L: LieAlgebra, v: Sequence[Scalar], w: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """[v, w] on checked vectors of ``int`` or ``Fraction`` components.

    Integral structure constants are ``int``, so ``int`` vectors stay on
    ``int``; a component no term reaches is the ``int`` 0.
    """
    out = [0] * L.dim
    for (i, j), row in _bracket_table(L).items():
        a = v[i] * w[j] - v[j] * w[i]
        if a:
            for k, c in row:
                out[k] += a * c
    return tuple(out)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    triple: Optional[tuple[int, int, int]] = None
    residual: Optional[Vector] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"Jacobi violated at {self.triple}: residual {self.residual}"


def validate(L: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples i < j < k."""
    for i in range(L.dim):
        ei = basis_vector(L, i)
        for j in range(i + 1, L.dim):
            ej = basis_vector(L, j)
            bij = bracket(L, ei, ej)
            for k in range(j + 1, L.dim):
                ek = basis_vector(L, k)
                res = _vadd(
                    bracket(L, bij, ek),
                    bracket(L, bracket(L, ej, ek), ei),
                    bracket(L, bracket(L, ek, ei), ej),
                )
                if any(res):
                    return ValidationReport(False, (i, j, k), res)
    return ValidationReport(True)


def _vadd(*vectors: Vector) -> Vector:
    return tuple(sum(col) for col in zip(*vectors))


def _span_basis(vectors: Iterable[Vector]) -> list[Vector]:
    """A basis of the span of the vectors, by incremental exact elimination:
    each vector is reduced by the rows kept so far, and what is left, if
    nonzero, is kept with a 1 at its first nonzero column (its pivot)."""
    rows: list[tuple[int, Vector]] = []
    for v in vectors:
        for col, row in rows:
            if f := v[col]:
                v = tuple(a - f * b for a, b in zip(v, row))
        pivot = next((k for k, a in enumerate(v) if a), None)
        if pivot is not None:
            rows.append((pivot, tuple(a / v[pivot] for a in v)))
    return [row for _, row in rows]


@lru_cache(maxsize=None)
def nilpotency_index(L: LieAlgebra) -> Optional[int]:
    """Smallest N with the lower central series g^(N+1) = 0, or None.

    g^(1) = g, g^(m+1) = [g, g^(m)], each term spanned by an exact echelon
    basis over Q.  The series only shrinks, so a term with the dimension of
    the one before equals it: the series has stabilized at a nonzero term.
    """
    current, n = [basis_vector(L, i) for i in range(L.dim)], 1
    while True:
        nxt = _span_basis(
            bracket(L, basis_vector(L, i), v) for i in range(L.dim) for v in current
        )
        if not nxt:
            return n
        if len(nxt) == len(current):
            return None
        current, n = nxt, n + 1


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieHom:
    """Linear map source -> target, matrix columns = images of basis vectors."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: tuple[Vector, ...]  # matrix[i] = phi(e_i), length source.dim

    def __post_init__(self):
        if len(self.matrix) != self.source.dim:
            raise ValueError("need one image column per source basis vector")
        for col in self.matrix:
            if len(col) != self.target.dim:
                raise ValueError("image vectors must live in the target algebra")

    def apply(self, v: Sequence) -> Vector:
        v = as_vector(self.source, v)
        out = [Fraction(0)] * self.target.dim
        for i, c in enumerate(v):
            if c:
                for k, m in enumerate(self.matrix[i]):
                    out[k] += c * m
        return tuple(out)


def make_hom(
    source: LieAlgebra, target: LieAlgebra, columns: Sequence[Sequence]
) -> LieHom:
    return LieHom(
        source, target, tuple(as_vector(target, col) for col in columns)
    )


@dataclass(frozen=True)
class HomReport:
    ok: bool
    pair: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "ok" if self.ok else f"bracket not intertwined on basis pair {self.pair}"


def check_hom(phi: LieHom) -> HomReport:
    """phi([e_i, e_j]) = [phi(e_i), phi(e_j)] on all basis pairs i < j."""
    L, M = phi.source, phi.target
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = phi.apply(bracket(L, basis_vector(L, i), basis_vector(L, j)))
            rhs = bracket(M, phi.matrix[i], phi.matrix[j])
            if lhs != rhs:
                return HomReport(False, (i, j))
    return HomReport(True)


# ---------------------------------------------------------------------------
# definition files
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {"dim", "basis", "brackets", "weights"}
_ALLOWED_BRACKET_KEYS = {"i", "j", "coeffs"}


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational for {what}: {text!r}") from exc


def load_algebra(source: Union[str, Path, dict]) -> tuple[LieAlgebra, list[Fraction]]:
    """Parse a definition file (path or already-decoded dict); returns
    the validated algebra and its seminorm weights (default all 1)."""
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("algebra definition must be an object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ValueError(f"unknown keys in algebra definition: {sorted(unknown)}")
    if "dim" not in data or "basis" not in data:
        raise ValueError("algebra definition needs 'dim' and 'basis'")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise ValueError("'basis' must be a list of dim strings")

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in data.get("brackets", []):
        if not isinstance(entry, dict):
            raise ValueError("bracket entries must be objects")
        unknown = set(entry) - _ALLOWED_BRACKET_KEYS
        if unknown:
            raise ValueError(f"unknown keys in bracket entry: {sorted(unknown)}")
        i, j = entry.get("i"), entry.get("j")
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < dim):
            raise ValueError(f"bracket entry needs integer 0 <= i < j < dim, got ({i},{j})")
        if (i, j) in brackets:
            raise ValueError(f"duplicate bracket entry for ({i},{j})")
        coeffs = {}
        for k_str, c_str in entry.get("coeffs", {}).items():
            try:
                k = int(k_str)
            except ValueError as exc:
                raise ValueError(f"bad basis index {k_str!r}") from exc
            if not 0 <= k < dim:
                raise ValueError(f"bracket target index {k} out of range")
            c = _parse_rational(c_str, f"bracket ({i},{j})->{k}")
            if c:
                coeffs[k] = c
        brackets[(i, j)] = coeffs

    weights_raw = data.get("weights", ["1"] * dim)
    if not isinstance(weights_raw, list) or len(weights_raw) != dim:
        raise ValueError("'weights' must list one rational per basis element")
    weights = [_parse_rational(w, "weight") for w in weights_raw]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")

    algebra = make_algebra(dim, basis, brackets)
    report = validate(algebra)
    if not report:
        raise ValueError(f"invalid Lie algebra: {report}")
    return algebra, weights
