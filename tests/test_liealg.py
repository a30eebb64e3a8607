import itertools
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guttstar.liealg import (
    abelian,
    basis_vector,
    bracket,
    check_hom,
    filiform4,
    heisenberg,
    load_algebra,
    make_algebra,
    make_hom,
    nilpotency_index,
    sl2,
    validate,
)
from random_inputs import nilpotent_algebras, rescaled_sl2


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def vectors(dim):
    return st.tuples(*([rationals] * dim))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_heisenberg_ok(heis):
    assert validate(heis)


def test_validate_abelian_ok():
    for dim in (1, 2, 5):
        assert validate(abelian(dim))


def test_validate_reports_first_violating_triple():
    bad = make_algebra(
        3, ("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}
    )
    report = validate(bad)
    assert not report
    assert report.triple == (0, 1, 2)
    # hand expansion: [[a,b],c] = [c,c] = 0, [[b,c],a] = [b,a] = -c,
    # [[c,a],b] = [-b,b] = 0, so the residual is -c
    assert report.residual == (Fraction(0), Fraction(0), Fraction(-1))


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_heisenberg(heis):
    P, Q, E = (basis_vector(heis, i) for i in range(3))
    assert bracket(heis, P, Q) == E
    assert bracket(heis, Q, P) == tuple(-c for c in E)
    assert bracket(heis, P, E) == (0, 0, 0)


def test_bracket_sl2(sl2_algebra):
    H, E, F = (basis_vector(sl2_algebra, i) for i in range(3))
    assert validate(sl2_algebra)
    assert bracket(sl2_algebra, E, F) == H
    assert bracket(sl2_algebra, H, E) == tuple(2 * c for c in E)


def test_bracket_dimension_mismatch(heis):
    with pytest.raises(ValueError):
        bracket(heis, (1, 0), (0, 1, 0))


@given(v=vectors(3), w=vectors(3))
def test_bracket_antisymmetry(v, w):
    L = heisenberg()
    assert bracket(L, v, w) == tuple(-c for c in bracket(L, w, v))
    assert bracket(L, v, v) == (0, 0, 0)


@given(v=vectors(3), w=vectors(3), u=vectors(3))
@settings(max_examples=50)
def test_jacobi_residual_on_random_triples(v, w, u):
    for L in (heisenberg(), sl2()):
        total = tuple(
            a + b + c
            for a, b, c in zip(
                bracket(L, bracket(L, v, w), u),
                bracket(L, bracket(L, w, u), v),
                bracket(L, bracket(L, u, v), w),
            )
        )
        assert total == (0, 0, 0)


# ---------------------------------------------------------------------------
# nilpotency
# ---------------------------------------------------------------------------


def test_nilpotency_index(heis, sl2_algebra, fil4):
    assert nilpotency_index(heis) == 2
    assert nilpotency_index(abelian(4)) == 1
    assert nilpotency_index(sl2_algebra) is None
    assert nilpotency_index(fil4) == 3
    # [e0, e1] = e1: the series stops at span(e1), one dimension below g
    assert nilpotency_index(make_algebra(2, ("e0", "e1"), {(0, 1): {1: 1}})) is None


@settings(max_examples=20, deadline=None)
@given(L=rescaled_sl2())
def test_nilpotency_index_of_rescaled_sl2_is_none(L):
    assert nilpotency_index(L) is None


def _nested(L, letters):
    val = basis_vector(L, letters[0])
    for i in letters[1:]:
        val = bracket(L, val, basis_vector(L, i))
    return val


@settings(max_examples=15, deadline=None)
@given(
    L=st.one_of(
        st.just(heisenberg()),
        st.just(filiform4()),
        nilpotent_algebras([0, 0, 1, -1, Fraction(1, 2)]),
    )
)
def test_nilpotency_vanishing_words(L):
    """Every nested bracket of N + 1 letters vanishes and some of N does not."""
    N = nilpotency_index(L)
    for letters in itertools.product(range(L.dim), repeat=N + 1):
        assert not any(_nested(L, letters))
    assert any(any(_nested(L, letters)) for letters in itertools.product(range(L.dim), repeat=N))


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_check_hom_identity(heis):
    identity = make_hom(heis, heis, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert check_hom(identity)


def test_check_hom_zero_map(heis):
    zero = make_hom(heis, abelian(3), [[0, 0, 0]] * 3)
    assert check_hom(zero)


def test_check_hom_swap_violates(heis):
    swap = make_hom(heis, heis, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    report = check_hom(swap)
    assert not report
    assert report.pair == (0, 1)


def test_check_hom_composition(heis):
    scale = make_hom(heis, heis, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    other = make_hom(heis, heis, [[1, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert check_hom(scale) and check_hom(other)
    # scale after other: the product of the two diagonal matrices
    assert check_hom(make_hom(heis, heis, [[2, 0, 0], [0, 3, 0], [0, 0, 6]]))


# ---------------------------------------------------------------------------
# definition files
# ---------------------------------------------------------------------------

HEISENBERG_FILE = {
    "dim": 3,
    "basis": ["P", "Q", "E"],
    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
    "weights": ["1", "1/2", "3"],
}


def test_load_algebra_roundtrip(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEISENBERG_FILE), encoding="utf-8")
    algebra, weights = load_algebra(path)
    assert algebra == heisenberg()
    assert weights == [Fraction(1), Fraction(1, 2), Fraction(3)]


def test_load_algebra_default_weights():
    data = {k: v for k, v in HEISENBERG_FILE.items() if k != "weights"}
    _, weights = load_algebra(data)
    assert weights == [Fraction(1)] * 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["brackets"].append({"i": 1, "j": 0, "coeffs": {"2": "1"}}),
        lambda d: d["brackets"].append({"i": 0, "j": 1, "k": 1}),
        lambda d: d.update(weights=["1", "0", "1"]),
        lambda d: d.update(weights=["1", "x", "1"]),
        lambda d: d.update(dim=0),
        lambda d: d.update(basis=["P", "Q"]),
    ],
)
def test_load_algebra_rejects_bad_input(mutate):
    data = json.loads(json.dumps(HEISENBERG_FILE))
    mutate(data)
    with pytest.raises(ValueError):
        load_algebra(data)


def test_load_algebra_rejects_jacobi_violation():
    data = {
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"1": "1"}},
            {"i": 1, "j": 2, "coeffs": {"1": "1"}},
        ],
    }
    with pytest.raises(ValueError, match="Jacobi"):
        load_algebra(data)


def test_equal_algebras_hash_equal_and_share_a_context():
    from guttstar.pbw import _context

    brackets = {(0, 1): {2: Fraction(1, 2)}}
    a = make_algebra(3, ("X", "Y", "Z"), brackets)
    b = make_algebra(3, ("X", "Y", "Z"), brackets)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _context(a) is _context(b)
    c = make_algebra(3, ("X", "Y", "Z"), {(0, 1): {2: 1}})
    assert a != c and _context(a) is not _context(c)


def test_unpickled_algebra_hashes_under_the_loading_process_seed():
    """The stored hash covers the basis names, whose str hashes change with
    PYTHONHASHSEED; a copy pickled in another process must not carry it."""
    dump = (
        "import pickle, sys; from guttstar.liealg import heisenberg; "
        "sys.stdout.buffer.write(pickle.dumps(heisenberg()))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    data = subprocess.run(
        [sys.executable, "-c", dump], env=env, capture_output=True, check=True
    ).stdout
    loaded = pickle.loads(data)
    assert loaded == heisenberg() and hash(loaded) == hash(heisenberg())
