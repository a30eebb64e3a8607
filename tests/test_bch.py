import math
from fractions import Fraction

import pytest

from guttstar import bch
from guttstar.bch import (
    MAX_TRUNCATION,
    bch_ab,
    bch_element,
    bch_tilde,
    bernoulli_star,
    carlitz_check,
    dynkin_bracket,
    dynkin_consistency_residual,
    exp_product_check,
    goldberg_coefficient,
    kernel_K,
    log_expansion,
    nfold_star,
    one_parameter_check,
    star_bch,
    star_bch_elements,
    star_linear,
    thompson_sum,
)
from guttstar.liealg import abelian, basis_vector, bracket, sl2
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement, sym_mul
from guttstar.zpoly import PolyZ

from random_inputs import random_monomial, random_nonzero_vector

# ---------------------------------------------------------------------------
# the word expansion
# ---------------------------------------------------------------------------


def test_log_expansion_low_degrees():
    series = log_expansion(4)
    assert series.get("X", 0) == 1
    assert series.get("Y", 0) == 1
    assert series.get("XY", 0) == Fraction(1, 2)
    assert series.get("YX", 0) == Fraction(-1, 2)
    assert series.get("XX", 0) == 0
    assert series.get("YYY", 0) == 0
    # classical degree-3 values
    assert series.get("XXY", 0) == Fraction(1, 12)
    assert series.get("XYX", 0) == Fraction(-1, 6)


def _log_expansion_by_powers(truncation):
    """log(1 + E) = sum_m (-1)^(m+1) E^m / m with E = e^X e^Y - 1, summed
    power by power on {word: Fraction} maps cut at the truncation."""
    e_terms = {
        "X" * a + "Y" * b: Fraction(1, math.factorial(a) * math.factorial(b))
        for a in range(truncation + 1)
        for b in range(truncation + 1 - a)
        if a + b >= 1
    }
    log = {}
    power = {"": Fraction(1)}
    for m in range(1, truncation + 1):
        nxt = {}
        for u, cu in power.items():
            for v, cv in e_terms.items():
                if len(u) + len(v) <= truncation:
                    nxt[u + v] = nxt.get(u + v, 0) + cu * cv
        power = nxt
        for w, c in power.items():
            log[w] = log.get(w, 0) + Fraction((-1) ** (m + 1), m) * c
    return {w: c for w, c in log.items() if c}


def test_log_expansion_matches_power_series():
    for n in range(1, 11):
        series = log_expansion(n)
        assert series == _log_expansion_by_powers(n), n
        assert all(type(c) is Fraction for c in series.values())


def test_goldberg_table_is_right_in_any_request_order(monkeypatch):
    """The table is built again only for a length longer than it holds, and
    every read is right whichever length came first."""
    monkeypatch.setattr(bch, "_goldberg", ({}, (1,)))
    L = sl2()
    H, E = basis_vector(L, 0), basis_vector(L, 1)
    requests = [
        (7, lambda: star_bch(L, H, 4, E, 3)),
        (3, lambda: goldberg_coefficient("XYX")),
        (10, lambda: star_bch(L, H, 5, E, 5)),
        (5, lambda: goldberg_coefficient("XXYXY")),
    ]
    top = 0
    for n, request in requests:
        request()
        top = max(top, n)
        assert len(bch._goldberg[1]) == top + 1, n
    full = log_expansion(10)
    for n, _ in requests:
        assert log_expansion(n) == _log_expansion_by_powers(n), n
        assert log_expansion(n) == {w: c for w, c in full.items() if len(w) <= n}, n


def test_goldberg_coefficient_api():
    assert goldberg_coefficient("X") == 1
    assert goldberg_coefficient("XY") == Fraction(1, 2)
    with pytest.raises(ValueError):
        goldberg_coefficient("")
    with pytest.raises(ValueError):
        goldberg_coefficient("XZ")
    with pytest.raises(ValueError):
        goldberg_coefficient("X" * (MAX_TRUNCATION + 1))


def test_thompson_sums_bounded():
    for n in range(2, 11):
        assert thompson_sum(n) <= 2
    assert thompson_sum(1) == 2


def test_dynkin_consistency():
    for n in range(1, 9):
        assert not dynkin_consistency_residual(n)


# ---------------------------------------------------------------------------
# concrete bracket evaluation
# ---------------------------------------------------------------------------


def test_dynkin_bracket(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    assert dynkin_bracket(heis, "XY", P, Q) == basis_vector(heis, 2)
    assert dynkin_bracket(heis, "XX", P, Q) == (0, 0, 0)
    assert dynkin_bracket(heis, "XYX", P, Q) == (0, 0, 0)
    assert dynkin_bracket(heis, "X", P, Q) == P


def test_public_vectors_have_fraction_components(heis, sl2_algebra):
    """The walk runs on ints; every vector handed back is Fraction-valued,
    zeros included."""
    P, Q = (1, 0, 0), (0, 1, 0)
    for L in (heis, sl2_algebra):
        results = [
            bracket(L, P, Q),
            bracket(L, P, P),
            dynkin_bracket(L, "XY", P, Q),
            dynkin_bracket(L, "XXY", P, Q),
            bch_ab(L, 1, 1, P, Q),
            bch_ab(L, 2, 0, P, Q),
            bch_ab(L, 2, 1, (0, 0, 0), Q),
        ]
        for vec in results:
            assert all(type(c) is Fraction for c in vec), vec
    assert all(type(c) is Fraction for c in bch_element(heis, P, Q, Fraction(2, 3)))


def test_bch_ab(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        xi = random_nonzero_vector(L, rng)
        eta = random_nonzero_vector(L, rng)
        half = tuple(Fraction(1, 2) * c for c in bracket(L, xi, eta))
        assert bch_ab(L, 1, 1, xi, eta) == half
        assert bch_ab(L, 1, 0, xi, eta) == xi
        assert bch_ab(L, 0, 1, xi, eta) == eta
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    assert bch_ab(heis, 2, 1, P, Q) == (0, 0, 0)


def test_bch_tilde_collapse_and_symmetry(sl2_algebra, rng):
    L = sl2_algebra
    for a in range(1, 4):
        for b in range(0, 3):
            if a + b < 1 or a + b > 5:
                continue
            xi = random_nonzero_vector(L, rng)
            eta = random_nonzero_vector(L, rng)
            assert bch_tilde(L, [xi] * a, [eta] * b) == bch_ab(L, a, b, xi, eta)
    x1, x2 = random_nonzero_vector(L, rng), random_nonzero_vector(L, rng)
    y1 = random_nonzero_vector(L, rng)
    assert bch_tilde(L, [x1, x2], [y1]) == bch_tilde(L, [x2, x1], [y1])
    half = tuple(Fraction(1, 2) * c for c in bracket(L, x1, y1))
    assert bch_tilde(L, [x1], [y1]) == half


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_star_values():
    table = bernoulli_star(8)
    assert table[0] == 1
    assert table[1] == Fraction(1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[3] == 0
    assert table[4] == Fraction(-1, 30)
    assert table[5] == 0
    assert table[6] == Fraction(1, 42)


def test_bernoulli_invariants():
    table = bernoulli_star(30)
    for n in range(31):
        total = sum(
            Fraction((-1) ** (n - j)) * table[j] / (math.factorial(j) * math.factorial(n + 1 - j))
            for j in range(n + 1)
        )
        assert total == (1 if n == 0 else 0)
        assert abs(table[n]) <= math.factorial(n)


# ---------------------------------------------------------------------------
# products with a linear factor
# ---------------------------------------------------------------------------


def test_star_linear_examples(heis):
    P = SymElement.basis(heis, 0)
    Q_vec = basis_vector(heis, 1)
    # xi * eta = xi eta + (z/2)[xi, eta]
    result = star_linear(P, Q_vec)
    expected = sym_mul(P, SymElement.basis(heis, 1)) + SymElement(
        heis, {(0, 0, 1): PolyZ.z(coeff=Fraction(1, 2))}
    )
    assert result == expected
    # P^2 * Q = P^2 Q + z P E
    result = star_linear(P**2, Q_vec)
    expected = SymElement(heis, {(2, 1, 0): 1, (1, 0, 1): PolyZ.z()})
    assert result == expected


def test_star_linear_abelian():
    L = abelian(3)
    x = SymElement.monomial(L, (2, 1, 0), Fraction(3, 2))
    eta = basis_vector(L, 2)
    assert star_linear(x, eta) == sym_mul(x, SymElement.from_vector(L, eta))


def test_star_linear_matches_oracle(heis, sl2_algebra, fil4, rng):
    for L in (heis, sl2_algebra, fil4):
        for _ in range(25):
            alpha = random_monomial(L, rng, 8)
            eta = random_nonzero_vector(L, rng)
            x = SymElement.monomial(L, alpha)
            assert star_linear(x, eta) == star_pbw(x, SymElement.from_vector(L, eta))


def test_nfold_star(heis, rng):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    E = basis_vector(heis, 2)
    result = nfold_star(heis, [P, Q, E])
    expected = SymElement(
        heis, {(1, 1, 1): 1, (0, 0, 2): PolyZ.z(coeff=Fraction(1, 2))}
    )
    assert result == expected
    # n = 2 reduces to star_linear
    assert nfold_star(heis, [P, Q]) == star_linear(SymElement.from_vector(heis, P), Q)
    # equals the oracle fold on random tuples
    for L in (heis, sl2()):
        for _ in range(10):
            vectors = [random_nonzero_vector(L, rng) for _ in range(rng.randint(1, 6))]
            acc = SymElement.from_vector(L, vectors[0])
            for v in vectors[1:]:
                acc = star_pbw(acc, SymElement.from_vector(L, v))
            assert nfold_star(L, vectors) == acc
    L = abelian(2)
    vs = [basis_vector(L, 0), basis_vector(L, 1), basis_vector(L, 0)]
    assert nfold_star(L, vs) == SymElement.monomial(L, (2, 1))


# ---------------------------------------------------------------------------
# C_n operators
# ---------------------------------------------------------------------------


def test_cn_monomial_first_order(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        xi = random_nonzero_vector(L, rng)
        eta = random_nonzero_vector(L, rng)
        half = SymElement.from_vector(L, bracket(L, xi, eta)).scale(Fraction(1, 2))
        assert star_bch(L, xi, 1, eta, 1).z_coefficient(1) == half


def test_cn_monomial_heisenberg_closed_form(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    for k in range(1, 5):
        for j in range(1, k + 1):
            coeff = Fraction(math.comb(k, j) ** 2 * math.factorial(j), 2**j)
            expected = SymElement(heis, {(k - j, k - j, j): coeff})
            assert star_bch(heis, P, k, Q, k).z_coefficient(j) == expected


def test_cn_monomial_out_of_range(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    assert star_bch(heis, P, 1, Q, 1).z_coefficient(2).is_zero
    assert star_bch(heis, P, 2, Q, 1).z_coefficient(0) == sym_mul(
        SymElement.basis(heis, 0) ** 2, SymElement.basis(heis, 1)
    )


def test_cn_nilpotent_vanishing(heis, fil4):
    for L in (heis, fil4):
        from guttstar.liealg import nilpotency_index

        N = nilpotency_index(L)
        xi = basis_vector(L, 0)
        eta = basis_vector(L, 1)
        for k in range(1, 4):
            for l in range(1, 4):
                for n in range(1, k + l):
                    if n > (k + l) * (N - 1) / N:
                        assert star_bch(L, xi, k, eta, l).z_coefficient(n).is_zero


def test_cn_general_first_orders(heis, sl2_algebra):
    for L in (heis, sl2_algebra):
        x = SymElement.basis(L, 0)
        y = SymElement.basis(L, 1)
        assert star_pbw(x, y).z_coefficient(0) == sym_mul(x, y)
        first = star_pbw(x, y).z_coefficient(1) - star_pbw(y, x).z_coefficient(1)
        expected = SymElement.from_vector(
            L, bracket(L, basis_vector(L, 0), basis_vector(L, 1))
        )
        assert first == expected


# ---------------------------------------------------------------------------
# assembled BCH-route product
# ---------------------------------------------------------------------------


def test_star_bch_examples(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    assert star_bch(heis, P, 1, Q, 1) == star_pbw(
        SymElement.basis(heis, 0), SymElement.basis(heis, 1)
    )
    assert star_bch(heis, P, 3, Q, 0) == SymElement.basis(heis, 0) ** 3
    assert star_bch(heis, P, 3, Q, 2) == star_pbw(
        SymElement.basis(heis, 0) ** 3, SymElement.basis(heis, 1) ** 2
    )


def test_star_bch_dim_four(fil4, rng):
    xi = basis_vector(fil4, 0)
    eta = basis_vector(fil4, 1)
    for k in range(0, 5):
        for l in range(0, 5 - k):
            assert star_bch(fil4, xi, k, eta, l) == star_pbw(
                SymElement.from_vector(fil4, xi) ** k,
                SymElement.from_vector(fil4, eta) ** l,
            )


def test_star_bch_elements_mixed_monomials(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(8):
            alpha = random_monomial(L, rng, 2)
            beta = random_monomial(L, rng, 2)
            x = SymElement.monomial(L, alpha)
            y = SymElement.monomial(L, beta)
            assert star_bch_elements(x, y) == star_pbw(x, y)


# ---------------------------------------------------------------------------
# kernel identities
# ---------------------------------------------------------------------------


def test_kernel_K_is_delta():
    for k in range(13):
        for s in range(k + 1):
            assert kernel_K(k, s) == (1 if s == 0 else 0)
    with pytest.raises(ValueError):
        kernel_K(3, 4)


def test_carlitz_residuals():
    for k in range(13):
        for m in range(13):
            assert carlitz_check(k, m) == 0
    assert carlitz_check(0, 7) == 0
    assert carlitz_check(3, 2) == 0


# ---------------------------------------------------------------------------
# exponential identities
# ---------------------------------------------------------------------------


def test_bch_element_heisenberg(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    # (1/z) BCH(zP, zQ) at z = 1 is P + Q + (1/2)E
    assert bch_element(heis, P, Q, 1) == (1, 1, Fraction(1, 2))
    assert bch_element(heis, P, Q, 4) == (1, 1, 2)


def test_exp_product_check_heisenberg(heis):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    assert exp_product_check(heis, P, Q, 1, 6).is_zero
    assert exp_product_check(heis, P, Q, Fraction(1, 2), 4).is_zero


def test_exp_product_check_general_vectors(heis, rng):
    xi = random_nonzero_vector(heis, rng, span=2)
    eta = random_nonzero_vector(heis, rng, span=2)
    assert exp_product_check(heis, xi, eta, 1, 3).is_zero


def test_exp_product_check_abelian():
    L = abelian(2)
    a = basis_vector(L, 0)
    b = basis_vector(L, 1)
    assert exp_product_check(L, a, b, 1, 5).is_zero


def test_exp_product_check_preconditions(heis, sl2_algebra):
    P = basis_vector(heis, 0)
    Q = basis_vector(heis, 1)
    with pytest.raises(ValueError):
        exp_product_check(sl2_algebra, P, Q, 1, 4)
    with pytest.raises(ValueError):
        exp_product_check(heis, P, Q, 0, 4)


def test_exp_product_check_reads_the_nilpotency_index_once(heis):
    from guttstar.liealg import nilpotency_index

    nilpotency_index.cache_clear()
    exp_product_check(heis, basis_vector(heis, 0), basis_vector(heis, 1), 1, 6)
    info = nilpotency_index.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_one_parameter_group_law(heis, rng):
    xi = random_nonzero_vector(heis, rng)
    assert one_parameter_check(heis, xi, 1, Fraction(-1, 2), 1, 6).is_zero
    assert one_parameter_check(heis, xi, Fraction(2, 3), Fraction(1, 3), -2, 5).is_zero
