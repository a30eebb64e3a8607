import collections
import csv
import hashlib
import math
from fractions import Fraction

import pytest

import guttstar.experiments as ex
from guttstar.liealg import basis_vector, filiform4, heisenberg, sl2
from guttstar.sym import Seminorm


@pytest.fixture(scope="module")
def p_heis():
    return Seminorm.ell1(heisenberg())


def test_cn_estimate_passes_and_has_expected_row(heis, p_heis):
    (report,) = ex.cn_sweep(heis, p_heis, [1.0], max_total_degree=4, n_random=10)
    assert report.passed
    # hand-computed instance: x = P, y = Q, n = 1 gives 1/2 <= 64
    row = next(
        r for r in report.rows if r.params == "mono:(1, 0, 0)|(0, 1, 0),n=1"
    )
    assert math.isclose(row.lhs, 0.5)
    assert math.isclose(row.rhs, 64.0)


def test_cn_estimate_falsified_constant_fails(heis, p_heis):
    (report,) = ex.cn_sweep(heis, p_heis, [1.0], max_total_degree=4, n_random=0, constant=0.25)
    assert not report.passed
    assert report.failures()


def test_cn_estimate_r_sweep(heis, p_heis):
    for R in (1.0, 1.5, 2.0):
        (report,) = ex.cn_sweep(heis, p_heis, [R], max_total_degree=4, n_random=10)
        assert report.passed


def test_product_estimate(heis, p_heis):
    for z0 in (0, 1, -2):
        (report,) = ex.product_sweep(heis, p_heis, [(1.0, z0)], max_total_degree=4, n_random=10)
        assert report.passed


def test_product_estimate_abelian_trivial():
    L = ex.heisenberg()
    from guttstar.liealg import abelian

    A = abelian(3)
    (report,) = ex.product_sweep(A, Seminorm.ell1(A), [(1.0, 1)], max_total_degree=4, n_random=10)
    assert report.passed


def test_growth_table_grid_pairs():
    # at the z = 2 normalization the stated rate is exact for every pair
    for R, eps in ((0.0, 0.2), (0.5, 0.125), (0.9, 0.04)):
        table = ex.heisenberg_growth(R, eps, 8, z0=2)
        assert table.passed
    # at z = 1 divergence persists for all pairs ...
    for R, eps in ((0.0, 0.2), (0.5, 0.125), (0.9, 0.04)):
        table = ex.heisenberg_growth(R, eps, 8, z0=1)
        assert table.factors_decreasing
        assert table.products_increasing
    # ... and the rate bound holds for the acceptance pair
    assert ex.heisenberg_growth(0.5, 0.125, 8, z0=1).bound_holds


def test_growth_rate_fails_at_small_R_and_z_one():
    # the exact product carries (z/2)^j; at z = 1, R = 0 the k!^(1-2eps)
    # rate is genuinely violated from k = 6 on even though the product
    # column still diverges
    table = ex.heisenberg_growth(0.0, 0.2, 8, z0=1)
    assert not table.bound_holds
    assert table.products_increasing


def test_growth_default_grid_passes():
    reports = ex.run_experiment("heisenberg-growth", k_max=6)
    assert all(r.passed for r in reports)


def test_growth_table_exact_factor_norms():
    table = ex.heisenberg_growth(0.5, 0.125, 6)
    for row in table.rows:
        expected = math.exp(-0.125 * math.lgamma(row.k + 1))
        assert math.isclose(row.factor_norm, expected, rel_tol=1e-9)
    # k = 4: factor norm 24^(-1/8); the rate formula gives k!^(1-R-2eps),
    # i.e. 24^(1/4) here, and the product comfortably clears 24^(3/8) too
    row4 = table.rows[3]
    assert math.isclose(row4.factor_norm, 24 ** (-0.125), rel_tol=1e-9)
    assert math.isclose(row4.lower_bound, 24 ** 0.25, rel_tol=1e-9)
    assert row4.product_norm >= 24 ** 0.375


def test_growth_parameter_validation():
    with pytest.raises(ValueError):
        ex.heisenberg_growth(1.0, 0.1, 4)
    with pytest.raises(ValueError):
        ex.heisenberg_growth(0.5, 0.3, 4)


def test_linear_estimate_series_and_split_paths(heis, p_heis):
    for R, z0, k_max, n_random in ((1.0, 0, 5, 5), (1.0, 1, 6, 10), (2.0, 7, 6, 10)):
        (report,) = ex.linear_sweep(heis, p_heis, [(R, z0)], k_max=k_max, n_random=n_random)
        assert report.passed
    with pytest.raises(ValueError):
        ex.linear_factor_constant(1.0, 7)


def test_nfold_estimate(heis, p_heis):
    for z0 in (1, -2):
        (report,) = ex.nfold_sweep(heis, p_heis, [(1.0, z0)], n_random=20)
        assert report.passed
    from guttstar.liealg import abelian

    A = abelian(2)
    (report,) = ex.nfold_sweep(A, Seminorm.ell1(A), [(1.5, 1)], n_random=10)
    assert report.passed


def test_nilpotent_estimates(heis, p_heis, fil4):
    (report,) = ex.nilpotent_sweep(heis, p_heis, [(0.5, 1)], max_total_degree=4, n_random=10)
    assert report.passed
    (report,) = ex.nilpotent_sweep(
        fil4, Seminorm.ell1(fil4), [(0.5, 1)], max_total_degree=4, n_random=10
    )
    assert report.passed
    with pytest.raises(ValueError):
        ex.nilpotent_sweep(sl2(), Seminorm.ell1(sl2()), [(0.5, 1)])
    with pytest.raises(ValueError):
        ex.nilpotent_sweep(heis, p_heis, [(1.0, 1)])


def test_no_exponential_witness(heis, p_heis):
    xi = basis_vector(heis, 0)
    rows = ex.no_exponential_witness(heis, p_heis, 1.0, xi, 15)
    assert all(row.partial_sum == row.order + 1 for row in rows)
    rows = ex.no_exponential_witness(heis, p_heis, 2.0, xi, 10)
    assert all(row.partial_sum >= row.order for row in rows)
    # super-exponential growth at R = 2
    assert rows[-1].partial_sum > math.factorial(10)
    with pytest.raises(ValueError):
        ex.no_exponential_witness(heis, p_heis, 1.0, (0, 0, 0), 5)


def test_no_exponential_convergence_below_one(heis, p_heis):
    xi = basis_vector(heis, 0)
    rows = ex.no_exponential_witness(heis, p_heis, 0.9, xi, 200)
    assert abs(rows[200].partial_sum - rows[150].partial_sum) < 1e-6


def test_functoriality(heis):
    for tag, phi in ex.standard_homs():
        (report,) = ex.functorial_sweep(phi, [(1.0, 1)])
        assert report.passed, tag


def test_weyl_estimate():
    for z0, central in ((1, 1), (-2, Fraction(1, 2))):
        (report,) = ex.weyl_sweep([(0.5, z0, central)], max_factor_degree=3)
        assert report.passed


def test_hopf_estimates(heis, p_heis):
    for R in (0.5, 1.0, 2.0):
        (report,) = ex.hopf_sweep(heis, p_heis, [R], max_degree=5, n_random=15)
        assert report.passed


def test_run_experiment_and_csv(tmp_path, heis):
    reports = ex.run_experiment(
        "heisenberg-growth", algebra=heis, eps=0.125, R_list=[0.5], k_max=6
    )
    assert all(r.passed for r in reports)
    path = tmp_path / "out.csv"
    ex.write_csv(reports, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    assert set(rows[0]) == {"estimate_id", "params", "lhs", "rhs", "ratio", "pass"}
    text = ex.summary_text(reports)
    assert "heisenberg-growth" in text and "0 failures" in text
    for report in reports:
        worst = max(
            (r for r in report.rows if math.isfinite(r.ratio)), key=lambda r: r.ratio
        )
        assert f"worst lhs/rhs {worst.ratio:.6g} at {worst.params}" in text


# sha256 over "estimate_id|grid|params|repr(lhs)|repr(rhs)" lines of all ten
# default sweeps at seed=0, max_degree=4, taken before the sweeps built their
# inputs once per call and before star_pbw served unit monomials from its memo
SWEEP_ROWS = 20706
SWEEP_DIGEST = "90f1973f19c9e5b4ff3731035b21e3507f3a797622b6541f9068ed7cfcd67215"


def test_default_sweeps_keep_their_rows():
    digest = hashlib.sha256()
    rows = 0
    for name in ex.EXPERIMENT_NAMES:
        for report in ex.run_experiment(name, seed=0, max_degree=4):
            for row in report.rows:
                line = f"{report.estimate_id}|{report.grid}|{row.params}|{row.lhs!r}|{row.rhs!r}\n"
                digest.update(line.encode())
                rows += 1
    assert rows == SWEEP_ROWS
    assert digest.hexdigest() == SWEEP_DIGEST


WEIGHTS = (Fraction(2), Fraction(1, 3), Fraction(5, 2))


def _point_reports(name, L, p, Rs, zs, max_degree, k_max, seed):
    """The sweep on a one-point grid at each point of run_experiment's grid."""
    grid = [(R, z0) for R in Rs for z0 in zs]
    if name == "cn-estimate":
        return [ex.cn_sweep(L, p, [R], max_total_degree=max_degree, seed=seed)[0] for R in Rs]
    if name == "product-estimate":
        return [
            ex.product_sweep(L, p, [point], max_total_degree=max_degree, seed=seed)[0]
            for point in grid
        ]
    if name == "linear-estimate":
        return [
            ex.linear_sweep(L, p, [(R, z0)], k_max=k_max, seed=seed)[0]
            for R, z0 in grid
            if abs(z0) < 2 * math.pi or R > 1
        ]
    if name == "nfold-estimate":
        return [ex.nfold_sweep(L, p, [point], seed=seed)[0] for point in grid]
    if name == "nilpotent-estimate":
        return [
            ex.nilpotent_sweep(L, p, [point], max_total_degree=max_degree, seed=seed)[0]
            for point in grid
        ]
    if name == "weyl-estimate":
        return [ex.weyl_sweep([(R, z0, c0)])[0] for R, z0 in grid for c0 in (1, -2)]
    assert name == "hopf-estimate"
    return [ex.hopf_sweep(L, p, [R], max_degree=max_degree, seed=seed)[0] for R in Rs]


def _report_rows(reports):
    return [
        (r.estimate_id, r.grid, [(row.params, repr(row.lhs), repr(row.rhs)) for row in r.rows])
        for r in reports
    ]


# (experiment, algebra, weights, R_list, z_list); every grid repeats a point
GRID_CASES = [
    ("cn-estimate", heisenberg(), WEIGHTS, [1.0, 1.5, 1.0], [Fraction(1)]),
    ("cn-estimate", sl2(), None, [2.0, 1.0, 2.0], [Fraction(1)]),
    ("product-estimate", heisenberg(), WEIGHTS, [1.0, 2.0], [Fraction(1), Fraction(1), Fraction(-2)]),
    ("product-estimate", sl2(), None, [1.5, 1.5], [Fraction(0), Fraction(1, 2)]),
    ("linear-estimate", heisenberg(), WEIGHTS, [1.0, 2.0], [Fraction(1), Fraction(7), Fraction(1)]),
    ("nfold-estimate", heisenberg(), WEIGHTS, [1.0, 1.0], [Fraction(1), Fraction(-2)]),
    ("nilpotent-estimate", heisenberg(), WEIGHTS, [0.5, 0.0, 0.5], [Fraction(1), Fraction(1)]),
    ("nilpotent-estimate", filiform4(), None, [0.0, 0.9], [Fraction(1), Fraction(-2), Fraction(1)]),
    ("weyl-estimate", heisenberg(), None, [0.5, 1.0], [Fraction(1), Fraction(1)]),
    ("hopf-estimate", heisenberg(), WEIGHTS, [0.5, 2.0, 0.5], [Fraction(1)]),
]


@pytest.mark.parametrize("name,L,weights,Rs,zs", GRID_CASES)
def test_sweep_reports_equal_one_point_checks(name, L, weights, Rs, zs):
    """A sweep over the whole grid gives, point by point and in order, the
    reports of the same sweep on one-point grids; a repeated point repeats its
    report."""
    got = ex.run_experiment(
        name, algebra=L, weights=weights, R_list=Rs, z_list=zs, max_degree=3, k_max=3, seed=5
    )
    p = Seminorm.ell1(L, weights)
    want = _point_reports(name, L, p, Rs, zs, max_degree=3, k_max=3, seed=5)
    assert _report_rows(got) == _report_rows(want)
    grids = [r.grid for r in got]
    assert len(set(grids)) < len(grids)
    for report in got:
        assert report.rows
        assert _report_rows([report]) == _report_rows([got[grids.index(report.grid)]])


@pytest.mark.parametrize(
    "sweep,args",
    [
        (ex.cn_sweep, (heisenberg(), Seminorm.ell1(heisenberg()), [1.0, 1.5, 2.0], 4, 0)),
        (ex.product_sweep, (heisenberg(), Seminorm.ell1(heisenberg()), [(1.0, 0), (2.0, 1), (1.5, -2)], 4, 0)),
        (ex.linear_sweep, (heisenberg(), Seminorm.ell1(heisenberg()), [(1.0, 1), (2.0, 7)], 4, 0)),
        (ex.nfold_sweep, (heisenberg(), Seminorm.ell1(heisenberg()), [(1.0, 1), (1.5, -2)])),
        (ex.nilpotent_sweep, (filiform4(), Seminorm.ell1(filiform4()), [(0.0, 1), (0.9, -2)], 3)),
        (ex.weyl_sweep, ([(0.5, 1, 1), (1.0, -2, -2)], 3)),
        (ex.hopf_sweep, (heisenberg(), Seminorm.ell1(heisenberg()), [0.5, 1.0, 2.0], 3, 0)),
    ],
)
def test_falsified_constant_fails_at_every_grid_point(sweep, args):
    """The norms shared across a sweep's grid keep each point's own bound:
    a constant of 1/4 fails every report, not only the first."""
    reports = sweep(*args, constant=0.25)
    assert len(reports) > 1
    assert all(report.failures() for report in reports)


def test_sweeps_do_grid_invariant_work_once(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ex, "weyl_project", counted("weyl_project", ex.weyl_project))
    monkeypatch.setattr(ex, "star_pbw", counted("star_pbw", ex.star_pbw))
    pairs = len(list(ex.monomial_pairs(heisenberg(), 8, 4)))
    assert len(ex.run_experiment("weyl-estimate", max_degree=4)) == 8
    # once per (pair, central), over two R and two z
    assert calls == {"weyl_project": 2 * pairs, "star_pbw": pairs}

    calls.clear()
    assert len(ex.run_experiment("product-estimate", max_degree=3)) == 9
    # once per input pair: every monomial pair, then the 100 random pairs
    assert calls == {"star_pbw": len(list(ex.monomial_pairs(heisenberg(), 3))) + 100}


def test_functorial_sweep_does_the_morphism_rows_once(monkeypatch):
    """The morphism identity and the folds are computed once per hom, not once
    per grid point, and each report keeps the rows of a one-point sweep."""
    calls = collections.Counter()
    star_pbw = ex.star_pbw

    def counted(*args):
        calls["star_pbw"] += 1
        return star_pbw(*args)

    monkeypatch.setattr(ex, "star_pbw", counted)
    Rs, zs = [1.0, 2.0], [Fraction(1), Fraction(-2)]
    got = ex.run_experiment("functorial", R_list=Rs, z_list=zs, seed=3)
    # per hom: 20 morphism samples with 2 products each, and 3 folds of
    # n - 1 products for each n <= 5
    assert calls["star_pbw"] == 3 * (20 * 2 + 3 * 10) == 210
    monkeypatch.undo()
    want = []
    for tag, phi in ex.standard_homs():
        for R in Rs:
            for z0 in zs:
                (report,) = ex.functorial_sweep(phi, [(R, z0)], seed=3)
                report.estimate_id = f"functorial:{tag}"
                want.append(report)
    assert len(got) == 12
    assert _report_rows(got) == _report_rows(want)


@pytest.mark.parametrize("L", [heisenberg(), sl2()])
def test_monomial_pairs_factor_bound_keeps_order(L):
    for total, factor in ((8, 4), (6, 2), (5, 5), (4, 0), (3, 7)):
        expected = [
            (a, b)
            for a, b in ex.monomial_pairs(L, total)
            if sum(a) <= factor and sum(b) <= factor
        ]
        assert list(ex.monomial_pairs(L, total, factor)) == expected
    assert len(list(ex.monomial_pairs(heisenberg(), 8, 4))) == 1225


def test_run_experiment_rejects_unknown():
    with pytest.raises(ValueError):
        ex.run_experiment("nope")


def test_report_slack_semantics():
    report = ex.EstimateReport("demo", "grid")
    report.add("ok", 1.0, 1.0)
    report.add("within-slack", 1.0 + 5e-10, 1.0)
    assert report.passed
    report.add("fail", 1.0 + 1e-8, 1.0)
    assert not report.passed
    assert len(report.failures()) == 1


def test_report_non_finite_samples_fail():
    inf, nan = math.inf, math.nan
    for lhs, rhs in ((inf, inf), (1.0, inf), (inf, 1.0), (nan, 1.0), (1.0, nan), (-inf, 0.0)):
        report = ex.EstimateReport("demo", "grid")
        report.add("row", lhs, rhs)
        assert not report.passed, (lhs, rhs)
    report = ex.EstimateReport("demo", "grid")
    report.add("big", 1e300, 1e301)
    assert report.passed


def test_summary_reports_worst_finite_ratio():
    report = ex.EstimateReport("demo", "grid")
    report.add("a", 1.0, 4.0)
    report.add("b", 3.0, 4.0)
    report.add("over", math.inf, 1.0)
    report.add("zero", 1.0, 0.0)
    assert report.worst().params == "b"
    text = ex.summary_text([report, ex.EstimateReport("empty", "grid")])
    assert "(4 samples, 2 failures), worst lhs/rhs 0.75 at b" in text
    assert "pass  empty [grid] (0 samples, 0 failures)\ntotal" in text


def test_no_exp_convergence_windows_sum_their_own_terms():
    (report,) = [
        r for r in ex.run_experiment("no-exp", R_list=[0.9]) if r.estimate_id == "no-exp-convergence"
    ]
    assert [r.params for r in report.rows] == [
        "tail:50->100", "tail:100->150", "tail:150->200", "tail:200->250"
    ]
    assert report.passed
    # each window is a positive sum of n!^-0.1 terms, not a float difference
    for row, start in zip(report.rows, (50, 100, 150, 200)):
        expected = math.fsum(math.exp(-0.1 * math.lgamma(n + 1)) for n in range(start + 1, start + 51))
        assert 0.0 < row.lhs < ex.NO_EXP_TAIL_TOLERANCE
        assert math.isclose(row.lhs, expected, rel_tol=1e-9)
