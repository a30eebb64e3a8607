import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest

from guttstar.cli import VERIFY_MAX_DEGREE, main
from guttstar.exprs import ExprError, format_element, parse_element
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

from random_inputs import random_element

BCH_DUMP_DIGEST = "589ddd9f9ec3bf8367dc45f1f1ee5d2ba58902fe4c202fa46d6c8d7e34be66b3"


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


def test_parse_basics(heis):
    P = SymElement.basis(heis, 0)
    Q = SymElement.basis(heis, 1)
    assert parse_element(heis, "P") == P
    assert parse_element(heis, "P*Q") == parse_element(heis, "P Q")
    assert parse_element(heis, "P^3") == P**3
    assert parse_element(heis, "1/2 P") == P * Fraction(1, 2)
    assert parse_element(heis, "(P + Q)^2") == (P + Q) ** 2
    assert parse_element(heis, "-P + 2") == -P + SymElement.unit(heis, 2)
    assert parse_element(heis, "3/4") == SymElement.unit(heis, Fraction(3, 4))
    assert parse_element(heis, "z E") == SymElement(heis, {(0, 0, 1): PolyZ.z()})
    assert parse_element(heis, "(1/2)z E + P*Q") == star_pbw(
        SymElement.basis(heis, 0), SymElement.basis(heis, 1)
    )


def test_parse_errors_carry_position(heis):
    with pytest.raises(ExprError) as info:
        parse_element(heis, "P + R")
    assert info.value.position == 4
    with pytest.raises(ExprError):
        parse_element(heis, "P +")
    with pytest.raises(ExprError):
        parse_element(heis, "P ^ x")
    with pytest.raises(ExprError):
        parse_element(heis, "1/0")
    with pytest.raises(ExprError):
        parse_element(heis, "(P")
    with pytest.raises(ExprError):
        parse_element(heis, "P $ Q")


def test_format_round_trip(heis, sl2_algebra, rng):
    for L in (heis, sl2_algebra):
        for _ in range(30):
            x = random_element(L, rng, 4)
            x = x + SymElement(L, {(1, 0, 0): PolyZ.z(coeff=Fraction(-2, 3))})
            assert parse_element(L, format_element(x)) == x
    assert format_element(SymElement.zero(heis)) == "0"
    assert parse_element(heis, "0").is_zero


def test_format_star_product(heis):
    product = star_pbw(SymElement.basis(heis, 0), SymElement.basis(heis, 1))
    assert format_element(product) == "(1/2)*z*E + P*Q"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_mul(capsys):
    assert main(["mul", "P", "Q"]) == 0
    assert capsys.readouterr().out.strip() == "(1/2)*z*E + P*Q"
    assert main(["mul", "1", "Q^3"]) == 0
    assert capsys.readouterr().out.strip() == "Q^3"
    assert main(["mul", "P", "Q", "--z", "1"]) == 0
    assert capsys.readouterr().out.strip() == "(1/2)*E + P*Q"
    assert main(["mul", "P^2", "Q^2", "--method", "bch", "--check"]) == 0
    out = capsys.readouterr().out
    assert "methods agree" in out


def test_cli_mul_prints_a_coefficient_past_the_default_digit_limit(capsys):
    """A product coefficient longer than str() converts by default is printed
    in full, and the limit is restored afterwards."""
    nines = "9" * 4000
    limit = sys.get_int_max_str_digits()
    assert main(["mul", nines, nines]) == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert capsys.readouterr().out.strip() == str(int(nines) ** 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_mul_parse_error(capsys):
    assert main(["mul", "P +", "Q"]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x, position",
    [("1" * 5000, 0), ("P^" + "1" * 5000, 2), ("1/" + "1" * 5000, 2), ("P²", 1), ("é", 0)],
)
def test_cli_mul_unreadable_literal_is_a_parse_error(x, position, capsys):
    """A literal longer than int() converts, or a digit or letter outside
    ASCII, is an ExprError at its position, not a traceback."""
    assert main(["mul", x, "P"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and f"(at position {position})" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "P^7", "Q^6", "--method", "bch"],
        ["mul", "P^7", "Q^6", "--check"],
        ["mul", "P^100", "Q^100"],
        ["mul", "P^16", "Q^15", "--method", "graded"],
        ["mul", "P", "Q", "--z", "1/0"],
        ["mul", "(P+Q+E)^13", "(P+Q+E)^13"],
        ["mul", "(P+Q+E)^13", "(P+Q+E)^13", "--method", "graded"],
    ],
)
def test_cli_mul_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_mul_accepts_the_degree_limit(capsys):
    # P^k * Q^k has the top term (k! / 2^k) z^k E^k
    assert main(["mul", "P^15", "Q^15", "--method", "graded"]) == 0
    top = Fraction(math.factorial(15), 2**15)
    assert capsys.readouterr().out.startswith(f"({top})*z^15*E^15 + ")


def test_cli_mul_methods_agree(capsys):
    for method in ("pbw", "graded", "bch"):
        assert main(["mul", "P^2", "Q", "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "z*P*E + P^2*Q"


def test_cli_mul_takes_z_dependent_factors_on_every_route(capsys):
    x, y = "z*P + 2", "Q^2 - z^2*E"
    lines = set()
    for method in ("pbw", "graded", "bch"):
        assert main(["mul", x, y, "--method", method]) == 0
        lines.add(capsys.readouterr().out)
    assert len(lines) == 1
    assert main(["mul", x, y, "--check"]) == 0
    assert capsys.readouterr().out == "methods agree: pbw = graded = bch\n" + lines.pop()


def test_cli_weight_override(capsys):
    code = main(
        ["experiment", "hopf-estimate", "--R", "1", "--weight", "2=1/2",
         "--max-degree", "3", "--out", "/tmp/guttstar-test-w"]
    )
    assert code == 0


def test_cli_verify_suites(capsys):
    for suite in ("assoc", "appendix", "hopf", "bch", "nilpotent"):
        assert main(["verify", suite, "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "pass" in out


@pytest.mark.parametrize("suite", ["assoc", "hopf", "appendix", "bch", "nilpotent", "all"])
def test_cli_verify_rejects_negative_max_degree(suite, capsys):
    assert main(["verify", suite, "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-degree must be >= 1\n"


@pytest.mark.parametrize("suite", ["hopf", "nilpotent", "all"])
def test_cli_verify_rejects_zero_max_degree(suite, capsys):
    assert main(["verify", suite, "--max-degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-degree must be >= 1\n"


@pytest.mark.parametrize("degree", [VERIFY_MAX_DEGREE + 1, 99999])
@pytest.mark.parametrize("suite", ["assoc", "hopf", "appendix", "bch", "nilpotent", "all"])
def test_cli_verify_rejects_max_degree_above_its_limit(suite, degree, capsys):
    assert main(["verify", suite, "--max-degree", str(degree)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-degree must be <= {VERIFY_MAX_DEGREE}\n"


def test_cli_verify_runs_at_its_max_degree(capsys):
    assert main(["verify", "assoc", "--max-degree", str(VERIFY_MAX_DEGREE)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_verify_nilpotent_skips_on_sl2(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "basis": ["H", "E", "F"],
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"1": "2"}},
                    {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
                    {"i": 1, "j": 2, "coeffs": {"0": "1"}},
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["verify", "nilpotent", "--algebra", str(path)]) == 0
    assert capsys.readouterr().out == "[nilpotent]\n  skip  algebra is not nilpotent\n"
    assert main(["verify", "all", "--max-degree", "3", "--algebra", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "skip  algebra is not nilpotent" in out


def test_cli_algebra_file_and_experiment(tmp_path, capsys):
    path = tmp_path / "heis.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "basis": ["P", "Q", "E"],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
                "weights": ["1", "1", "2"],
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    code = main(
        [
            "experiment",
            "cn-estimate",
            "--algebra",
            str(path),
            "--R",
            "1",
            "--max-degree",
            "4",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "cn-estimate.csv").exists()
    assert (out_dir / "cn-estimate-summary.txt").exists()
    header = (out_dir / "cn-estimate.csv").read_text().splitlines()[0]
    assert header == "estimate_id,params,lhs,rhs,ratio,pass"


def test_cli_bad_algebra_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"dim\": 1}", encoding="utf-8")
    assert main(["mul", "P", "Q", "--algebra", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_experiment_growth(tmp_path, capsys):
    code = main(
        [
            "experiment",
            "heisenberg-growth",
            "--R",
            "0.5",
            "--eps",
            "0.125",
            "--kmax",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "heisenberg-growth" in out and "0 failures" in out


def test_cli_experiment_no_exp(tmp_path, capsys):
    code = main(
        ["experiment", "no-exp", "--R", "1", "--Nmax", "12", "--out", str(tmp_path)]
    )
    assert code == 0


def test_cli_experiment_no_exp_defaults_pass(tmp_path, capsys):
    # the R < 1 windows start past the head of the series
    assert main(["experiment", "no-exp", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no-exp-convergence" in out and "tail:50->100" in out


HEIS_FILE = {
    "dim": 3,
    "basis": ["P", "Q", "E"],
    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cn-estimate", "--max-degree", "-1"], "--max-degree must be nonnegative"),
        (["hopf-estimate", "--max-degree", "-4"], "--max-degree must be nonnegative"),
        (["heisenberg-growth", "--kmax", "0"], "needs --kmax >= 2"),
        (["heisenberg-growth", "--kmax", "1", "--eps", "0.125", "--R", "0.5"], "needs --kmax >= 2"),
        (["linear-estimate", "--kmax", "-1"], "--kmax must be nonnegative"),
        (["no-exp", "--Nmax", "-3"], "--Nmax must be nonnegative"),
        (["weyl-estimate", "--algebra", "{file}"], "weyl-estimate always runs on the Heisenberg"),
        (["heisenberg-growth", "--algebra", "{file}"], "heisenberg-growth always runs on the Heisenberg"),
        (["weyl-estimate", "--weight", "2=3"], "--algebra and --weight do not apply"),
        (["cn-estimate", "--R", "nan"], "values must be finite"),
        (["cn-estimate", "--R", "inf"], "values must be finite"),
        (["product-estimate", "--R", "1,-inf"], "values must be finite"),
        (["hopf-estimate", "--R", "nan,1"], "values must be finite"),
        (["product-estimate", "--z", ""], "no values"),
        (["product-estimate", "--R", ","], "no values"),
        (["cn-estimate", "--R", ""], "no values"),
        (["functorial", "--weight", "0=2"], "functorial always runs on the Heisenberg"),
        (["functorial", "--algebra", "{file}"], "functorial always runs on the Heisenberg"),
        (["no-exp", "--weight", "0=5"], "no-exp always runs on the Heisenberg"),
        (["heisenberg-growth", "--kmax", "41", "--eps", "0.125", "--R", "0.5"], "needs --kmax <= 40"),
        (["linear-estimate", "--R", "0.5", "--z", "7"], "|z| < 2*pi or R > 1"),
        (["linear-estimate", "--R", "1", "--z", "100"], "|z| < 2*pi or R > 1"),
    ],
)
def test_cli_experiment_rejects_vacuous_or_ignored_inputs(argv, message, tmp_path, capsys):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEIS_FILE), encoding="utf-8")
    out_dir = tmp_path / "reports"
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    assert main(["experiment", *argv, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["cn-estimate", "--z", "1"], "cn-estimate does not read --z"),
        (["hopf-estimate", "--z", "1"], "hopf-estimate does not read --z"),
        (["no-exp", "--z", "1"], "no-exp does not read --z"),
        (["heisenberg-growth", "--z", "1"], "heisenberg-growth without --eps does not read --z"),
        (["heisenberg-growth", "--R", "0.5"], "heisenberg-growth without --eps does not read --R"),
        (["heisenberg-growth", "--R", "1", "--z", "1"], "does not read --R or --z"),
        (["product-estimate", "--eps", "0.125"], "product-estimate does not read --eps"),
        (["weyl-estimate", "--eps", "0.125"], "weyl-estimate does not read --eps"),
        (["no-exp", "--eps", "0.125", "--z", "1"], "no-exp does not read --z or --eps"),
        (["cn-estimate", "--kmax", "3"], "cn-estimate does not read --kmax"),
        (["cn-estimate", "--Nmax", "3"], "cn-estimate does not read --Nmax"),
        (["weyl-estimate", "--max-degree", "2"], "weyl-estimate does not read --max-degree"),
        (["no-exp", "--seed", "4"], "no-exp does not read --seed"),
        (["heisenberg-growth", "--max-degree", "3"], "heisenberg-growth does not read --max-degree"),
        (["heisenberg-growth", "--R", "1", "--seed", "2"], "without --eps does not read --R or --seed"),
        (["functorial", "--max-degree", "3"], "functorial does not read --max-degree"),
        (["mul", "P", "Q", "--max-degree", "40"], "unrecognized arguments: --max-degree 40"),
        (["mul", "P", "Q", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["mul", "P", "Q", "--weight", "0=5"], "unrecognized arguments: --weight 0=5"),
        (["verify", "assoc", "--weight", "0=2"], "unrecognized arguments: --weight 0=2"),
    ],
)
def test_cli_experiment_refuses_options_it_never_reads(argv, unread, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    if argv[0] not in ("mul", "verify"):  # an experiment name
        argv = ["experiment", *argv, "--out", str(out_dir)]
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser refuses an option the command lacks
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and unread in captured.err
    assert captured.err.count("\n") == 1 and not out_dir.exists()


def test_cli_verify_hopf_prints_witness(monkeypatch, capsys):
    from guttstar import cli
    from guttstar.hopf import HopfReport

    report = HopfReport(
        checks=[("counit law", True), ("antipode law", False), ("Delta-morphism", False)],
        witness="antipode law fails on P*Q",
    )
    monkeypatch.setattr(cli, "verify_hopf", lambda *args, **kwargs: report)
    assert main(["verify", "hopf"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("  FAIL  antipode law")
    assert lines[at + 1] == "        witness: antipode law fails on P*Q"
    assert lines[at + 2] == "  FAIL  Delta-morphism"
    assert sum("witness" in line for line in lines) == 1


def test_cli_verify_bch_prints_witness_of_a_wrong_bch_product(monkeypatch, capsys):
    from guttstar import bch
    from guttstar.pbw import star_pbw

    law = "BCH route equals star_pbw on mixed monomials to degree 4"
    assert main(["verify", "bch"]) == 0
    assert f"  pass  {law}" in capsys.readouterr().out.splitlines()
    # the factors swapped: wrong first on Q * P, the first pair that does not commute
    monkeypatch.setattr(bch, "star_bch_elements", lambda x, y: star_pbw(y, x))
    assert main(["verify", "bch"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(f"  FAIL  {law}")
    assert lines[at + 1] == "        witness: (0, 1, 0)|(1, 0, 0)"
    assert sum("witness" in line for line in lines) == 1


def _wrong_star(x, y):
    """(2 + z^top) x y with top = k + l - 1: wrong on units, commutators, the
    classical limit and the vanishing of C_n above the nilpotent bound."""
    from guttstar.sym import sym_mul

    top = max(max(x.max_degree, 0) + max(y.max_degree, 0) - 1, 1)
    return sym_mul(x, y).scale(PolyZ({0: 2, top: 1}))


@pytest.mark.parametrize("suite", ["assoc", "nilpotent"])
def test_cli_verify_prints_a_witness_under_each_failing_law(suite, monkeypatch, capsys):
    from guttstar import cli

    monkeypatch.setattr(cli, "star_pbw", _wrong_star)
    assert main(["verify", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    failing = [at for at, line in enumerate(lines) if line.startswith("  FAIL  ")]
    assert failing
    for at in failing:
        assert lines[at + 1].startswith("        witness: "), lines[at]
    assert sum("witness: " in line for line in lines) == len(failing)
    if suite == "assoc":
        assert "  FAIL  first order commutator" in lines
        assert "        witness: P, Q" in lines
    else:
        at = lines.index("  FAIL  C_n vanishing above the nilpotent degree bound")
        assert lines[at + 1] == "        witness: (0, 0, 0)|(0, 0, 3),n=2"


@pytest.mark.parametrize("text", ["(P+Q+E)^200", "2^3000000", "P^99999999999"])
def test_cli_mul_refuses_a_power_past_the_degree_limit_at_once(text, capsys):
    import time

    start = time.process_time()
    assert main(["mul", text, "P"]) == 2
    assert time.process_time() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: the pbw route: degree ") and "above the limit 30" in err
    assert err.count("\n") == 1


def test_parse_element_degree_bound(heis):
    P = SymElement.basis(heis, 0)
    assert parse_element(heis, "P^40") == P**40  # no bound by default
    assert parse_element(heis, "P^3 Q^2", max_degree=5) == parse_element(heis, "P^3 Q^2")
    for text in ("P^6", "P^3 Q^3", "P^2*(P+Q)^2*E^2", "2^6", "z^6", "(P-P)^6"):
        with pytest.raises(ExprError):
            parse_element(heis, text, max_degree=5)


def test_cli_experiment_functorial_and_text_format(tmp_path, capsys):
    code = main(
        ["experiment", "functorial", "--format", "text", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "functorial-summary.txt").exists()
    assert not (tmp_path / "functorial.csv").exists()


def test_cli_experiment_invalid_domain(tmp_path, capsys):
    # nilpotent refinement on a non-nilpotent algebra is a usage error
    path = tmp_path / "sl2.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "basis": ["H", "E", "F"],
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"1": "2"}},
                    {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
                    {"i": 1, "j": 2, "coeffs": {"0": "1"}},
                ],
            }
        ),
        encoding="utf-8",
    )
    code = main(
        ["experiment", "nilpotent-estimate", "--algebra", str(path),
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_bch_dump(capsys):
    assert main(["bch", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["n"] == 1
    assert {"w": "X", "g": "1"} in records[0]["words"]
    assert records[1]["n"] == 2
    assert {"w": "XY", "g": "1/2"} in records[1]["words"]
    assert {"w": "YX", "g": "-1/2"} in records[1]["words"]
    assert records[1]["thompson_sum"] == "1"
    assert main(["bch", "--max-n", "13"]) == 2


def test_cli_bch_dump_to_length_12_is_pinned(capsys):
    """Every word, coefficient, Thompson sum and bidegree block to length 12,
    pinned by the digest of the whole dump."""
    assert main(["bch", "--max-n", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BCH_DUMP_DIGEST


def test_cli_deterministic_output(capsys):
    main(["verify", "assoc", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "assoc", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nope"])
    assert info.value.code == 2


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2
