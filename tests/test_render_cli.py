"""Rendering (text/LaTeX/JSON), JSON round-trip, CLI contract and goldens."""

import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qpoly.cli import main
from qpoly.connection import (
    BetaPolynomial,
    LambdaPolynomial,
    classical_log_coefficients,
    gegenbauer_classical_lambda,
)
from qpoly.families import CosPolynomial, ZPolynomial, q_hermite
from qpoly.field import IntPoly, RationalFunction as RF, parse_poly, parse_rational
from qpoly.render import (
    latex,
    parse_polynomial_json,
    polynomial_json_dict,
    text,
)
from qpoly.verify import SUITE_NAMES, VerificationReport, CheckResult

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# LaTeX notation rules
# ---------------------------------------------------------------------------

def test_latex_negative_half_power():
    assert latex(RF.s_power(-45)) == "q^{-45/2}"


def test_latex_beta_square():
    b1 = BetaPolynomial.gen(1)
    assert latex(b1 * b1) == r"[\lambda]_{q}^{2}"
    assert latex(BetaPolynomial.gen(3)) == r"[\lambda]_{q^{3}}"


def test_latex_fraction_form():
    f = (RF.one() - RF.q()) / ((RF.one() + RF.q()) * 2)
    assert latex(f) == r"\frac{-q + 1}{2\,q + 2}"


def test_latex_zpoly_hermite1():
    assert latex(q_hermite(1)) == r"2\,q^{-1/2}\,z"


def test_every_basis_prints_through_text_latex_and_repr():
    lam = LambdaPolynomial.gen(1)
    cases = [
        (lam * lam * Fraction(1, 2) - lam,
         "1/2*lambda^2 - lambda", r"\frac{1}{2}\,\lambda^{2} - \lambda"),
        (classical_log_coefficients(2)[1],
         "C2 - 1/2*C1^2", r"C_{2}(z) - \frac{1}{2}\,C_{1}^{2}(z)"),
        (gegenbauer_classical_lambda(2),
         "lambda*C2 + (1/2*lambda^2 - 1/2*lambda)*C1^2",
         r"\lambda\,C_{2}(z) + \left(\frac{1}{2}\,\lambda^{2} - \frac{1}{2}\,\lambda\right)"
         r"\,C_{1}^{2}(z)"),
        (CosPolynomial.cos(3).scale(-2), "-2*cos(3*theta)", r"-2\,\cos 3\theta"),
        (ZPolynomial.z(2) + Fraction(1, 3), "z^2 + (1)/(3)", r"z^{2} + \frac{1}{3}"),
    ]
    for poly, as_text, as_latex in cases:
        assert text(poly) == as_text and latex(poly) == as_latex
        assert repr(poly) == f"{type(poly).__name__}({as_text})"


def _random_intpoly(rng):
    return IntPoly({(rng.randint(0, 9), rng.randint(0, 2)): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 4))})


def test_field_values_print_through_text_and_latex():
    rng = random.Random(16)
    for case in range(300):
        p, den = _random_intpoly(rng), IntPoly.zero()
        if rng.random() < 0.5:  # a monomial denominator prints as a Laurent sum
            den = IntPoly.monomial(1, rng.randint(0, 9), rng.randint(0, 2))
        while den.is_zero():
            den = _random_intpoly(rng)
        r = RF(p, den)
        for x in (p, r, r.num, r.den):
            assert text(x) == str(x), f"case {case}"
        assert parse_poly(text(p)) == p and parse_rational(text(r)) == r, f"case {case}"
    one, s, lam = IntPoly.one(), IntPoly.s_pow(1), IntPoly.lam_pow(1)
    assert latex(IntPoly.monomial(-3, 5, 2) + lam * 12 + one) == (
        r"-3\,q^{5/2}\,q^{2\lambda} + 12\,q^{\lambda} + 1")
    assert latex(RF(lam * s - one * 2, IntPoly.monomial(1, 3, 1))) == (
        r"q^{-1} - 2\,q^{-3/2}\,q^{-\lambda}")
    assert latex(RF(lam**2 * s**4 + one, s**2 * 2 - lam)) == (
        r"\frac{q^{2}\,q^{2\lambda} + 1}{2\,q - q^{\lambda}}")
    assert latex(RF(-one, s**2 * 3)) == r"\frac{-1}{3\,q}"
    assert latex(IntPoly.zero()) == "0"


# ---------------------------------------------------------------------------
# JSON schema and round trip
# ---------------------------------------------------------------------------

def test_json_hermite1_entry():
    doc = json.loads(json.dumps(polynomial_json_dict(q_hermite(1), "hermite", 1, total_check=True), indent=2))
    assert doc["family"] == "hermite" and doc["n"] == 1
    assert doc["total_check"] == "pass"
    assert doc["coefficients"] == [
        {"basis": "z", "degree_or_m": 1, "num": "2", "den": "q^{1/2}"}
    ]


@pytest.mark.parametrize("value,over", [(10**700 + 7, ""), (Fraction(10**700 + 7, 3), "3")], ids=["int", "fraction"])
def test_render_prints_integers_whatever_the_digit_limit(value, over):
    # 700 digits, written out here as int() would refuse under the 640-digit limit
    digits = "1" + "0" * 699 + "7"
    rf, beta = RF.from_fraction(Fraction(value)), BetaPolynomial({(): value})
    poly = ZPolynomial({0: rf, 2: -rf})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        if over:
            assert text(rf) == f"({digits})/({over})" and text(beta) == f"{digits}/{over}"
            assert latex(rf) == latex(beta) == rf"\frac{{{digits}}}{{{over}}}"
        else:
            assert text(rf) == latex(rf) == text(beta) == latex(beta) == digits
        rendered = json.dumps(polynomial_json_dict(poly, "any", 2))
        parsed, _ = parse_polynomial_json(rendered)
        assert parsed == poly
        assert json.dumps(polynomial_json_dict(parsed, "any", 2)) == rendered
    finally:
        sys.set_int_max_str_digits(limit)


def _random_rf(rng):
    def poly():
        return IntPoly({(rng.randint(0, 3), rng.randint(0, 1)): rng.randint(-5, 5)
                        for _ in range(rng.randint(1, 3))})
    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RF(num, den)


@pytest.mark.parametrize("cls,basis", [(ZPolynomial, "z"), (CosPolynomial, "cos")])
def test_json_round_trip_randomized(cls, basis):
    rng = random.Random(hash(basis) & 0xFFFF)
    for _ in range(40):
        poly = cls({rng.randint(0, 6): _random_rf(rng) for _ in range(rng.randint(0, 4))})
        rendered = json.dumps(polynomial_json_dict(poly, "any", 3, k=2, total_check=True), indent=2)
        parsed, meta = parse_polynomial_json(rendered)
        assert parsed == poly
        assert meta["n"] == 3 and meta["k"] == 2
        # bit-exact: re-rendering the parsed object reproduces the string
        assert json.dumps(polynomial_json_dict(parsed, "any", 3, k=2, total_check=True), indent=2) == rendered


# ---------------------------------------------------------------------------
# CLI: exit codes, goldens, stability
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_eval_hermite_golden(capsys):
    code, out = run_cli(capsys, "eval", "hermite", "--n", "5")
    assert code == 0
    assert out == (GOLDEN / "eval_hermite_n5.txt").read_text()
    code2, out2 = run_cli(capsys, "eval", "hermite", "--n", "5")
    assert out2 == out  # byte-stable across runs


def test_cli_eval_laguerre_golden(capsys):
    code, out = run_cli(capsys, "eval", "laguerre", "--n", "3", "--k", "3")
    assert code == 0
    assert out == (GOLDEN / "eval_laguerre_n3_k3.txt").read_text()


def test_cli_eval_gegenbauer_json_golden(capsys):
    code, out = run_cli(capsys, "eval", "gegenbauer", "--n", "4", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "eval_gegenbauer_n4.json").read_text()


def test_cli_connect_gegenbauer_golden(capsys):
    chunks = []
    for n in range(6):
        code, out = run_cli(capsys, "connect", "gegenbauer", "--n", str(n))
        assert code == 0
        chunks.append(f"== n={n}\n" + out)
    assert "".join(chunks) == (GOLDEN / "connect_gegenbauer_n0_5.txt").read_text()


@pytest.mark.parametrize("argv,golden", [
    (("eval", "hermite", "--n", "5"), "eval_hermite_n5.tex"),
    (("eval", "gegenbauer", "--n", "3"), "eval_gegenbauer_n3.tex"),
    (("connect", "laguerre", "--n", "3", "--k", "3"), "connect_laguerre_n3_k3.tex"),
    (("connect", "gegenbauer", "--n", "3"), "connect_gegenbauer_n3.tex"),
])
def test_cli_latex_golden(capsys, argv, golden):
    code, out = run_cli(capsys, *argv, "--format", "latex")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_cli_connect_hermite_rows(capsys):
    code, out = run_cli(capsys, "connect", "hermite", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len([l for l in lines if "|" in l]) == 7
    assert lines[-1].endswith("pass")


def test_cli_connect_laguerre_rows(capsys):
    code, out = run_cli(capsys, "connect", "laguerre", "--n", "3", "--k", "3",
                        "--aux", "0,0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len([l for l in lines if "|" in l]) == 18
    assert lines[-1].endswith("pass")


def test_cli_connect_laguerre_aux_checks_the_rows_it_prints(capsys, monkeypatch):
    # the total takes no auxiliary integer, so only the rows show a wrong
    # one: rows weighted by binom(+n_j, l_j) for binom(-n_j, l_j) fail
    import qpoly.connection as connection

    argv = ("connect", "laguerre", "--n", "4", "--k", "4", "--aux", "2,-1,3")
    assert run_cli(capsys, *argv)[0] == 0
    binomial = connection._int_binomial
    monkeypatch.setattr(connection, "_int_binomial", lambda a, b: binomial(-a, b))
    code, out = run_cli(capsys, *argv)
    assert code == 1 and out.strip().splitlines()[-1] == "check against direct construction: fail"
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1 and json.loads(out)["total_check"] == "fail"
    assert run_cli(capsys, *argv, "--format", "latex")[0] == 1


def test_cli_eval_classical(capsys):
    code, out = run_cli(capsys, "eval", "classical-hermite", "--n", "0")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "eval", "classical-gegenbauer", "--n", "2")
    assert code == 0 and "cos(2*theta)" in out


def test_cli_eval_json_total_check(capsys):
    code, out = run_cli(capsys, "eval", "gegenbauer", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_check"] == "pass"
    parsed, _ = parse_polynomial_json(out)
    from qpoly.families import q_gegenbauer_direct
    assert parsed == q_gegenbauer_direct(3)


def test_cli_q_sample(capsys):
    code, out = run_cli(capsys, "eval", "hermite", "--n", "4", "--q-sample", "7/10")
    assert code == 0
    assert "relative diff" in out


def test_cli_usage_errors(capsys):
    for argv in (["eval", "laguerre", "--n", "3"],          # missing --k
                 ["eval", "hermite", "--n", "-2"],          # negative degree
                 ["eval", "hermite", "--n", "2", "--k", "1"],   # stray --k
                 ["eval", "nosuch", "--n", "1"],            # bad family
                 ["connect", "laguerre", "--n", "1"],       # missing --k
                 ["connect", "hermite", "--n", "2", "--aux", "1"],  # stray --aux
                 ["connect", "laguerre", "--n", "2", "--k", "1", "--aux", "a,b"],
                 ["connect", "laguerre", "--n", "3", "--k", "3", "--aux", "2,,3"],
                 ["connect", "laguerre", "--n", "3", "--k", "3", "--aux", ",1"],
                 ["eval", "hermite", "--n", "1", "--q-sample", "x"],
                 ["eval", "hermite", "--n", "1", "--q-sample", "1"],
                 # numeric checks that doubles cannot evaluate: underflow,
                 # overflow, a q beyond the doubles, and inf / inf
                 ["eval", "hermite", "--n", "8", "--q-sample", "1e-30"],
                 ["eval", "hermite", "--n", "8", "--q-sample", "1e30"],
                 ["connect", "laguerre", "--n", "4", "--k", "4", "--q-sample", "1e30"],
                 ["eval", "hermite", "--n", "1", "--q-sample", "1e400"],
                 ["eval", "gegenbauer", "--n", "4", "--q-sample", "1e20"],
                 ["verify", "--suite", "bogus"],
                 ["verify", "--max-n", "-1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        # the usage line is the subcommand's, also for errors found after parsing
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: qpoly {argv[0]} "), argv
        assert captured.out == "", argv


def test_cli_parser_is_built_once(capsys, monkeypatch):
    import qpoly.cli as cli

    _, commands = cli._build_parser()

    def forbidden():
        raise AssertionError("main must reuse the parser built at import")

    monkeypatch.setattr(cli, "_build_parser", forbidden)
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["eval", "laguerre", "--n", "3"])
        assert err.value.code == 2
        assert capsys.readouterr().err == (commands["eval"].format_usage()
                                           + "qpoly eval: error: family laguerre needs --k\n")
        assert main(["eval", "laguerre", "--n", "3", "--k", "1"]) == 0
        capsys.readouterr()


def test_cli_connect_latex_and_json(capsys):
    code, out = run_cli(capsys, "connect", "laguerre", "--n", "2", "--k", "2",
                        "--format", "latex")
    assert code == 0 and out.count("% ") >= 6 and r"\," in out
    code, out = run_cli(capsys, "connect", "laguerre", "--n", "3", "--k", "3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_check"] == "pass" and len(doc["terms"]) == 18
    code, out = run_cli(capsys, "connect", "gegenbauer", "--n", "4",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_check"] == "pass" and len(doc["terms"]) == 5
    code, out = run_cli(capsys, "connect", "gegenbauer", "--n", "2",
                        "--format", "latex")
    assert code == 0 and r"[\lambda]_{q^{2}}" in out


def test_cli_eval_classical_laguerre(capsys):
    code, out = run_cli(capsys, "eval", "classical-laguerre", "--n", "3", "--k", "1")
    assert code == 0 and out.strip() == "-z + 3"
    code, out = run_cli(capsys, "connect", "hermite", "--n", "0")
    assert code == 0 and "total: 1" in out


def test_cli_verify_pass(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "--suite", "qexp", "--max-n", "6",
                        "--report", str(report_path))
    assert code == 0
    assert "suite qexp: PASS" in out
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True and doc["checks"]


def test_cli_verify_unwritable_report(capsys, tmp_path):
    code = main(["verify", "--suite", "qexp", "--max-n", "2",
                 "--report", str(tmp_path / "missing" / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "cannot write the report" in err


def test_cli_json_numeric_check_stays_valid_json(capsys):
    from qpoly.families import q_laguerre

    for argv, poly in ((["eval", "hermite", "--n", "4"], q_hermite(4)),
                       (["connect", "laguerre", "--n", "3", "--k", "3"], q_laguerre(3, 3))):
        code, out = run_cli(capsys, *argv, "--format", "json", "--q-sample", "7/10")
        assert code == 0
        check = json.loads(out)["numeric_check"]
        assert check["q"] == "7/10" and check["relative_diff"] < 1e-12
        assert check["primary"][0] == pytest.approx(check["independent"][0])
        assert parse_polynomial_json(out)[0] == poly


# one request of each kind, with the route a patch makes disagree: the
# independent route, so that the printed primary route stays the same
_DISAGREEING_ROUTES = [
    (("eval", "gegenbauer", "--n", "3"), "q_gegenbauer_genfun"),
    (("eval", "classical-laguerre", "--n", "3", "--k", "2"), "laguerre_genfun_classical"),
    (("connect", "gegenbauer", "--n", "3"), "q_gegenbauer_direct"),
    (("connect", "hermite", "--n", "4"), "q_hermite"),
]


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("argv,route", _DISAGREEING_ROUTES,
                         ids=[" ".join(argv[:2]) for argv, _ in _DISAGREEING_ROUTES])
def test_cli_exits_1_when_the_routes_differ(capsys, monkeypatch, argv, route, fmt):
    import qpoly.cli as cli

    code, agreed = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    right = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda *a: right(*a) + 1)
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 1
    # the same output, but for the verdict where the format prints one
    assert out == agreed.replace(": pass", ": fail").replace('"pass"', '"fail"')


_EVERY_REQUEST = [("eval", family, "--n", "3") for family in
                  ("hermite", "gegenbauer", "classical-hermite", "classical-gegenbauer")]
_EVERY_REQUEST += [("eval", family, "--n", "3", "--k", "2")
                   for family in ("laguerre", "classical-laguerre")]
_EVERY_REQUEST += [("connect", "hermite", "--n", "3"), ("connect", "gegenbauer", "--n", "3"),
                   ("connect", "laguerre", "--n", "3", "--k", "2", "--aux", "2,-1,3")]


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("argv", _EVERY_REQUEST, ids=[" ".join(argv[:2]) for argv in _EVERY_REQUEST])
def test_cli_q_sample_closes_every_output(capsys, argv, fmt):
    code, plain = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    code, out = run_cli(capsys, *argv, "--format", fmt, "--q-sample", "7/10")
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert list(doc)[-1] == "numeric_check"
        check = doc.pop("numeric_check")
        assert check["q"] == "7/10" and check["relative_diff"] < 1e-12
        assert doc == json.loads(plain)
    else:
        lines = out.splitlines()
        assert lines[:-4] == plain.splitlines()
        # LaTeX carries the check as comments, so the document stays LaTeX
        mark = "% " if fmt == "latex" else ""
        assert all(line.startswith(mark) for line in lines[-4:])
        lines = [line[len(mark):] for line in lines[-4:]]
        assert lines[-4].startswith("numeric cross-check at q = 7/10 ")
        assert [line.split(":")[0] for line in lines[-3:]] == [
            "  primary route", "  independent route", "  relative diff"]
        assert float(lines[-1].split()[-1]) < 1e-12


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport("stub", [CheckResult("x", "y", False, 0.1, "boom")])
    monkeypatch.setattr("qpoly.cli.run_suite", lambda *a, **k: failing)
    code, out = run_cli(capsys, "verify", "--suite", "qexp")
    assert code == 1
    assert "FAIL" in out


def test_cli_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "limits", "--max-n", "3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "limits"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_cli_verify_laguerre_reaches_max_n(capsys, monkeypatch):
    # --max-n bounds both n and k of the gauge checks, beyond the default 5:
    # each total is compared, and the rows are summed where n + k <= max-n
    import dataclasses

    import qpoly.verify as verify

    totals, rows = set(), set()
    connection = verify.laguerre_connection

    def recorded(n, k, aux):
        expansion = connection(n, k, aux)
        totals.add((n, k))
        return dataclasses.replace(expansion, make_terms=lambda: rows.add((n, k)) or expansion.terms)

    monkeypatch.setattr(verify, "laguerre_connection", recorded)
    code, out = run_cli(capsys, "verify", "--suite", "laguerre", "--max-n", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert [c["id"] for c in doc["checks"]][:8] == [f"connection-gauge-n{n}" for n in range(8)]
    assert totals == {(n, k) for n in range(8) for k in range(8)}
    assert rows == {(n, k) for n in range(8) for k in range(8) if n + k <= 7}


def test_cli_verify_limits_reaches_max_n(capsys, monkeypatch):
    # --max-n bounds every degree of the limits suite, beyond its defaults
    import qpoly.verify as verify

    reached = {"hermite": set(), "laguerre": set(), "lambda": set()}
    for name, key in (("q_hermite", "hermite"), ("q_laguerre", "laguerre"),
                      ("gegenbauer_classical_lambda", "lambda")):
        route = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, key=key, route=route:
                            reached[key].add(args if len(args) > 1 else args[0]) or route(*args))
    code, out = run_cli(capsys, "verify", "--suite", "limits", "--max-n", "7", "--format", "json")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
    assert reached == {"hermite": set(range(8)), "laguerre": {(n, k) for n in range(8) for k in range(8)},
                       "lambda": set(range(8))}


def test_cli_numeric_check_of_equal_values_is_equal(capsys):
    # the Laguerre total and the direct polynomial are == but keep their
    # terms in different orders; both evaluate to the same doubles
    code, out = run_cli(capsys, "connect", "laguerre", "--n", "10", "--k", "10", "--aux", "2,-1,3",
                        "--q-sample", "7/10", "--format", "json")
    assert code == 0
    check = json.loads(out)["numeric_check"]
    assert check["primary"] == check["independent"]
    assert check["relative_diff"] == 0.0


def test_cli_q_sample_far_below_one(capsys):
    # the Hermite coefficients have denominators s**k, about 1e-36 at q = 1/100
    code, out = run_cli(capsys, "eval", "hermite", "--n", "6", "--q-sample", "1/100")
    assert code == 0
    assert "3.080017325865" in out


def test_sumrules_suite_computes_each_rule_once(monkeypatch):
    # each suite expands its series once, to its top order: one log pair (the
    # deformed log over Z, the classical one in closed form, no series log)
    # for every sum rule and one exponential over Z for every dual-route check
    import qpoly.connection as connection
    import qpoly.families as families
    import qpoly.verify as verify
    from qpoly.series import TruncatedSeries

    calls = []
    for owner, name in ((TruncatedSeries, "exp"), (TruncatedSeries, "log"),
                        (connection, "_log_coefficients"), (families, "_genfun_coefficients")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, method=method: calls.append(name) or method(*args))
    report = verify.run_suite("sumrules")
    assert report.passed
    assert [c.check_id for c in report.checks] == (
        [f"rule-l{ell}" for ell in range(1, 9)] + [f"explicit-l{ell}" for ell in range(1, 6)])
    assert calls == ["_log_coefficients"]
    for n in (4, 8):
        calls.clear()
        assert verify.run_suite("sumrules", n).passed
        assert calls == ["_log_coefficients"]
        calls.clear()
        assert verify.run_suite("gegenbauer", n).passed
        assert calls == ["_genfun_coefficients"]


@pytest.mark.parametrize("suite", [name for name in SUITE_NAMES if name != "all"])
def test_every_suite_checks_something_at_max_n_0(suite):
    # a suite that passes with no check says nothing; "all" runs each of them
    import qpoly.verify as verify

    report = verify.run_suite(suite, 0)
    assert report.checks and report.passed
    everything = verify.run_suite("all", 0)
    assert any(c.check_id == report.checks[0].check_id for c in everything.checks)


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpoly.cli", "eval", "hermite", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*q^{-1/2}*z"


def test_polynomial_json_dict_refuses_a_class_without_a_schema():
    from qpoly.connection import gegenbauer_connection

    with pytest.raises(TypeError, match="^no JSON polynomial schema for CPolynomial$"):
        polynomial_json_dict(gegenbauer_connection(2).total, "gegenbauer", 2)


def test_main_returns_0_when_stdout_is_a_closed_pipe(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["eval", "hermite", "--n", "2"]) == 0
    assert main(["verify", "--suite", "limits", "--max-n", "0"]) == 0


def _failures(report):
    return [(c.check_id, c.detail) for c in report.checks if not c.passed]


def test_verify_reports_a_crashed_check_as_failed(monkeypatch):
    import qpoly.verify as verify

    def crash(n):
        raise RuntimeError(f"no H_{n}")

    monkeypatch.setattr(verify, "q_hermite", crash)
    report = verify.run_suite("hermite", 1)
    assert not report.passed
    assert _failures(report) == [("connection-total-n0", "RuntimeError: no H_0"),
                                 ("connection-total-n1", "RuntimeError: no H_1"),
                                 ("parity", "RuntimeError: no H_0")]


def test_verify_names_the_first_laguerre_total_mismatch(monkeypatch):
    import qpoly.verify as verify

    monkeypatch.setattr(verify, "q_laguerre", lambda n, k: ZPolynomial({n + k + 1: 1}))
    failures = _failures(verify.run_suite("laguerre", 1))
    assert [check_id for check_id, _ in failures] == ["connection-gauge-n0", "connection-gauge-n1", "l33-closed-form"]
    assert failures == [("connection-gauge-n0", "total mismatch at n=0, k=0"),
                        ("connection-gauge-n1", "total mismatch at n=1, k=0"),
                        ("l33-closed-form", "coefficients differ at z-powers [0, 1, 2, 3, 7]")]


def test_verify_names_the_first_failing_input(monkeypatch):
    import qpoly.verify as verify

    q_hermite, quesne_c = verify.q_hermite, verify.quesne_c
    monkeypatch.setattr(verify, "q_hermite", lambda n: q_hermite(n) + ZPolynomial({2: 1}) if n == 5 else q_hermite(n))
    monkeypatch.setattr(verify, "quesne_c", lambda k: quesne_c(k) + 1 if k == 4 else quesne_c(k))
    assert _failures(verify.run_suite("hermite", 6)) == [
        ("connection-total-n5", ""), ("h5-closed-form", "fails at route = q_hermite(5)"),
        ("parity", "fails at (n, z-power) = (5, 2)")]
    assert _failures(verify.run_suite("limits", 6)) == [
        ("quesne-c-limit", "fails at k = 4"), ("hermite-limit", "fails at n = 5")]


def test_verify_reports_a_numeric_value_off_its_limit(monkeypatch):
    import qpoly.verify as verify

    monkeypatch.setattr(RF, "eval_numeric", lambda self, s_value, lam_value=None: 1e6)
    assert _failures(verify.run_suite("limits", 0)) == [
        ("numeric-vs-limit", f"{verify.q_number(7)}: |1000000.0 - 7.0| > 1e-8")]
