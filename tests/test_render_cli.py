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
from qpoly.field import IntPoly, RationalFunction as RF
from qpoly.render import (
    latex,
    latex_rational,
    parse_polynomial_json,
    render_polynomial_json,
    text,
)
from qpoly.verify import VerificationReport, CheckResult

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# LaTeX notation rules
# ---------------------------------------------------------------------------

def test_latex_negative_half_power():
    assert latex_rational(RF.s_power(-45)) == "q^{-45/2}"


def test_latex_beta_square():
    b1 = BetaPolynomial.gen(1)
    assert latex(b1 * b1) == r"[\lambda]_{q}^{2}"
    assert latex(BetaPolynomial.gen(3)) == r"[\lambda]_{q^{3}}"


def test_latex_fraction_form():
    f = (RF.one() - RF.q()) / ((RF.one() + RF.q()) * 2)
    assert latex_rational(f) == r"\frac{-q + 1}{2\,q + 2}"


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


# ---------------------------------------------------------------------------
# JSON schema and round trip
# ---------------------------------------------------------------------------

def test_json_hermite1_entry():
    doc = json.loads(render_polynomial_json(q_hermite(1), "hermite", 1, total_check=True))
    assert doc["family"] == "hermite" and doc["n"] == 1
    assert doc["total_check"] == "pass"
    assert doc["coefficients"] == [
        {"basis": "z", "degree_or_m": 1, "num": "2", "den": "q^{1/2}"}
    ]


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
        rendered = render_polynomial_json(poly, "any", 3, k=2, total_check=True)
        parsed, meta = parse_polynomial_json(rendered)
        assert parsed == poly
        assert meta["n"] == 3 and meta["k"] == 2
        # bit-exact: re-rendering the parsed object reproduces the string
        assert render_polynomial_json(parsed, "any", 3, k=2, total_check=True) == rendered


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


def test_cli_q_sample_far_below_one(capsys):
    # the Hermite coefficients have denominators s**k, about 1e-36 at q = 1/100
    code, out = run_cli(capsys, "eval", "hermite", "--n", "6", "--q-sample", "1/100")
    assert code == 0
    assert "3.080017325865" in out


def test_sumrules_suite_computes_each_rule_once(monkeypatch):
    import qpoly.verify as verify

    calls = []
    rule = verify.gegenbauer_sum_rule
    monkeypatch.setattr(verify, "gegenbauer_sum_rule", lambda ell: calls.append(ell) or rule(ell))
    report = verify.run_suite("sumrules")
    assert report.passed
    assert [c.check_id for c in report.checks] == (
        [f"rule-l{ell}" for ell in range(1, 9)] + [f"explicit-l{ell}" for ell in range(1, 6)])
    assert sorted(calls) == list(range(1, 9))


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpoly.cli", "eval", "hermite", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*q^{-1/2}*z"
