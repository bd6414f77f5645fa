"""Self-verification harness: every identity the library claims, re-checked.

Each check pits two independently computed exact objects against each other
(defining sums vs product expansions, connection totals vs direct
extractions, explicit low-order displayed forms vs the mechanized general
formula) and reports pass/fail with timings.  `anchor` carries the identity
being checked, as a formula.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .field import RationalFunction
from .families import (
    CosPolynomial,
    LaguerreIndex,
    ZPOLY_RING,
    ZPolynomial,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from .connection import (
    BetaPolynomial,
    CPolynomial,
    LambdaPolynomial,
    gegenbauer_classical_lambda,
    gegenbauer_connection,
    gegenbauer_connection_value,
    gegenbauer_sum_rule,
    hermite_connection,
    laguerre_connection,
    laguerre_partitions,
    sum_rule_explicit,
)
from .qkernel import q_exp_product_form, q_exp_sum, q_factorial, q_number, q_binomial, quesne_c, quesne_series
from .series import Ring, TruncatedSeries

_ONE = RationalFunction.one()
_RF_RING = Ring(RationalFunction.zero(), _ONE)


# ---------------------------------------------------------------------------
# reference closed forms (self-check goldens)
# ---------------------------------------------------------------------------

def hermite5_reference():
    """The three-term closed form of the deformed Hermite polynomial at n=5:
    32 q^{-45/2} z^5 - 16 q^{-19/2} [2]_{q^-4} [5]_{q^-2} z^3
    + 8 q^{-9/2} [3]_{q^-2} [5]_{q^-2} z."""
    return ZPolynomial({
        5: RationalFunction.s_power(-45) * 32,
        3: RationalFunction.s_power(-19) * (-16) * q_number(2, -4) * q_number(5, -2),
        1: RationalFunction.s_power(-9) * 8 * q_number(3, -2) * q_number(5, -2),
    })


def laguerre33_reference():
    """Closed form of the deformed Laguerre polynomial at n = k = 3:
    1 - q [3 over 1] z + q^4 [3 over 2] z^2 / [2]! - q^9 z^3 / [3]!."""
    return (ZPolynomial.one()
            + ZPolynomial.z().scale(-RationalFunction.q() * q_binomial(3, 1))
            + ZPolynomial.z(2).scale(RationalFunction.q_power(4) / q_factorial(2) * q_binomial(3, 2))
            + ZPolynomial.z(3).scale(-RationalFunction.q_power(9) / q_factorial(3)))


# Displayed connection forms for the deformed Gegenbauer polynomials, n <= 5:
# per C-monomial an outer rational factor times an integer combination of
# beta-monomials (beta_k stands for [lambda]_{q^k}).
GEGENBAUER_DISPLAYED_FORMS = {
    0: [((), 1, [(1, ())])],
    1: [(((1, 1),), 1, [(1, ((1, 1),))])],
    2: [
        (((2, 1),), 1, [(1, ((2, 1),))]),
        (((1, 2),), Fraction(-1, 2), [(1, ((2, 1),)), (-1, ((1, 2),))]),
    ],
    3: [
        (((3, 1),), 1, [(1, ((3, 1),))]),
        (((1, 1), (2, 1)), -1, [(1, ((3, 1),)), (-1, ((1, 1), (2, 1)))]),
        (((1, 3),), Fraction(1, 6),
         [(2, ((3, 1),)), (-3, ((1, 1), (2, 1))), (1, ((1, 3),))]),
    ],
    4: [
        (((4, 1),), 1, [(1, ((4, 1),))]),
        (((2, 2),), Fraction(-1, 2), [(1, ((4, 1),)), (-1, ((2, 2),))]),
        (((1, 1), (3, 1)), -1, [(1, ((4, 1),)), (-1, ((1, 1), (3, 1)))]),
        (((1, 2), (2, 1)), Fraction(1, 2),
         [(2, ((4, 1),)), (-2, ((1, 1), (3, 1))), (-1, ((2, 2),)), (1, ((1, 2), (2, 1)))]),
        (((1, 4),), Fraction(-1, 24),
         [(6, ((4, 1),)), (-8, ((1, 1), (3, 1))), (-3, ((2, 2),)),
          (6, ((1, 2), (2, 1))), (-1, ((1, 4),))]),
    ],
    5: [
        (((5, 1),), 1, [(1, ((5, 1),))]),
        (((1, 1), (4, 1)), -1, [(1, ((5, 1),)), (-1, ((1, 1), (4, 1)))]),
        (((2, 1), (3, 1)), -1, [(1, ((5, 1),)), (-1, ((2, 1), (3, 1)))]),
        (((1, 2), (3, 1)), Fraction(1, 2),
         [(2, ((5, 1),)), (-2, ((1, 1), (4, 1))), (-1, ((2, 1), (3, 1))), (1, ((1, 2), (3, 1)))]),
        (((1, 1), (2, 2)), Fraction(1, 2),
         [(2, ((5, 1),)), (-1, ((1, 1), (4, 1))), (-2, ((2, 1), (3, 1))), (1, ((1, 1), (2, 2)))]),
        (((1, 3), (2, 1)), Fraction(-1, 6),
         [(6, ((5, 1),)), (-6, ((1, 1), (4, 1))), (-5, ((2, 1), (3, 1))),
          (3, ((1, 2), (3, 1))), (3, ((1, 1), (2, 2))), (-1, ((1, 3), (2, 1)))]),
        (((1, 5),), Fraction(1, 120),
         [(24, ((5, 1),)), (-30, ((1, 1), (4, 1))), (-20, ((2, 1), (3, 1))),
          (20, ((1, 2), (3, 1))), (15, ((1, 1), (2, 2))), (-10, ((1, 3), (2, 1))),
          (1, ((1, 5),))]),
    ],
}


def gegenbauer_displayed_connection(n):
    """The frozen displayed form as a CPolynomial over BetaPolynomial."""
    terms = {}
    for cmono, outer, combo in GEGENBAUER_DISPLAYED_FORMS[n]:
        beta = BetaPolynomial({mono: Fraction(c) for c, mono in combo})
        beta = beta * Fraction(outer)
        if beta:
            terms[cmono] = beta
    return CPolynomial(terms)


# ---------------------------------------------------------------------------
# oracles used by several suites
# ---------------------------------------------------------------------------

def hermite_genfun_classical(n):
    """Extract H_n(z) from exp(2zt - t^2): n! times the t^n coefficient."""
    series = (TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial({1: _ONE * 2}), 1, n)
              + TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial.constant(-1), 2, n))
    return series.exp().coeff(n).scale(math.factorial(n))


def laguerre_genfun_classical(n, k):
    """Extract L_k^{(n-k)}(z) from exp(-zt)(1+t)**n (t^k coefficient)."""
    order = k
    expo = TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial({1: -_ONE}), 1, order).exp()
    binom = (TruncatedSeries.one(ZPOLY_RING, order)
             + TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial.one(), 1, order)).int_pow(n)
    return (expo * binom).coeff(k)


def chebyshev_recurrence(n):
    """U_n in the cosine basis via U_n = 2cos(theta) U_{n-1} - U_{n-2}."""
    prev, cur = CosPolynomial.one(), CosPolynomial.cos(1).scale(2)
    if n == 0:
        return prev
    x2 = CosPolynomial.cos(1).scale(2)
    for _ in range(n - 1):
        prev, cur = cur, x2 * cur - prev
    return cur


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    check_id: str
    anchor: str
    passed: bool
    elapsed_ms: float
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"id": c.check_id, "anchor": c.anchor, "status": "pass" if c.passed else "fail",
                 "elapsed_ms": round(c.elapsed_ms, 3), "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def format_text(self):
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.check_id}  ({c.anchor})  {c.elapsed_ms:.1f} ms"
            if c.detail and not c.passed:
                line += f"\n         {c.detail}"
            lines.append(line)
        return "\n".join(lines)


def _run_check(report, check_id, anchor, fn):
    start = time.perf_counter()
    try:
        result = fn()
        passed, detail = (result, "") if isinstance(result, bool) else result
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    report.checks.append(CheckResult(check_id, anchor, passed, elapsed, detail))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_qexp(report, max_n):
    order = max(max_n, 1)
    arg = TruncatedSeries.monomial(_RF_RING, _ONE, 1, order)
    for exp in (1, -2, -4):
        for kind in ("e", "E"):
            _run_check(
                report, f"quesne-product-{kind}-q^{exp}",
                f"{kind}_q(z) sum form == exp(log-series), base q^{exp}, order {order}",
                lambda kind=kind, exp=exp: q_exp_sum(kind, arg, exp) == q_exp_product_form(kind, arg, exp))
    _run_check(report, "jackson-inverse", f"e_q(z)*E_q(-z) = 1 to order {order}",
               lambda: q_exp_sum("e", arg, 1) * q_exp_sum("E", -arg, 1)
               == TruncatedSeries.one(_RF_RING, order))
    _run_check(report, "phys-exp-scaling", "exp of sum c_k z^k == e_q((1-q)z)",
               lambda: quesne_series(arg, 1)
               == q_exp_sum("e", arg.scale(_ONE - RationalFunction.q()), 1))


def _suite_hermite(report, max_n):
    cap = max_n
    for n in range(cap + 1):
        _run_check(report, f"connection-total-n{n}",
                   "rescaled partition-sum total == H_n(z;q) from the generating function",
                   lambda n=n: hermite_connection(n).rescaled_total() == q_hermite(n))
    if cap >= 5:
        _run_check(report, "h5-closed-form",
                   "H_5(z;q) == 32 q^{-45/2} z^5 - 16 q^{-19/2}[2][5] z^3 + 8 q^{-9/2}[3][5] z",
                   lambda: q_hermite(5) == hermite5_reference()
                   and hermite_connection(5).rescaled_total() == hermite5_reference())
        _run_check(report, "table-rows-n5", "partition solutions for n=5 number 7",
                   lambda: len(hermite_connection(5).terms) == 7)
    _run_check(report, "parity", "H_n(z;q) has only z-powers of parity n",
               lambda: all(all((d - n) % 2 == 0 for d in q_hermite(n).support())
                           for n in range(cap + 1)))


def _suite_laguerre(report, max_n):
    cap = min(max_n, 5)
    rng = random.Random(20250811)
    for n in range(cap + 1):
        def check(n=n):
            for k in range(cap + 1):
                target = q_laguerre(n, k)
                auxes = [{}, {j: rng.randint(-3, 3) for j in range(1, k + 1)},
                         {j: rng.randint(-3, 3) for j in range(1, k + 1)},
                         {j: rng.randint(-3, 3) for j in range(1, k + 1)}]
                for aux in auxes:
                    if laguerre_connection(n, k, aux).rescaled_total() != target:
                        return False, f"mismatch at n={n}, k={k}, aux={aux}"
            return True, ""
        _run_check(report, f"connection-gauge-n{n}",
                   "rescaled total == L_k^{(n-k)}(z;q) for every auxiliary-integer choice", check)
    _run_check(report, "l33-closed-form",
               "L_3^{(0)}(z;q) == 1 - q[3,1] z + q^4 [3,2] z^2/[2]! - q^9 z^3/[3]!",
               lambda: q_laguerre(3, 3) == laguerre33_reference())
    _run_check(report, "table-rows-n3k3", "partition solutions for n=3, k=3 number 18",
               lambda: len(laguerre_partitions(3, 3)) == 18)


def _suite_gegenbauer(report, max_n):
    for n in range(max_n + 1):
        _run_check(report, f"dual-route-n{n}",
                   "explicit double-Pochhammer form == generating-function extraction",
                   lambda n=n: q_gegenbauer_direct(n) == q_gegenbauer_genfun(n))
        _run_check(report, f"connection-value-n{n}",
                   "connection with beta_k -> [lambda]_{q^k} == explicit form",
                   lambda n=n: gegenbauer_connection_value(gegenbauer_connection(n))
                   == q_gegenbauer_direct(n))
    for n in range(min(max_n, 5) + 1):
        _run_check(report, f"displayed-form-n{n}",
                   "mechanized connection == displayed low-order form",
                   lambda n=n: gegenbauer_connection(n).total == gegenbauer_displayed_connection(n))


def _suite_sumrules(report, max_n):
    rules = {}

    def rule(ell):
        if ell not in rules:
            rules[ell] = gegenbauer_sum_rule(ell)
        return rules[ell]

    for ell in range(1, max_n + 1):
        _run_check(report, f"rule-l{ell}",
                   "t^l coefficient of log of deformed series == [lambda]_{q^l} times classical",
                   lambda ell=ell: rule(ell)[0] == rule(ell)[1])
    for ell in range(1, min(max_n, 5) + 1):
        _run_check(report, f"explicit-l{ell}",
                   "log coefficient == explicit I_l combination",
                   lambda ell=ell: rule(ell)[0] == sum_rule_explicit(ell))


def _suite_limits(report, max_n):
    _run_check(report, "q-number-limit", "[n]_q -> n as q -> 1, n = 1..20",
               lambda: all(q_number(n).limit_q_to_1() == n for n in range(1, 21)))
    _run_check(report, "quesne-c-limit", "c_1 -> 1 and c_k -> 0 (k >= 2) as q -> 1",
               lambda: quesne_c(1).limit_q_to_1() == 1
               and all(quesne_c(k).limit_q_to_1() == 0 for k in range(2, 7)))
    cap = min(max_n, 6)
    _run_check(report, "hermite-limit", "H_n(z;q) -> H_n(z) as q -> 1",
               lambda: all(q_hermite(n).limit_q_to_1() == hermite_classical(n)
                           for n in range(cap + 1)))
    _run_check(report, "laguerre-limit", "L_k^{(n-k)}(z;q) -> L_k^{(n-k)}(z) as q -> 1",
               lambda: all(q_laguerre(n, k).limit_q_to_1()
                           == laguerre_classical(LaguerreIndex(k, n - k))
                           for n in range(min(max_n, 5) + 1) for k in range(min(max_n, 5) + 1)))
    lam, lam_one = LambdaPolynomial.gen(1), LambdaPolynomial.one()
    _run_check(report, "gegenbauer-classical-lambda",
               "connection with beta_k -> lambda == t^n coefficient of (1 + sum_m C_m t^m)^lambda "
               "by the binomial series",
               lambda: all(
                   gegenbauer_connection(n).total.map_coeffs(lambda c: c.substitute(lambda g: lam, lam_one))
                   == gegenbauer_classical_lambda(n)
                   for n in range(min(max_n, 5) + 1)))

    def numeric_consistency():
        # central average at s = 1 +/- 1e-6 cancels the first-order term, so
        # the match is tight for pole-free elements
        samples = [q_number(7), quesne_c(2), q_binomial(4, 2), q_factorial(3)]
        eps = 1e-6
        for f in samples:
            exact = float(f.limit_q_to_1())
            approx = (f.eval_numeric(1.0 + eps) + f.eval_numeric(1.0 - eps)) / 2
            if abs(approx - exact) > 1e-8:
                return False, f"{f}: |{approx} - {exact}| > 1e-8"
        return True, ""
    _run_check(report, "numeric-vs-limit",
               "central eval at s = 1 +/- 1e-6 agrees with the exact q -> 1 limit within 1e-8",
               numeric_consistency)


_SUITES = {
    "qexp": _suite_qexp,
    "hermite": _suite_hermite,
    "laguerre": _suite_laguerre,
    "gegenbauer": _suite_gegenbauer,
    "sumrules": _suite_sumrules,
    "limits": _suite_limits,
}

SUITE_NAMES = ("all",) + tuple(_SUITES)

# Default degree/order reach per suite when the caller does not override.
_DEFAULT_MAX_N = {"qexp": 12, "hermite": 8, "laguerre": 5, "gegenbauer": 8,
                  "sumrules": 8, "limits": 6}


def run_suite(suite, max_n=None):
    """Run one suite (or "all") and return a VerificationReport."""
    if suite == "all":
        report = VerificationReport("all")
        for name, fn in _SUITES.items():
            fn(report, max_n if max_n is not None else _DEFAULT_MAX_N[name])
        return report
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    report = VerificationReport(suite)
    _SUITES[suite](report, max_n if max_n is not None else _DEFAULT_MAX_N[suite])
    return report
