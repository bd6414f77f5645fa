"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact (tolerance zero) unless a criterion states otherwise;
the stated runtime budgets are asserted.
"""

import math
import random
import time
from fractions import Fraction

from qpoly.field import RationalFunction as RF
from qpoly.families import (
    LaguerreIndex,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_hermite,
    q_laguerre,
)
from qpoly.connection import (
    LambdaPolynomial,
    gegenbauer_classical_lambda,
    gegenbauer_connection,
    gegenbauer_connection_value,
    gegenbauer_sum_rule,
    hermite_connection,
    laguerre_connection,
    laguerre_partitions,
    partitions_of,
    sum_rule_explicit,
)
from qpoly.qkernel import q_exp_product_form, q_exp_sum
from qpoly.series import Ring, TruncatedSeries
from qpoly.verify import (
    gegenbauer_displayed_connection,
    hermite5_reference,
    laguerre33_reference,
)

from test_connection import TABLE2_SOLUTIONS, hermite_row_oracle, partition_count_dp
from test_field import _random_rf

RF_RING = Ring(RF.zero(), RF.one())


def _report(num, description):
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_acceptance_1_quesne_identity():
    start = time.perf_counter()
    arg = TruncatedSeries.monomial(RF_RING, RF.one(), 1, 12)
    for exp in (1, -2, -4):
        for kind in ("e", "E"):
            assert q_exp_sum(kind, arg, exp) == q_exp_product_form(kind, arg, exp)
    inverse = q_exp_sum("e", arg, 1) * q_exp_sum("E", -arg, 1)
    assert inverse == TruncatedSeries.one(RF_RING, 12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    _report(1, f"q-exponential sum == product form (both kinds, bases q, q^-2, q^-4, "
               f"order 12) and e_q(z)E_q(-z) = 1; {elapsed * 1000:.0f} ms")


def test_acceptance_2_h5_reproduction():
    start = time.perf_counter()
    reference = hermite5_reference()
    rescaled = hermite_connection(5).rescaled_total()
    assert rescaled == reference
    assert q_hermite(5) == reference
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    _report(2, f"H_5(z;q): connection total == three-term closed form == "
               f"generating-function extraction (exact); {elapsed * 1000:.0f} ms")


def test_acceptance_3_table1_structure():
    expansion = hermite_connection(5)
    assert len(expansion.terms) == 7
    q, z = 0.7, 1.3
    worst = 0.0
    for term in expansion.terms:
        exact = expansion.rescaled_term_value(term).eval_numeric(z, math.sqrt(q))
        oracle = hermite_row_oracle(term.descriptor, 5, q, z)
        rel = abs(exact - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-9, f"{term.descriptor.label()}: rel {rel:.2e}"
    _report(3, f"7 partition-grouped rows at n=5; every grouped value matches the "
               f"complex table-row evaluation (worst rel {worst:.1e} <= 1e-9)")


def test_acceptance_4_l33_reproduction():
    start = time.perf_counter()
    reference = laguerre33_reference()
    rng = random.Random(20260811)
    auxes = [{}] + [{j: rng.randint(-3, 3) for j in (1, 2, 3)} for _ in range(3)]
    for aux in auxes:
        assert laguerre_connection(3, 3, aux).rescaled_total() == reference, aux
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    _report(4, f"L_3^(0)(z;q) reproduced exactly for aux all-zero and 3 random "
               f"integer aux assignments in [-3,3]^3; {elapsed * 1000:.0f} ms")


def test_acceptance_5_table2_structure():
    sols = laguerre_partitions(3, 3)
    assert len(sols) == 18
    assert {(s.ell, s.kparts, s.lparts) for s in sols} == TABLE2_SOLUTIONS
    _report(5, "18 partition solutions at n=3, k=3, matching the contribution "
               "table's first column (set equality)")


def test_acceptance_6_gegenbauer_connections():
    for n in range(6):
        expansion = gegenbauer_connection(n)
        displayed = gegenbauer_displayed_connection(n)
        assert expansion.total.support() == displayed.support(), n
        for mono in displayed.support():
            assert expansion.total.coeff(mono) == displayed.coeff(mono), (n, mono)
    for n in range(9):
        value = gegenbauer_connection_value(gegenbauer_connection(n))
        assert value == q_gegenbauer_direct(n), n
    _report(6, "connection matches the displayed beta-form term-by-term for n <= 5; "
               "beta_k -> (1-Lambda^k)/(1-q^k) reproduces the explicit polynomial "
               "exactly for n <= 8")


def test_acceptance_7_sum_rules():
    for ell in range(1, 9):
        lhs, rhs = gegenbauer_sum_rule(ell)
        assert lhs == rhs, ell
        if ell <= 5:
            assert lhs == sum_rule_explicit(ell), ell
    _report(7, "sum rules hold exactly for l = 1..8; l <= 5 matches the explicit "
               "I_l combinations")


def test_acceptance_8_classical_limits():
    for n in range(6):
        assert q_hermite(n).limit_q_to_1() == hermite_classical(n), n
    for n in range(6):
        for k in range(6):
            assert (q_laguerre(n, k).limit_q_to_1()
                    == laguerre_classical(LaguerreIndex(k, n - k))), (n, k)
    lam = LambdaPolynomial.gen(1)
    for n in range(6):
        via_connection = gegenbauer_connection(n).total.map_coeffs(
            lambda c: c.substitute(lambda g: lam, LambdaPolynomial.one()))
        assert via_connection == gegenbauer_classical_lambda(n), n
    _report(8, "q -> 1 limits reproduce the classical Hermite and Laguerre "
               "polynomials (n, k <= 5); beta_k -> lambda equals the classical "
               "general-lambda connection (n <= 5)")


def test_acceptance_9_property_suites():
    start = time.perf_counter()
    # field laws, >= 500 randomized cases
    rng = random.Random(424242)
    for _ in range(500):
        a = _random_rf(rng)
        b = _random_rf(rng)
        while b.is_zero():
            b = _random_rf(rng)
        assert (a * b) / b == a
        assert (a + (-a)).is_zero()
    # exp/log inverse to order 16
    from qpoly.series import FRACTION_RING
    for _ in range(10):
        coeffs = [Fraction(0)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in range(16)]
        series = TruncatedSeries(FRACTION_RING, coeffs, 16)
        assert series.exp().log() == series
    # partition counts vs brute-force recurrence
    for n in range(13):
        assert len(partitions_of(n)) == partition_count_dp(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f} s"
    _report(9, f"500 field-law cases, exp/log inverse at order 16, partition "
               f"counts vs brute force for n <= 12; {elapsed:.2f} s < 10 s")
