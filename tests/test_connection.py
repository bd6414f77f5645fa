"""Partition enumeration and the three connection engines."""

import cmath
import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from qpoly.field import RationalFunction as RF
from qpoly.families import (
    CosPolynomial,
    ZPolynomial,
    gegenbauer_classical,
    gegenbauer_weight,
    laguerre_classical,
    q_gegenbauer_direct,
    q_hermite,
    q_laguerre,
)
from qpoly.connection import (
    BetaPolynomial,
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
from qpoly.qkernel import q_binomial
from qpoly.verify import (
    gegenbauer_displayed_connection,
    hermite5_reference,
    laguerre33_reference,
)


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------

def brute_partitions(n):
    """Independent enumeration: ascending parts lists."""
    def gen(m, minpart):
        if m == 0:
            yield ()
        for p in range(minpart, m + 1):
            for rest in gen(m - p, p):
                yield (p,) + rest
    return list(gen(n, 1))


def partition_count_dp(n):
    """Independent count via the coin-style recurrence."""
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for i in range(part, n + 1):
            dp[i] += dp[i - part]
    return dp[n]


def test_partitions_trivial():
    sols = partitions_of(0)
    assert len(sols) == 1 and sols[0].parts == ()


def test_partitions_counts():
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(10)) == 42


def test_partitions_vs_brute_force():
    for n in range(13):
        sols = partitions_of(n)
        assert len(sols) == partition_count_dp(n)
        got = {sol.parts for sol in sols}
        expected = set()
        for parts in brute_partitions(n):
            mult = {}
            for p in parts:
                mult[p] = mult.get(p, 0) + 1
            expected.add(tuple(sorted(mult.items())))
        assert got == expected
        assert all(sol.target == n for sol in sols)


def test_partitions_order_deterministic():
    # parts-descending lexicographic: [n] first, all-ones last
    sols = partitions_of(5)
    as_lists = []
    for sol in sols:
        parts = []
        for k, m in sorted(sol.parts, reverse=True):
            parts.extend([k] * m)
        as_lists.append(tuple(parts))
    assert as_lists == sorted(as_lists, reverse=True)
    assert as_lists[0] == (5,)
    assert as_lists[-1] == (1,) * 5


# ---------------------------------------------------------------------------
# Laguerre partition solutions
# ---------------------------------------------------------------------------

# first column of the contribution table at n = 3, k = 3, as
# (l, ((j, k_j), ...), ((j, l_j), ...))
TABLE2_SOLUTIONS = {
    (0, ((1, 3),), ()),
    (0, (), ((1, 3),)),
    (3, (), ()),
    (0, ((3, 1),), ()),
    (0, (), ((3, 1),)),
    (0, ((1, 1), (2, 1)), ()),
    (0, (), ((1, 1), (2, 1))),
    (0, ((1, 2),), ((1, 1),)),
    (0, ((1, 1),), ((1, 2),)),
    (1, ((1, 2),), ()),
    (2, ((1, 1),), ()),
    (1, (), ((1, 2),)),
    (2, (), ((1, 1),)),
    (0, ((2, 1),), ((1, 1),)),
    (1, ((2, 1),), ()),
    (1, (), ((2, 1),)),
    (0, ((1, 1),), ((2, 1),)),
    (1, ((1, 1),), ((1, 1),)),
}


def brute_laguerre_partitions(n, k):
    sols = set()
    js = list(range(1, k + 1))
    ranges = [range(k // j + 1) for j in js] * 2
    for combo in itertools.product(*ranges) if js else [()]:
        kv, lv = combo[: len(js)], combo[len(js):]
        used = sum(j * (kv[i] + lv[i]) for i, j in enumerate(js))
        ell = k - used
        if 0 <= ell <= n:
            sols.add((ell,
                      tuple((j, kv[i]) for i, j in enumerate(js) if kv[i]),
                      tuple((j, lv[i]) for i, j in enumerate(js) if lv[i])))
    return sols


def test_laguerre_partitions_table():
    sols = laguerre_partitions(3, 3)
    assert len(sols) == 18
    assert {(s.ell, s.kparts, s.lparts) for s in sols} == TABLE2_SOLUTIONS


def test_laguerre_partitions_degree_zero():
    sols = laguerre_partitions(5, 0)
    assert len(sols) == 1
    assert sols[0].ell == 0 and not sols[0].kparts and not sols[0].lparts


def test_laguerre_partitions_n0():
    assert all(s.ell == 0 for s in laguerre_partitions(0, 2))


def test_laguerre_partitions_vs_brute_force():
    for n in range(4):
        for k in range(5):
            got = {(s.ell, s.kparts, s.lparts) for s in laguerre_partitions(n, k)}
            assert got == brute_laguerre_partitions(n, k)
            assert all(s.target == k for s in laguerre_partitions(n, k))


# ---------------------------------------------------------------------------
# Hermite connection
# ---------------------------------------------------------------------------

def test_hermite_connection_degree_zero():
    expansion = hermite_connection(0)
    assert expansion.rescaled_total() == q_hermite(0)
    assert len(expansion.terms) == 1


def test_hermite_connection_matches_family():
    for n in range(9):
        assert hermite_connection(n).rescaled_total() == q_hermite(n)


def test_hermite_connection_five():
    expansion = hermite_connection(5)
    assert len(expansion.terms) == 7
    assert expansion.rescaled_total() == hermite5_reference()


def test_hermite_total_is_term_sum():
    expansion = hermite_connection(6)
    total = None
    for term in expansion.terms:
        total = term.value if total is None else total + term.value
    assert total == expansion.total


def test_hermite_sum_invariant_under_order():
    expansion = hermite_connection(7)
    values = [t.value for t in expansion.terms]
    rng = random.Random(3)
    for _ in range(3):
        rng.shuffle(values)
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        assert acc == expansion.total


# numeric oracle for the contribution-table rows: complex evaluation of the
# prefactors and classical Hermite factors with the radical-bearing parameters
def _float_qnum(n, base):
    return (1 - base**n) / (1 - base)


def _float_qfact(n, base):
    r = 1.0
    for i in range(1, n + 1):
        r *= _float_qnum(i, base)
    return r


def _float_quesne_c(k, base):
    return (1 - base) ** (k - 1) / (k * _float_qnum(k, base))


def _float_hermite(n, x):
    return sum((-1) ** l * math.factorial(n) * (2 * x) ** (n - 2 * l)
               / (math.factorial(l) * math.factorial(n - 2 * l))
               for l in range(n // 2 + 1))


def hermite_row_oracle(solution, n, q, z):
    base2, base4 = q**-2, q**-4
    imag = complex(0, 1)
    total = (_float_qfact(n, base2) * (2 / (q**2 * (1 + base2))) ** (n / 2)
             * imag ** (n + solution.count))
    for k, m in solution.parts:
        ck4 = complex(_float_quesne_c(k, base4))
        zeta = (imag ** (k + 1) * (2 * q * (1 + base2)) ** (k / 2)
                * _float_quesne_c(k, base2) / (2 * cmath.sqrt(ck4)) * z**k)
        total *= cmath.sqrt(ck4) ** m * _float_hermite(m, zeta) / math.factorial(m)
    return total


def test_hermite_rows_match_numeric_oracle():
    q, z = 0.7, 1.3
    expansion = hermite_connection(5)
    for term in expansion.terms:
        exact = expansion.rescaled_term_value(term).eval_numeric(z, math.sqrt(q))
        oracle = hermite_row_oracle(term.descriptor, 5, q, z)
        assert abs(exact - oracle) <= 1e-9 * abs(oracle)


# ---------------------------------------------------------------------------
# Laguerre connection
# ---------------------------------------------------------------------------

def test_laguerre_connection_33():
    for aux in ({}, {1: 2, 2: 1, 3: 3}, {1: -3, 2: 0, 3: 2}, {1: 1, 2: -1, 3: -2}):
        expansion = laguerre_connection(3, 3, aux)
        assert expansion.rescaled_total() == laguerre33_reference()


def test_laguerre_connection_degree_zero():
    for n in (0, 2, 4):
        expansion = laguerre_connection(n, 0)
        assert len(expansion.terms) == 1
        assert expansion.total == RF.q_power(n * (n + 1) // 2)
        assert expansion.rescaled_total() == q_laguerre(n, 0)


def test_laguerre_gauge_independence():
    rng = random.Random(77)
    for n in range(6):
        for k in range(6):
            target = q_laguerre(n, k)
            auxes = [{}] + [{j: rng.randint(-3, 3) for j in range(1, k + 1)} for _ in range(3)]
            for aux in auxes:
                assert laguerre_connection(n, k, aux).rescaled_total() == target, (n, k, aux)


def test_laguerre_terms_sum_to_total():
    expansion = laguerre_connection(3, 3, {1: 1, 2: 2, 3: -1})
    total = None
    for term in expansion.terms:
        total = term.value if total is None else total + term.value
    assert total == expansion.total


# ---------------------------------------------------------------------------
# Gegenbauer connection
# ---------------------------------------------------------------------------

def beta_mono(*pairs):
    return tuple(pairs)


def test_gegenbauer_connection_n1():
    terms = dict(gegenbauer_connection(1).total.sorted_terms())
    assert terms == {((1, 1),): BetaPolynomial.gen(1)}


def test_gegenbauer_connection_n2():
    terms = dict(gegenbauer_connection(2).total.sorted_terms())
    b1, b2 = BetaPolynomial.gen(1), BetaPolynomial.gen(2)
    half = Fraction(1, 2)
    assert terms == {
        ((2, 1),): b2,
        ((1, 2),): (b1 * b1 - b2) * half,
    }


def test_gegenbauer_connection_n5_key_coefficients():
    terms = dict(gegenbauer_connection(5).total.sorted_terms())
    assert terms[((5, 1),)] == BetaPolynomial.gen(5)
    expected_c15 = BetaPolynomial({
        beta_mono((5, 1)): Fraction(24, 120),
        beta_mono((1, 1), (4, 1)): Fraction(-30, 120),
        beta_mono((2, 1), (3, 1)): Fraction(-20, 120),
        beta_mono((1, 2), (3, 1)): Fraction(20, 120),
        beta_mono((1, 1), (2, 2)): Fraction(15, 120),
        beta_mono((1, 3), (2, 1)): Fraction(-10, 120),
        beta_mono((1, 5)): Fraction(1, 120),
    })
    assert terms[((1, 5),)] == expected_c15


def test_gegenbauer_connection_displayed_forms():
    for n in range(6):
        assert gegenbauer_connection(n).total == gegenbauer_displayed_connection(n)


def test_gegenbauer_connection_reproduces_direct():
    for n in range(9):
        value = gegenbauer_connection_value(gegenbauer_connection(n))
        assert value == q_gegenbauer_direct(n)


def test_gegenbauer_value_computes_each_weight_once(monkeypatch):
    import qpoly.connection as connection

    calls = []

    def counted(k):
        calls.append(k)
        return gegenbauer_weight(k)

    monkeypatch.setattr(connection, "gegenbauer_weight", counted)
    expansion = gegenbauer_connection(6)
    assert gegenbauer_connection_value(expansion) == q_gegenbauer_direct(6)
    assert len(calls) <= 6


@pytest.mark.parametrize("n", [6, 9])
def test_gegenbauer_value_builds_each_power_once(n, monkeypatch):
    import qpoly.connection as connection

    expansion = gegenbauer_connection(n)
    expected = q_gegenbauer_direct(n)
    weights = {k: gegenbauer_weight(k) for k in range(1, n + 1)}
    index = {w: k for k, w in weights.items()}
    conversions, powers = [], []

    def counted_classical(m):
        conversions.append(m)
        return gegenbauer_classical(m)

    rf_pow = RF.__pow__

    def counted_pow(self, e):
        powers.append((index[self], e))
        return rf_pow(self, e)

    monkeypatch.setattr(connection, "gegenbauer_classical", counted_classical)
    monkeypatch.setattr(connection, "gegenbauer_weight", weights.__getitem__)
    monkeypatch.setattr(RF, "__pow__", counted_pow)
    value = gegenbauer_connection_value(expansion)
    monkeypatch.undo()
    assert value == expected
    # one C_m**e per distinct (m, e) and one [lambda]_{q^k}**e per distinct (k, e)
    factor_parts = {part for term in expansion.terms for part in term.descriptor}
    weight_parts = {part for term in expansion.terms
                    for mu in term.coefficient.support() for part in mu}
    assert collections.Counter(conversions) == collections.Counter(m for m, _ in factor_parts)
    assert sorted(powers) == sorted(weight_parts)


def _term_by_term_value(expansion):
    # each row's coefficient substituted into Q(s, Lambda), times its
    # classical product, and the rows summed
    weights = {k: gegenbauer_weight(k) for k in range(1, expansion.n + 1)}
    parts = []
    for term in expansion.terms:
        weight = term.coefficient.substitute(weights.__getitem__, RF.one())
        poly = CosPolynomial.one()
        for m, e in term.descriptor:
            poly = poly * gegenbauer_classical(m) ** e
        parts.append(poly.scale(weight))
    return CosPolynomial.sum(parts)


@pytest.mark.parametrize("n", range(9))
def test_gegenbauer_value_matches_term_by_term_substitution(n, monkeypatch):
    expansion = gegenbauer_connection(n)
    expected = _term_by_term_value(expansion)
    substituted = []

    def counted(self, value_of, one_value):
        substituted.append(self)
        return BetaPolynomial.substitute(self, value_of, one_value)

    # the value route sums per weight monomial, not row by row
    monkeypatch.setattr(BetaPolynomial, "substitute", counted)
    value = gegenbauer_connection_value(expansion)
    assert substituted == []
    assert value == expected


def test_hermite_builds_each_block_once(monkeypatch):
    import qpoly.connection as connection

    block = connection._hermite_block
    calls = []

    def counted(k, m):
        calls.append((k, m))
        return block(k, m)

    monkeypatch.setattr(connection, "_hermite_block", counted)
    n = 12
    expansion = hermite_connection.__wrapped__(n)
    assert expansion.rescaled_total() == q_hermite(n)
    assert sorted(calls) == sorted({part for sol in partitions_of(n) for part in sol.parts})


def test_laguerre_builds_each_prefactor_and_factor_once(monkeypatch):
    import qpoly.connection as connection

    binomials, factors = [], []

    def counted_binomial(n, ell, base):
        binomials.append(ell)
        return q_binomial(n, ell, base)

    def counted_classical(idx, argument):
        factors.append((max(argument.support()), idx.k))
        return laguerre_classical(idx, argument)

    monkeypatch.setattr(connection, "q_binomial", counted_binomial)
    monkeypatch.setattr(connection, "laguerre_classical", counted_classical)
    n, k = 5, 6
    expansion = laguerre_connection(n, k, {1: 2, 2: -1, 3: 3})
    assert expansion.rescaled_total() == q_laguerre(n, k)
    assert sorted(binomials) == list(range(min(n, k) + 1))
    solutions = laguerre_partitions(n, k)
    assert sorted(factors) == sorted({part for sol in solutions for part in sol.kparts})


def _count_zpoly_products(monkeypatch, skip_inside=None):
    """Record every ZPolynomial product as (left, right), except those made
    inside the connection-module function named skip_inside."""
    import qpoly.connection as connection

    products, inside = [], []
    mul = ZPolynomial.__mul__

    def counted(a, b):
        if not inside:
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ZPolynomial, "__mul__", counted)
    if skip_inside is not None:
        fn = getattr(connection, skip_inside)

        def wrapped(*args):
            inside.append(1)
            try:
                return fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(connection, skip_inside, wrapped)
    return products


def test_hermite_builds_each_prefix_product_once(monkeypatch):
    products = _count_zpoly_products(monkeypatch)
    expansion = hermite_connection.__wrapped__(16)
    one = ZPolynomial.one()
    assert len(products) == 371  # distinct prefixes of two or more parts
    assert not any(a == one or b == one for a, b in products)
    assert expansion.rescaled_total() == q_hermite(16)
    assert expansion.total == ZPolynomial.sum([t.value for t in expansion.terms])


def test_laguerre_builds_each_prefix_product_once(monkeypatch):
    products = _count_zpoly_products(monkeypatch, skip_inside="laguerre_classical")
    expansion = laguerre_connection(8, 8, {1: 2, 2: -1, 3: 3})
    one = ZPolynomial.one()
    assert len(products) == 46
    assert not any(a == one or b == one for a, b in products)
    assert expansion.rescaled_total() == q_laguerre(8, 8)
    assert expansion.total == ZPolynomial.sum([t.value for t in expansion.terms])


def test_laguerre_classical_powers_start_at_the_argument(monkeypatch):
    products = _count_zpoly_products(monkeypatch)
    expansion = laguerre_connection(8, 8, {1: 2, 2: -1, 3: 3})
    one = ZPolynomial.one()
    assert len(products) == 82  # 46 prefix products, 36 powers of arguments
    assert not any(a == one or b == one for a, b in products)
    assert expansion.rescaled_total() == q_laguerre(8, 8)


def test_gegenbauer_term_order_matches_partition_order():
    expansion = gegenbauer_connection(5)
    descriptors = [term.descriptor for term in expansion.terms]
    expected = [tuple(sorted(sol.parts)) for sol in partitions_of(5)]
    assert descriptors == expected


def _to_lambda(coeff):
    """beta_k -> lambda for every k."""
    lam = LambdaPolynomial.gen(1)
    return coeff.substitute(lambda g: lam, LambdaPolynomial.one())


def test_substitute_beta_examples():
    b1, b2 = BetaPolynomial.gen(1), BetaPolynomial.gen(2)
    assert b1.substitute(gegenbauer_weight, RF.one()) == gegenbauer_weight(1)
    lam = LambdaPolynomial.gen(1)
    assert _to_lambda(b2 - b1 * b1) == lam - lam * lam


def test_lambda_one_collapse():
    # at Lambda -> q every weight [lambda]_{q^k} is 1: the n=2 connection has
    # coefficient 1 on C2 and 0 on C1^2
    terms = dict(gegenbauer_connection(2).total.sorted_terms())
    c2_val = terms[((2, 1),)].substitute(gegenbauer_weight, RF.one()).subs_lam_q()
    c11_val = terms[((1, 2),)].substitute(gegenbauer_weight, RF.one()).subs_lam_q()
    assert c2_val == RF.one()
    assert c11_val.is_zero()


def test_gegenbauer_classical_lambda_route():
    for n in range(6):
        via_connection = gegenbauer_connection(n).total.map_coeffs(_to_lambda)
        assert via_connection == gegenbauer_classical_lambda(n)


def test_gegenbauer_classical_lambda_takes_no_log_or_exp(monkeypatch):
    import qpoly.connection as connection
    from qpoly.series import TruncatedSeries

    expected = [gegenbauer_connection(n).total.map_coeffs(_to_lambda) for n in range(9)]

    def forbidden(*args):
        raise AssertionError("the classical-lambda route must not use the log route")

    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    monkeypatch.setattr(TruncatedSeries, "log", forbidden)
    monkeypatch.setattr(connection, "classical_log_coefficients", forbidden)
    assert [gegenbauer_classical_lambda(n) for n in range(9)] == expected


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------

def test_sum_rule_order_one():
    lhs, rhs = gegenbauer_sum_rule(1)
    assert lhs == q_gegenbauer_direct(1)
    assert lhs == rhs


def test_sum_rule_order_two():
    from qpoly.families import CosPolynomial
    lhs, rhs = gegenbauer_sum_rule(2)
    assert lhs == CosPolynomial({2: gegenbauer_weight(2)})
    assert lhs == rhs


@pytest.mark.parametrize("ell", range(1, 9))
def test_sum_rules_exact(ell):
    lhs, rhs = gegenbauer_sum_rule(ell)
    assert lhs == rhs


@pytest.mark.parametrize("ell", range(1, 6))
def test_sum_rules_explicit_combinations(ell):
    lhs, _ = gegenbauer_sum_rule(ell)
    assert lhs == sum_rule_explicit(ell)
