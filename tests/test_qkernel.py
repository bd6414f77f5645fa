"""q-calculus primitives and the two q-exponential routes."""

import pytest

from qpoly.field import RationalFunction as RF
from qpoly.qkernel import (
    IndexOutOfRange,
    q_binomial,
    q_exp_product_form,
    q_exp_sum,
    q_factorial,
    q_number,
    q_pochhammer,
    quesne_c,
    quesne_series,
)
from qpoly.series import NonzeroConstantTerm, Ring, TruncatedSeries

ONE = RF.one()
Q = RF.q()
RF_RING = Ring(RF.zero(), ONE)


def t_series(order):
    return TruncatedSeries.monomial(RF_RING, ONE, 1, order)


# ---------------------------------------------------------------------------
# q-numbers, factorials, binomials, Pochhammer
# ---------------------------------------------------------------------------

def test_q_number_zero():
    assert q_number(0).is_zero()


def test_q_number_three():
    assert q_number(3) == ONE + Q + Q**2


def test_q_number_inverse_base():
    assert q_number(2, -2) == ONE + RF.q_power(-2)


def test_q_factorial_empty():
    assert q_factorial(0) == ONE


def test_q_binomial_examples():
    assert q_binomial(3, 1) == ONE + Q + Q**2
    assert q_binomial(5, 0) == ONE
    with pytest.raises(IndexOutOfRange):
        q_binomial(3, 4)
    with pytest.raises(IndexOutOfRange):
        q_binomial(3, -1)


def test_q_binomial_is_polynomial():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k).den.is_one()


def test_q_binomial_symmetry():
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)


def test_q_pochhammer_examples():
    base = 1
    assert q_pochhammer(RF.lam(), base, 0) == ONE
    assert q_pochhammer(RF.lam(), base, 1) == ONE - RF.lam()
    assert q_pochhammer(Q, base, 2) == (ONE - Q) * (ONE - Q**2)


def test_lambda_pochhammer_rows_are_the_pochhammer_symbols():
    from qpoly.qkernel import _lambda_pochhammer_row, _ratio

    _lambda_pochhammer_row.cache_clear()
    for ell in reversed(range(9)):  # the first read builds every row below it
        rows = _lambda_pochhammer_row(ell)
        assert all(rows) and len(rows) == ell + 1
        assert _ratio(rows, [1]) == q_pochhammer(RF.lam(), 1, ell)


def _random_row(rng, low):
    """A nonzero v-row of up to 5 random ints after `low` zeros (a factor
    v**low), with no trailing zeros."""
    row = [0] * low + [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
    row[-1] = row[-1] or rng.choice((-1, 1))
    return row


def test_ratio_matches_the_gcd_reduced_fraction():
    # _ratio against RationalFunction(num, den) of the spread IntPolys, both
    # times one power of s that makes every exponent >= 0, reduced by the
    # generic gcd: ==, hash and both rows agree, and no input row changes
    import copy
    import random

    from qpoly.field import IntPoly, _umul, poly_gcd
    from qpoly.qkernel import _ratio

    rng, coprimes = random.Random(34), 0
    for case in range(600):
        b, s_power = rng.choice((1, 2, -1, -2, -4)), rng.randint(-7, 7)
        common = rng.choice(([1], [2], [1, -1], [1, 1], [3, 0, -1], [0, 1], [0, 0, 2]))  # a factor of both
        rows = [[] if rng.random() < 0.3 else _random_row(rng, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
        rows[-1] = rows[-1] or _random_row(rng, 0)  # empty rows only between nonzero ones
        if case % 3:
            rows = [_umul(r, common) if r else r for r in rows]
        den = [rng.choice((-1, 1)) * rng.randint(1, 12)] if case % 4 == 0 else _random_row(rng, rng.randint(0, 2))
        den = [0] * rng.randint(0, 2) + den if case % 8 == 0 else den  # an int times a power of v
        if case % 3:
            den = _umul(den, common)
        given = [tuple(r) for r in rows] if case % 5 == 0 else rows
        before = copy.deepcopy((given, den))
        shift = 2 * abs(b) * max(map(len, rows + [den])) + abs(s_power)
        expected = RF(IntPoly({(2 * b * i + s_power + shift, p): c for p, r in enumerate(rows) for i, c in enumerate(r)
                               if c}),
                      IntPoly({(2 * b * i + shift, 0): c for i, c in enumerate(den) if c}))
        got = _ratio(given, den, b, s_power)
        assert (given, den) == before, case
        assert got == expected and hash(got) == hash(expected), case
        assert (got.num._rows, got.den._rows) == (expected.num._rows, expected.den._rows), case
        if poly_gcd(IntPoly({(i, p): c for p, r in enumerate(rows) for i, c in enumerate(r) if c}),
                    IntPoly({(i, 0): c for i, c in enumerate(den) if c})) == 1:  # coprime as rows in v
            coprimes += 1
            coprime = _ratio(given, den, b, s_power, coprime=True)
            assert (coprime.num._rows, coprime.den._rows) == (expected.num._rows, expected.den._rows), case
    assert coprimes > 100
    assert _ratio([], [3], -2, 5) == 0 and _ratio([], [3], -2, 5).den._rows == [[1]]


# ---------------------------------------------------------------------------
# Quesne coefficients
# ---------------------------------------------------------------------------

def test_quesne_c_small():
    assert quesne_c(1) == ONE
    assert quesne_c(2) == (ONE - Q) / ((ONE + Q) * 2)
    assert quesne_c(3) == (ONE - Q) ** 2 / ((ONE + Q + Q**2) * 3)


def test_quesne_c_classical_limit():
    assert quesne_c(1).limit_q_to_1() == 1
    for k in range(2, 7):
        assert quesne_c(k).limit_q_to_1() == 0


# ---------------------------------------------------------------------------
# q-exponentials
# ---------------------------------------------------------------------------

def test_q_exp_sum_coefficients():
    arg = t_series(4)
    little = q_exp_sum("e", arg, 1)
    big = q_exp_sum("E", arg, 1)
    assert little.coeff(1) == ONE / (ONE - Q)
    assert big.coeff(2) == Q / ((ONE - Q) * (ONE - Q**2))
    assert big.coeff(1) == ONE / (ONE - Q)


def test_q_exp_zero_argument():
    zero_arg = TruncatedSeries.zero(RF_RING, 5)
    for kind in ("e", "E"):
        assert q_exp_sum(kind, zero_arg, 1) == TruncatedSeries.one(RF_RING, 5)
        assert q_exp_product_form(kind, zero_arg, 1) == TruncatedSeries.one(RF_RING, 5)


def test_q_exp_rejects_constant_term():
    bad = TruncatedSeries.one(RF_RING, 4)
    with pytest.raises(NonzeroConstantTerm):
        q_exp_sum("e", bad, 1)
    with pytest.raises(NonzeroConstantTerm):
        q_exp_product_form("E", bad, 1)


@pytest.mark.parametrize("exp", [1, -2, -4])
@pytest.mark.parametrize("kind", ["e", "E"])
def test_quesne_identity(exp, kind):
    # the defining sum and the exp-of-log-series forms agree exactly
    arg = t_series(12)
    assert q_exp_sum(kind, arg, exp) == q_exp_product_form(kind, arg, exp)


def test_inverse_identity():
    arg = t_series(12)
    base = 1
    product = q_exp_sum("e", arg, base) * q_exp_sum("E", -arg, base)
    assert product == TruncatedSeries.one(RF_RING, 12)


def test_physicists_exponential_scaling():
    # exp of sum_k c_k z^k equals the little q-exponential at (1-q)z
    arg = t_series(10)
    assert quesne_series(arg, 1) == q_exp_sum("e", arg.scale(ONE - Q), 1)


def test_base_must_not_be_one():
    # the base exponent 0 is the base q**0 = 1
    with pytest.raises(ValueError):
        q_number(2, 0)
    with pytest.raises(ValueError):
        q_exp_sum("e", t_series(3), 0)


def test_bases_given_by_exponent():
    # q_number(n, b) is [n] in the base q**b, for bases verify does not use too
    for b in (1, -2, -4, 3):
        for n in range(6):
            assert q_number(n, b) == (ONE - RF.q_power(b * n)) / (ONE - RF.q_power(b))
    # the two q-exponential routes agree at a base outside verify's three
    arg = t_series(8)
    for kind in ("e", "E"):
        assert q_exp_sum(kind, arg, 3) == q_exp_product_form(kind, arg, 3)
    # the exponent 0 is the base 1, which every function rejects
    for call in (lambda: q_number(3, 0), lambda: q_factorial(0, 0), lambda: q_factorial(3, 0),
                 lambda: q_binomial(3, 1, 0), lambda: q_pochhammer(Q, 0, 0),
                 lambda: quesne_c(2, 0), lambda: q_exp_sum("E", arg, 0),
                 lambda: q_exp_product_form("e", arg, 0),
                 lambda: quesne_series(TruncatedSeries.zero(RF_RING, 3), 0)):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# the product forms in q-divided powers over Z
# ---------------------------------------------------------------------------

def _exp_of_log_series(arg, coeff):
    # exp(sum_k coeff(k) arg**k) by TruncatedSeries arithmetic alone: the
    # route the product forms took before the integer recurrence
    total, power = TruncatedSeries.zero(RF_RING, arg.order), TruncatedSeries.one(RF_RING, arg.order)
    for k in range(1, arg.order + 1):
        power = power * arg
        total = total + power.scale(coeff(k))
    return total.exp()


def _arguments(order):
    lam = RF.lam()
    wide = TruncatedSeries(RF_RING, [RF.zero(), lam * 2 - Q, ONE / (ONE + Q), RF.zero(), lam * lam], order)
    return [t_series(order), wide]


@pytest.mark.parametrize("exp", [1, -2, -4])
def test_product_forms_match_exp_of_the_log_series(exp):
    v = RF.q_power(exp)
    logs = {
        "e": lambda k: ONE / ((ONE - v**k) * k),
        "E": lambda k: ONE / ((ONE - v**k) * (k if k % 2 else -k)),
        "quesne": lambda k: (ONE - v) ** k / ((ONE - v**k) * k),
    }
    for order in (1, 4, 8):
        for arg in _arguments(order):
            for kind in ("e", "E"):
                assert q_exp_product_form(kind, arg, exp) == _exp_of_log_series(arg, logs[kind]), (order, kind)
            assert quesne_series(arg, exp) == _exp_of_log_series(arg, logs["quesne"]), order


def test_product_forms_take_no_series_exp(monkeypatch):
    def forbidden(self):
        raise AssertionError("TruncatedSeries.exp called")

    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    arg = t_series(12)
    for exp in (1, -2, -4):
        for kind in ("e", "E"):
            assert q_exp_product_form(kind, arg, exp) == q_exp_sum(kind, arg, exp)
    assert quesne_series(arg, 1) == q_exp_sum("e", arg.scale(ONE - Q), 1)


def test_references_take_no_divided_power_kernel(monkeypatch):
    # the exp and log of the one q-divided-power kernel are checked against
    # routes that must not share it: with the kernel patched to raise, the
    # explicit Gegenbauer polynomials, the classical log of the sum rules,
    # the defining sums and the series exp of the log series still build,
    # and equal what the kernel gave
    import qpoly.connection as connection
    import qpoly.families as families
    import qpoly.qkernel as qkernel

    order, v = 8, RF.q_power(-2)
    genfun = families.gegenbauer_genfun_series(order).coeffs
    deformed, _ = connection.gegenbauer_sum_rule_logs(order)
    args = _arguments(order)
    products = [q_exp_product_form(kind, arg, -2) for kind in ("e", "E") for arg in args]
    quesne = [quesne_series(arg, -2) for arg in args]

    def forbidden(*args, **kwargs):
        raise AssertionError("q-divided-power kernel called")

    for module in (qkernel, families):
        monkeypatch.setattr(module, "_divided_powers", forbidden)
    with pytest.raises(AssertionError):
        families.q_gegenbauer_genfun(1)
    assert [families.q_gegenbauer_direct.__wrapped__(n) for n in range(order + 1)] == list(genfun)
    classical = connection._classical_log(order)
    for ell in range(1, order + 1):
        assert deformed.coeff(ell) == classical.coeff(ell).scale(families.gegenbauer_weight(ell))
    assert products == [q_exp_sum(kind, arg, -2) for kind in ("e", "E") for arg in args]
    assert quesne == [_exp_of_log_series(arg, lambda k: (ONE - v) ** k / ((ONE - v**k) * k)) for arg in args]


def test_exp_coefficients_raise_when_n_does_not_divide():
    from qpoly.qkernel import _exp_coefficients

    # exp(z/(1 - q)) has e_2 = 1/(2 (1 - q)**2), so 2 G_2 = 1 + q is odd
    with pytest.raises(ArithmeticError):
        _exp_coefficients(lambda k: [1] if k == 1 else [], 1, 4)
    assert _exp_coefficients(lambda k: [1] if k == 1 else [], 1, 1) == [ONE, ONE / (ONE - Q)]
    # w_1 = 1, w_2 = 1 + q give 2 G_2 = 2 + q - q**2: the packed int is even
    # at 1-, 2- and 4-byte digits, so only the digit-by-digit check sees it
    with pytest.raises(ArithmeticError):
        _exp_coefficients(lambda k: [[1], [1, 1]][k - 1], 1, 2)


def test_q_pascal_rows_are_binomials():
    # against q_binomial's rows and the rows of (x;x)_k, products and stride
    # quotients of 1 - x**m, and their _umul products
    from qpoly.field import _umul
    from qpoly.qkernel import _cyclotomic_rows, _poch_exponents, _q_pascal_row, _q_pochhammer_row

    def poch(k):
        return list(_cyclotomic_rows(_poch_exponents((k,), ()))[0])

    for cache in (_q_pascal_row, _q_pochhammer_row):
        cache.cache_clear()
    for n in reversed(range(10)):  # the first read builds every row below it
        binoms = [list(_cyclotomic_rows(_poch_exponents((n,), (j, n - j)))[0]) for j in range(n + 1)]
        assert _q_pochhammer_row(n) == poch(n)
        assert _q_pascal_row(n, False) == binoms
        assert _q_pascal_row(n, True) == [[1]] + [_umul(b, poch(j - 1)) for j, b in enumerate(binoms[1:], 1)]


def test_q_pascal_tables_are_built_once_and_never_changed(monkeypatch):
    # each q-row table is one cached row per index, shared by every order:
    # the exp, the generating function and the log read whole tables, and
    # q_hermite, the Laguerre totals and rows, the direct Gegenbauer
    # polynomials and the Gegenbauer connection value read single rows.  Every
    # read of a row returns the same unchanged object, a second round of the
    # same calls builds no row again, and each cache holds one entry per
    # distinct argument tuple (a default or keyword argument would add another)
    import copy
    import inspect

    import qpoly.connection as connection
    import qpoly.families as families
    import qpoly.qkernel as qkernel

    caches = {name: getattr(qkernel, name) for name in ("_q_pascal_row", "_q_pochhammer_row", "_lambda_pochhammer_row")}
    reads, copies = {}, {}

    def recorded(name):
        cache = caches[name]

        def read(*args, **kwargs):
            bound = inspect.signature(cache).bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name, *bound.arguments.values())
            row = cache(*args, **kwargs)
            if key not in reads:
                reads[key], copies[key] = [], copy.deepcopy(row)
            reads[key].append(row)
            return row
        return read

    for module in (qkernel, families, connection):
        for name in caches:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded(name))

    def calls():
        for order in (4, 6, 8):
            for exp in (1, -2, -4):
                for kind in ("e", "E"):
                    q_exp_product_form(kind, t_series(order), exp)
                quesne_series(t_series(order), exp)
            families.q_gegenbauer_genfun(order)
            connection.gegenbauer_sum_rule(order)
        for n in range(9):
            families.q_hermite.__wrapped__(n)
            families.q_gegenbauer_direct.__wrapped__(n)
            for k in range(min(n, 6) + 1):
                expansion = connection.laguerre_connection(n, k, {1: 2, 2: -1, 3: 3})
                assert expansion.total == families.ZPolynomial.sum([term.value for term in expansion.terms])
        for n in range(6):
            connection.gegenbauer_connection_value(connection.gegenbauer_connection.__wrapped__(n))

    for cache in caches.values():
        cache.cache_clear()
    calls()
    built = {name: cache.cache_info().misses for name, cache in caches.items()}
    calls()
    assert {name: cache.cache_info().misses for name, cache in caches.items()} == built
    for name, cache in caches.items():
        assert cache.cache_info().currsize == len([key for key in reads if key[0] == name])
    assert {key[0] for key in reads} == set(caches)
    assert {(key[0], key[2]) for key in reads if len(key) == 3} == {("_q_pascal_row", False), ("_q_pascal_row", True)}
    for key, rows in reads.items():
        assert all(row is rows[0] for row in rows)
        assert caches[key[0]](*key[1:]) is rows[0]
        assert rows[0] == copies[key]


def test_cyclotomic_rows_are_built_once_and_never_changed(monkeypatch):
    # the rows of each exponent vector and each [n]! are cached tuples, and
    # each [n over l] row is cached, shared by the closed forms, the power
    # sums, the Laguerre totals and the quotient kernel: a second round of the
    # same calls builds none again, and every row read back is the same
    # unchanged object
    import qpoly.families as families
    import qpoly.qkernel as qkernel
    from qpoly.connection import hermite_connection, laguerre_connection

    caches = (qkernel._cyclotomic_rows, qkernel._q_factorial_row, qkernel._q_pascal_row)
    keys, poch = set(), qkernel._poch_exponents

    def recorded(tops, bottoms):
        exps = poch(tops, bottoms)
        keys.add(exps)
        return exps

    for module in (qkernel, families):
        monkeypatch.setattr(module, "_poch_exponents", recorded)

    def calls():
        for n in range(6):
            for k in range(6):
                families.q_laguerre.__wrapped__(n, k)
                laguerre_connection(n, k, {1: 2, 2: -1, 3: 3}).total
            hermite_connection.__wrapped__(n).total
        for exp in (1, -2, -4):
            for kind in ("e", "E"):
                q_exp_sum(kind, t_series(8), exp)

    for cache in caches:
        cache.cache_clear()
    calls()
    rows = {exps: qkernel._cyclotomic_rows(exps) for exps in keys}
    facts = {n: qkernel._q_factorial_row(n) for n in range(6)}
    binoms = {n: qkernel._q_pascal_row(n, False) for n in range(6)}
    built = [cache.cache_info().misses for cache in caches]
    calls()
    assert [cache.cache_info().misses for cache in caches] == built
    for exps, pair in rows.items():
        assert qkernel._cyclotomic_rows(exps) is pair
        assert type(pair) is tuple and all(type(r) is tuple for r in pair)
    for n, row in facts.items():
        assert qkernel._q_factorial_row(n) is row and type(row) is tuple
    for n, row in binoms.items():
        assert qkernel._q_pascal_row(n, False) is row


# ---------------------------------------------------------------------------
# the power sum of a one-term argument
# ---------------------------------------------------------------------------

def _q_exp_by_series_products(kind, arg, exp):
    # sum_n base**tri z**n / (base; base)_n with z**n by TruncatedSeries
    # products, the coefficients by RationalFunction products: the general
    # power sum, and no cyclotomic closed form
    v = RF.q_power(exp)
    total, power, poch = TruncatedSeries.one(RF_RING, arg.order), TruncatedSeries.one(RF_RING, arg.order), ONE
    for n in range(1, arg.order + 1):
        power, poch = power * arg, poch * (ONE - v**n)
        total = total + power.scale((v ** (n * (n - 1) // 2) if kind == "E" else ONE) / poch)
    return total


@pytest.mark.parametrize("exp", [1, -2, -4])
def test_power_sum_of_a_monomial_matches_the_series_products(exp):
    for c in (ONE, -ONE, ONE - Q, RF.lam()):
        for d in (1, 2):
            arg = TruncatedSeries.monomial(RF_RING, c, d, 7)
            for kind in ("e", "E"):
                assert q_exp_sum(kind, arg, exp) == _q_exp_by_series_products(kind, arg, exp), (c, d, kind)


# ---------------------------------------------------------------------------
# closed forms from cyclotomic exponents, with no polynomial gcd
# ---------------------------------------------------------------------------

BASES = (1, 2, -1, -2, -4)


def _forbidden(*args):
    raise AssertionError("polynomial gcd called")


def _closed_forms(max_n, max_laguerre, order):
    """The q-numbers, q-factorials, q-binomials and Quesne coefficients for
    n <= max_n, q_laguerre(n, k) for n, k <= max_laguerre and q_exp_sum to
    the given order, by label, built with field's polynomial gcd patched to
    raise."""
    from unittest import mock

    import qpoly.field as field
    from qpoly.families import q_laguerre

    values = {}
    with mock.patch.object(field, "_gcd_cof", _forbidden), mock.patch.object(field, "_ugcd_heu", _forbidden):
        for b in BASES:
            for n in range(max_n + 1):
                values["number", n, b] = q_number.__wrapped__(n, b)
                values["factorial", n, b] = q_factorial.__wrapped__(n, b)
                values.update({("binomial", n, k, b): q_binomial(n, k, b) for k in range(n + 1)})
                if n:
                    values["quesne", n, b] = quesne_c.__wrapped__(n, b)
            for kind in ("e", "E"):
                values["exp", kind, b] = q_exp_sum(kind, t_series(order), b)
        for n in range(max_laguerre + 1):
            values.update({("laguerre", n, k): q_laguerre.__wrapped__(n, k) for k in range(max_laguerre + 1)})
    return values


def _chain_forms(max_n, max_laguerre, order):
    """The same values by RationalFunction products and quotients, each
    reduced by a polynomial gcd: the route the closed forms replaced."""
    from qpoly.families import ZPolynomial

    values = {}
    for b in BASES:
        v = RF.q_power(b)
        numbers = [(ONE - v**n) / (ONE - v) for n in range(max(max_n, order) + 1)]
        facts, poch = [ONE], [ONE]
        for n in range(1, len(numbers)):
            facts.append(facts[-1] * numbers[n])
            poch.append(poch[-1] * (ONE - v**n))
        for n in range(max_n + 1):
            values["number", n, b], values["factorial", n, b] = numbers[n], facts[n]
            values.update({("binomial", n, k, b): facts[n] / (facts[k] * facts[n - k]) for k in range(n + 1)})
            if n:
                values["quesne", n, b] = (ONE - v) ** (n - 1) / (numbers[n] * n)
        for kind in ("e", "E"):
            coeffs = [(v ** (n * (n - 1) // 2) if kind == "E" else ONE) / poch[n] for n in range(order + 1)]
            values["exp", kind, b] = TruncatedSeries(RF_RING, coeffs, order)
    facts = [ONE]
    for n in range(1, max_laguerre + 1):
        facts.append(facts[-1] * (ONE - Q**n) / (ONE - Q))
    for n in range(max_laguerre + 1):
        for k in range(max_laguerre + 1):
            shift = (n - k) * (n - k + 1) // 2
            values["laguerre", n, k] = ZPolynomial({
                k - ell: RF.q_power((k - ell) * (k - ell - 1) // 2 + (n - ell) * (n - ell + 1) // 2 - shift)
                * facts[n] / (facts[ell] * facts[n - ell] * facts[k - ell]) * (-1) ** (k - ell)
                for ell in range(min(n, k) + 1)})
    return values


def _closed_form_mismatches(max_n, max_laguerre, order):
    """The labels whose closed form (built with no polynomial gcd) and chain
    value differ in ==, in hash or in a numerator or denominator row."""
    closed, chain = _closed_forms(max_n, max_laguerre, order), _chain_forms(max_n, max_laguerre, order)
    assert closed.keys() == chain.keys()

    def parts(x):
        if isinstance(x, RF):
            return [x]
        return list(x.coeffs) if isinstance(x, TruncatedSeries) else [c for _, c in sorted(x._terms.items())]

    return [label for label, value in closed.items()
            if value != chain[label] or hash(value) != hash(chain[label])
            or [(p.num._rows, p.den._rows) for p in parts(value)]
            != [(p.num._rows, p.den._rows) for p in parts(chain[label])]]


def test_closed_forms_take_no_polynomial_gcd_and_match_the_chain():
    from unittest import mock

    import qpoly.field as field

    assert _closed_form_mismatches(10, 8, 8) == []
    with mock.patch.object(field, "_gcd_cof", _forbidden), pytest.raises(AssertionError):
        (ONE - Q**2) / (ONE - Q)  # the patch reaches the gcd of a RationalFunction


def test_exp_digit_widths(monkeypatch):
    # the exp of _divided_powers packs each step's rows at the width its bound
    # needs: the rows packed at each width are pinned, so a step one byte
    # narrower or wider fails, as test_hermite_kernel_digit_widths pins the
    # quotient kernel's
    import qpoly.qkernel as qkernel
    from qpoly.families import q_gegenbauer_genfun

    seen, pack = [], qkernel._pack
    monkeypatch.setattr(qkernel, "_pack", lambda c, nbytes: seen.append(nbytes) or pack(c, nbytes))

    def widths(read):
        seen.clear()
        read()
        return {nbytes: seen.count(nbytes) for nbytes in seen}

    assert widths(lambda: q_gegenbauer_genfun(8)) == {1: 6, 2: 15, 3: 15}
    assert widths(lambda: q_gegenbauer_genfun(10)) == {1: 6, 2: 15, 3: 34}
    assert widths(lambda: q_gegenbauer_genfun(12)) == {1: 6, 2: 15, 3: 34, 4: 23}
    arg = TruncatedSeries(RF_RING, [RF.zero(), ONE], 12)
    for kind in ("e", "E"):
        assert widths(lambda: q_exp_product_form(kind, arg, 1)) == {1: 15, 2: 51, 3: 12}, kind


def test_exp_digit_widths_stay_within_their_bounds(monkeypatch):
    # upper bounds on the exp's digit widths: a narrowing passes, a widening
    # fails
    import qpoly.families as families
    import qpoly.qkernel as qkernel

    widths, kernel = [], qkernel._divided_powers

    def recorded(*args, **kwargs):
        out = kernel(*args, **kwargs)
        widths.append(out[1])
        return out

    for module in (qkernel, families):
        monkeypatch.setattr(module, "_divided_powers", recorded)
    for order, bound in ((10, 3), (16, 5), (22, 7)):
        families._genfun_coefficients(order, ())
        assert widths.pop() <= bound, ("genfun", order)
    for order, bound in ((8, 2), (12, 3), (20, 4)):
        for sign in (1, -1):
            qkernel._exp_coefficients(lambda k: [sign ** (k + 1)], 1, order)
            assert widths.pop() <= bound, ("qexp", sign, order)
