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
    from qpoly.qkernel import _lambda_pochhammer_rows, _q_rows_ratio

    table = _lambda_pochhammer_rows(8)
    assert len(table) == 9
    for ell, rows in enumerate(table):
        assert all(rows) and len(rows) == ell + 1
        assert _q_rows_ratio(rows, [1]) == q_pochhammer(RF.lam(), 1, ell)


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

    for module in (qkernel, families, connection):
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
    from qpoly.field import _umul
    from qpoly.qkernel import _q_binomial_rows, _q_pascal_rows, _q_pochhammer_rows

    for order in range(10):
        binoms, poch = [list(map(list, _q_binomial_rows(n, n))) for n in range(order + 1)], _q_pochhammer_rows(order)
        assert _q_pascal_rows(order) == binoms
        assert _q_pascal_rows(order, True) == [[[1]] + [_umul(b, poch[j - 1]) for j, b in enumerate(row[1:], 1)]
                                               for row in binoms]


def test_q_pascal_tables_are_built_once_and_never_changed():
    # _q_pascal_rows is cached, so its tables are shared by every kernel call
    # of one order: the exp, the generating function and the log read them
    import copy

    from qpoly.connection import gegenbauer_sum_rule
    from qpoly.families import q_gegenbauer_genfun
    from qpoly.qkernel import _q_pascal_rows

    order = 8
    tables = {flag: _q_pascal_rows(order, flag) for flag in (False, True)}
    copies = copy.deepcopy(tables)
    arg = t_series(order)
    for exp in (1, -2, -4):
        for kind in ("e", "E"):
            q_exp_product_form(kind, arg, exp)
        quesne_series(arg, exp)
    q_gegenbauer_genfun(order)
    gegenbauer_sum_rule(order)
    for flag, table in tables.items():
        assert _q_pascal_rows(order, flag) is table
        assert table == copies[flag]


def test_cyclotomic_rows_are_built_once_and_never_changed(monkeypatch):
    # the rows of each exponent vector, each [n]! and each [n over l] table
    # are cached tuples shared by the closed forms, the power sums, the
    # Laguerre totals and the quotient kernel: a second round of the same
    # calls builds none again, and every row read back is the same unchanged
    # object
    import qpoly.families as families
    import qpoly.qkernel as qkernel
    from qpoly.connection import hermite_connection, laguerre_connection

    caches = (qkernel._cyclotomic_rows, qkernel._q_factorial_row, qkernel._q_binomial_rows)
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
    binoms = {(n, top): qkernel._q_binomial_rows(n, top) for n in range(6) for top in range(n + 1)}
    built = [cache.cache_info().misses for cache in caches]
    calls()
    assert [cache.cache_info().misses for cache in caches] == built
    for exps, pair in rows.items():
        assert qkernel._cyclotomic_rows(exps) is pair
        assert type(pair) is tuple and all(type(r) is tuple for r in pair)
    for n, row in facts.items():
        assert qkernel._q_factorial_row(n) is row and type(row) is tuple
    for key, table in binoms.items():
        assert qkernel._q_binomial_rows(*key) is table
        assert type(table) is tuple and all(type(r) is tuple for r in table)


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
