"""Exact rational-function field: canonical forms, field laws, limits."""

import functools
import math
import random
from fractions import Fraction

import pytest

from qpoly.field import (
    DivisionByZero,
    IntPoly,
    LambdaPresent,
    NumericPole,
    ParseError,
    PoleAtOne,
    RationalFunction as RF,
    _gcd_cof,
    parse_laurent,
    parse_rational,
    poly_gcd,
)
from qpoly.render import parse_polynomial_json

ONE = RF.one()
Q = RF.q()
LAM = RF.lam()


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_geometric_sum_cancels():
    f = (ONE - Q**3) / (ONE - Q)
    assert f.den.is_one()
    assert f == ONE + Q + Q**2


def test_doubling():
    g = (ONE - Q) / (ONE + Q)
    assert g + g == (ONE - Q) * 2 / (ONE + Q)


def test_inverse_monomial():
    h = RF.s_power(-45)
    assert h * RF.s_power(45) == ONE
    assert str(h) == "q^{-45/2}"


def test_zero_representation():
    z = Q - Q
    assert z.is_zero()
    assert z.num.is_zero() and z.den.is_one()


def test_denominator_leading_positive():
    f = ONE / (RF.from_int(-2) * Q + ONE)  # den -2q + 1 flips sign
    assert f.den.leading_coeff() > 0


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / (Q - Q)
    with pytest.raises(DivisionByZero):
        (Q - Q) ** (-1)


def test_negative_powers():
    f = (ONE + Q) ** (-2)
    assert f * (ONE + Q) ** 2 == ONE


@pytest.mark.parametrize("e", [0, 1, 2, 3, 6, 8, 13])
def test_powers_take_no_product_with_the_unit(e, monkeypatch):
    # IntPoly, RationalFunction and SparsePoly powers share one squaring loop:
    # bit_length(e) - 1 squarings and popcount(e) - 1 further products
    from qpoly.families import CosPolynomial, SparsePoly

    p = IntPoly({(1, 0): 1, (0, 1): 2, (0, 0): -1})
    count = max(e.bit_length() + bin(e).count("1") - 2, 0)
    # (counted class, base, its unit, the counted class's unit, products per step)
    for cls, base, one, unit, per_step in (
            (IntPoly, p, IntPoly.one(), IntPoly.one(), 1),
            (IntPoly, RF(p, IntPoly({(2, 0): 1, (0, 0): 3})), ONE, IntPoly.one(), 2),
            (SparsePoly, CosPolynomial({1: Q, 0: 2}), CosPolynomial.one(), CosPolynomial.one(), 1)):
        expected = functools.reduce(lambda acc, _: acc * base, range(e), one)
        products = []
        times = cls.__mul__

        def counted(a, b, times=times, products=products):
            products.append((a, b))
            return times(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
        value = base ** e
        monkeypatch.undo()
        assert value == expected
        assert len(products) == count * per_step
        assert all(a != unit and b != unit for a, b in products)


# ---------------------------------------------------------------------------
# q -> 1 limits
# ---------------------------------------------------------------------------

def test_limit_q_number_7():
    n7 = (ONE - Q**7) / (ONE - Q)
    assert n7.limit_q_to_1() == 7


@pytest.mark.parametrize("n", range(1, 21))
def test_limit_q_number_sweep(n):
    assert ((ONE - Q**n) / (ONE - Q)).limit_q_to_1() == n


def test_limit_quesne_c2():
    c2 = (ONE - Q) / ((ONE + Q) * 2)
    assert c2.limit_q_to_1() == 0


def test_limit_pole():
    with pytest.raises(PoleAtOne):
        (ONE / (ONE - Q)).limit_q_to_1()


@pytest.mark.parametrize("value, limit", [
    ((ONE - Q) ** 3 / (ONE - Q**2) ** 2, 0),
    ((ONE - Q**2) ** 2 / (ONE - Q) ** 2, 4),
    (RF.s_power(-3) * (ONE - Q**2) / (ONE - Q), 2),  # (1 + q) / s**3
    (ONE / (ONE - Q) ** 2, None),
], ids=["cubed-over-squared", "squared-over-squared", "s-power-denominator", "double-pole"])
def test_limit_of_repeated_factors_of_one_minus_q(value, limit):
    # arithmetic cancels every common factor 1 - q, so the limit reads the
    # value at s = 1 and a pole is left only in the denominator
    if limit is None:
        with pytest.raises(PoleAtOne):
            value.limit_q_to_1()
    else:
        assert value.limit_q_to_1() == limit


def test_limit_lambda_rejected():
    with pytest.raises(LambdaPresent):
        LAM.limit_q_to_1()


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def test_eval_numeric_polynomial():
    f = ONE + Q + Q**2
    assert abs(f.eval_numeric(0.7**0.5) - 2.19) < 1e-12


def test_eval_numeric_quesne_c2():
    c2 = (ONE - Q) / ((ONE + Q) * 2)
    assert abs(c2.eval_numeric(0.5**0.5) - 1 / 6) < 1e-12


def test_eval_numeric_pole():
    with pytest.raises(NumericPole):
        (ONE / (ONE - Q)).eval_numeric(1.0)


def test_eval_numeric_small_monomial_denominator_is_no_pole():
    # the denominator s**100 is about 7.9e-31 at s = 1/2, but it is one term
    assert RF.s_power(-100).eval_numeric(0.5) == pytest.approx(2.0**100)
    assert (ONE / (Q**20 * (ONE + Q))).eval_numeric(0.01) == pytest.approx(1 / (1e-80 * 1.0001))


def test_eval_numeric_agrees_with_limit():
    # central average at s = 1 +/- eps cancels the first-order term
    eps = 1e-6
    for f in [(ONE - Q**7) / (ONE - Q), (ONE - Q) / ((ONE + Q) * 2), (ONE + Q) ** 3]:
        exact = float(f.limit_q_to_1())
        approx = (f.eval_numeric(1.0 + eps) + f.eval_numeric(1.0 - eps)) / 2
        assert abs(approx - exact) < 1e-8


# ---------------------------------------------------------------------------
# randomized field laws (canonical idempotence included)
# ---------------------------------------------------------------------------

def _random_poly(rng, allow_lam=True):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        es = rng.randint(0, 4)
        el = rng.randint(0, 1) if allow_lam and rng.random() < 0.3 else 0
        terms[(es, el)] = rng.randint(-4, 4)
    return IntPoly(terms)


def _random_rf(rng, allow_lam=True):
    num = _random_poly(rng, allow_lam)
    den = _random_poly(rng, allow_lam)
    while den.is_zero():
        den = _random_poly(rng, allow_lam)
    return RF(num, den)


def _at_lambda_one(value):
    """The RationalFunction value at lambda = 1, Lambda -> q = s**2."""
    def at(p):
        return sum((IntPoly.monomial(c, a + 2 * b) for (a, b), c in p.sorted_terms()), IntPoly.zero())
    return RF(at(value.num), at(value.den))


def test_field_laws_randomized():
    rng = random.Random(1234)
    for case in range(500):
        a = _random_rf(rng)
        b = _random_rf(rng)
        while b.is_zero():
            b = _random_rf(rng)
        assert (a * b) / b == a, f"case {case}"
        assert (a + (-a)).is_zero(), f"case {case}"
        assert a + b == b + a, f"case {case}"


def test_canonical_idempotence_randomized():
    # re-canonicalizing a canonical element and inflating num/den by a common
    # factor both land on the same representation
    rng = random.Random(99)
    for _ in range(200):
        f = _random_rf(rng) * _random_rf(rng)
        again = RF(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        g = _random_poly(rng)
        if g.is_zero():
            continue
        inflated = RF(f.num * g, f.den * g)
        assert inflated == f


def test_coprime_invariant_randomized():
    rng = random.Random(7)
    for _ in range(100):
        f = _random_rf(rng)
        if rng.random() < 0.5:
            g = _random_rf(rng)
            if not g.is_zero():
                f = f / g
        if f.is_zero():
            continue
        assert poly_gcd(f.num, f.den).is_one()


# ---------------------------------------------------------------------------
# text round trip
# ---------------------------------------------------------------------------

def test_parse_print_round_trip_examples():
    for text in ["0", "1", "q^{2} + q + 1", "q^{-45/2}", "(-q + 1)/(2*q + 2)",
                 "(lam^{2} - 1)/(q^{2} - 1)", "-q + 5", "2*q^{1/2}"]:
        assert str(parse_rational(text)) == text


def test_parse_print_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(200):
        f = _random_rf(rng)
        assert parse_rational(str(f)) == f


# ---------------------------------------------------------------------------
# value contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeff", [1.5, 0.0, 2.0, Fraction(1, 2), "1", None])
def test_intpoly_rejects_non_integer_coefficients(coeff):
    with pytest.raises(TypeError):
        IntPoly({(0, 0): coeff})
    with pytest.raises(TypeError):
        IntPoly({(2, 1): coeff, (0, 0): 1})


def test_constants_hash_like_equal_numbers():
    pairs = [(RF.from_int(3), 3), (RF.from_int(-7), -7), (RF.zero(), 0), (RF.one(), 1),
             (RF.from_fraction(Fraction(-2, 3)), Fraction(-2, 3)),
             (RF.from_fraction(Fraction(4, 2)), 2),
             (IntPoly.const(3), 3), (IntPoly.const(-5), -5), (IntPoly.zero(), 0)]
    for value, number in pairs:
        assert value == number and number == value
        assert hash(value) == hash(number), value
        assert len({value, number}) == 1
    assert IntPoly.const(3) != 4 and IntPoly.s_pow(1) != 1
    assert RF.from_int(3) != Fraction(3, 2)


def test_rational_function_from_int_parts_and_zero_denominator():
    p = IntPoly({(1, 0): 2, (0, 0): 1})
    assert RF(3) == 3 and RF(3, 6) == Fraction(1, 2)
    assert RF(p, 3) == RF(p) / 3
    with pytest.raises(DivisionByZero, match="^zero denominator$"):
        RF(p, 0)
    with pytest.raises(DivisionByZero, match="^zero denominator$"):
        RF(p, IntPoly.zero())


def test_intpoly_rejects_negative_exponents_powers_and_the_zero_leading_term():
    from qpoly.field import _udivexact

    p = IntPoly({(1, 0): 2, (0, 0): 1})
    for terms in ({(-1, 0): 1}, {(0, -1): 1}):
        with pytest.raises(ValueError, match="^IntPoly exponents must be nonnegative$"):
            IntPoly(terms)
    with pytest.raises(ValueError, match="^IntPoly power must be nonnegative$"):
        p ** -1
    with pytest.raises(ValueError, match="^zero polynomial has no leading term$"):
        IntPoly.zero().leading_key()
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        _udivexact([1, 2], [])
    assert _udivexact([], [1, 1]) == []
    assert (p * 0).is_zero() and 0 * p == IntPoly.zero()


def test_rational_function_constant_and_numeric_reads_refuse_what_they_cannot_give():
    with pytest.raises(ValueError, match="^element is not a rational constant$"):
        (Q + 1).as_fraction()
    with pytest.raises(LambdaPresent, match=r"^element contains q\*\*lambda; pass lam_value$"):
        (LAM + 1).eval_numeric(0.5)


@pytest.mark.parametrize("value", [IntPoly({(1, 0): 2, (0, 0): 1}), (Q + 2) / (Q * Q + 1)], ids=["IntPoly", "RF"])
def test_arithmetic_with_a_foreign_type_raises_type_error(value):
    name = type(value).__name__
    for op, symbol in ((lambda a, b: a + b, "+"), (lambda a, b: a - b, "-"), (lambda a, b: a * b, "*")):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: '{name}' and 'NoneType'$"):
            op(value, None)
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: 'NoneType' and '{name}'$"):
            op(None, value)
    if isinstance(value, RF):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for /: 'RationalFunction' and 'NoneType'$"):
            value / None
    assert (value == None) is False and (value == "1") is False  # noqa: E711


def test_reprs_name_the_class_around_the_text():
    assert repr(IntPoly({(1, 0): 2, (0, 0): 1})) == "IntPoly(2*q^{1/2} + 1)"
    assert repr(RF(IntPoly({(1, 0): 2, (0, 0): 1}), IntPoly({(2, 0): 1}))) == "RationalFunction(2*q^{-1/2} + q^{-1})"


@pytest.mark.parametrize("parse, text", [
    (parse_rational, "q^"),
    (parse_rational, "q^{1/3}"),
    (parse_rational, "q^{a}"),
    (parse_rational, "2/3"),
    (parse_rational, "(1)/(0)"),
    (parse_rational, "q^{1048577}"),
    (parse_rational, "1_000*q"),
    (parse_rational, "\u0663*q"),  # an Arabic-Indic digit
    (parse_rational, "q^{\u0662}"),
    (parse_rational, "\uff13"),  # a fullwidth digit
    (parse_rational, "-+1"),
    (parse_rational, "q^{3}/2"),
    (parse_rational, "lam^{1/2}"),
    (parse_rational, "lam^{2/2}"),
    (parse_rational, "2**q"),
    (parse_rational, "qq"),
    (parse_rational, "q^{1+2}"),
    (parse_rational, "(q)/(1)/(q)"),
    pytest.param(parse_rational, "9" * 4301, id="parse_rational-4301-digit-integer"),  # one digit beyond the grammar
    pytest.param(parse_rational, "9" * 5000, id="parse_rational-5000-digit-integer"),  # beyond int()'s digit limit
    pytest.param(parse_rational, "q^" + "9" * 5000, id="parse_rational-5000-digit-exponent"),
    (parse_polynomial_json, "[]"),
    (parse_polynomial_json, "{"),
    (parse_polynomial_json, "{}"),
    (parse_polynomial_json, '{"basis": "z", "coefficents": []}'),  # misspelled
    (parse_polynomial_json, '{"coefficients": [{"basis": "z", "degree_or_m": 0, '
                            '"num": "1", "den": "0"}], "basis": "z"}'),
    (parse_polynomial_json, '{"coefficients": [{"basis": "z", "num": "1", "den": "1"}], "basis": "z"}'),
    (parse_polynomial_json, '{"coefficients": [{"basis": "z", "degree_or_m": 0, '
                            '"num": 1, "den": "1"}], "basis": "z"}'),
    (parse_polynomial_json, '{"coefficients": [{"basis": "z", "degree_or_m": -1, '
                            '"num": "1", "den": "1"}], "basis": "z"}'),
    (parse_polynomial_json, '{"coefficients": 3}'),
    (parse_polynomial_json, '{"basis": "foo", "coefficients": []}'),
    (parse_polynomial_json, '{"basis": "cos", "coefficients": [{"basis": "z", "degree_or_m": 0, '
                            '"num": "1", "den": "1"}]}'),
    (parse_polynomial_json, '{"basis": "z", "coefficients": [{"basis": "z", "degree_or_m": 1, '
                            '"num": "1", "den": "1"}, {"basis": "z", "degree_or_m": 1, '
                            '"num": "2", "den": "1"}]}'),
])
def test_malformed_text_raises_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("text, terms", [
    ("q^3", {(6, 0): 1}),
    ("q^{3}", {(6, 0): 1}),
    ("q^(3)", {(6, 0): 1}),
    ("q^{-3/2}*lam^(2)", {(-3, 2): 1}),
    ("q^3/2", {(3, 0): 1}),
    ("lam^+2*q", {(2, 2): 1}),
    ("q^-1-2", {(-2, 0): 1, (0, 0): -2}),
    ("2*-3*q", {(2, 0): -6}),
    ("+3", {(0, 0): 3}),
    ("q+1-q", {(0, 0): 1}),
    ("1 2", {(0, 0): 12}),
    ("1\t2", {(0, 0): 12}),
    ("q\n^2", {(4, 0): 1}),
    ("\r-q^{1/2}\f*lam\v", {(1, 1): -1}),
    ("(q) / (1)", {(2, 0): 1}),
    pytest.param("9" * 4300, {(0, 0): 10**4300 - 1}, id="4300-digit-integer"),  # under any int() digit limit
])
def test_accepted_text_parses_to_its_terms(text, terms):
    if ")/(" in "".join(text.split()):
        assert parse_rational(text) == RF(IntPoly(terms))
    else:
        assert parse_laurent(text) == terms


# ---------------------------------------------------------------------------
# IntPoly kernels against a schoolbook reference on term dicts
# ---------------------------------------------------------------------------

# coefficients at the digit-width boundaries of the packed multiply
_EDGES = [2**7 - 1, 2**7, 2**15, 2**31 - 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**200]


def _reference_mul(a, b):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _terms(p):
    return dict(p.sorted_terms())


def _random_terms(rng, size, deg_lam, bits):
    """About size terms in s (and Lambda up to deg_lam), dense or sparse,
    some of them polynomials in s**2 or s**4 times a power of s."""
    deg_s = max(size // (deg_lam + 1), 1) + rng.randint(0, 3)
    fill = rng.choice([1.0, 0.5, 0.1])
    step, offset = rng.choice([(1, 0), (1, 0), (2, 0), (2, 1), (4, 3)])
    terms = {}
    for a in range(deg_s + 1):
        for b in range(deg_lam + 1):
            if rng.random() < fill:
                c = rng.choice(_EDGES) if rng.random() < 0.1 else rng.randint(1, 2**bits)
                terms[(offset + step * a, b)] = c if rng.random() < 0.5 else -c
    if not terms:
        terms[(offset + step * rng.randint(0, deg_s), rng.randint(0, deg_lam))] = rng.choice(_EDGES)
    return terms


def _operand_pairs(seed, count):
    """Pairs of term dicts: s-only and bivariate, small and large (either side
    of the packing cutoff), coefficients up to 2**200."""
    rng = random.Random(seed)
    for case in range(count):
        deg_lam = 0 if case % 2 == 0 else rng.randint(1, 3)
        sizes = [rng.randint(1, 4), rng.randint(30, 90)]
        size_a, size_b = rng.choice(sizes), rng.choice(sizes)
        bits = rng.choice([3, 40, 70, 200])
        yield (_random_terms(rng, size_a, deg_lam, bits),
               _random_terms(rng, size_b, rng.randint(0, deg_lam), bits))


def test_mul_matches_schoolbook_reference():
    for ta, tb in _operand_pairs(11, 120):
        product = IntPoly(ta) * IntPoly(tb)
        assert _terms(product) == _reference_mul(ta, tb)
        assert product == IntPoly(_reference_mul(ta, tb))
        a = IntPoly(ta)  # a product with the unit returns the other operand
        assert a * IntPoly.one() is a and IntPoly.one() * a is a


def _divides_unit_monomial(divisor, key):
    """Whether divisor divides the monomial with exponents key and coefficient 1."""
    if not divisor.is_monomial() or abs(divisor.leading_coeff()) != 1:
        return False
    (i, j), _ = divisor.sorted_terms()[0]
    return i <= key[0] and j <= key[1]


def _check_division(ta, tb, rng):
    a, b = IntPoly(ta), IntPoly(tb)
    product = a * b
    assert product.divexact(b) == a
    assert product.divexact(a) == b
    key = rng.choice(list(_terms(product)) + [(0, 0)])
    perturbed = product + IntPoly({key: 1})
    if not _divides_unit_monomial(b, key):
        assert perturbed.divexact(b) is None


def _mul_div_mismatches(seed, count):
    """The pairs of _operand_pairs(seed, count), count of them, whose product
    differs from _reference_mul or whose divisions fail _check_division."""
    rng, bad = random.Random(seed), []
    for case, (ta, tb) in enumerate(_operand_pairs(seed, count)):
        try:
            assert _terms(IntPoly(ta) * IntPoly(tb)) == _reference_mul(ta, tb)
            _check_division(ta, tb, rng)
        except Exception as exc:  # every exception is a finding, a failed assert too
            bad.append((case, ta, tb, repr(exc)))
    return bad


def test_mul_div_fuzz_reports_a_wrong_product(monkeypatch):
    import qpoly.field as field

    assert _mul_div_mismatches(19, 40) == []
    rows_mul = field._rows_mul
    monkeypatch.setattr(field, "_rows_mul", lambda a, b: rows_mul(a, b) + [[1]])
    # products with Lambda, and every division's product check
    assert [case for case, *_ in _mul_div_mismatches(19, 40)] == list(range(40))


def test_divexact_recovers_factor_and_rejects_perturbation():
    rng = random.Random(12)
    for ta, tb in _operand_pairs(13, 120):
        _check_division(ta, tb, rng)


def test_divexact_by_monomials():
    rng = random.Random(14)
    for ta, _ in _operand_pairs(15, 60):
        for c in (1, -1, 3, -(2**70)):
            tb = {(rng.randint(0, 5), rng.randint(0, 2)): c}
            _check_division(ta, tb, rng)
        a = IntPoly(ta)
        assert (a * IntPoly.s_pow(1) + IntPoly.one()).divexact(IntPoly.s_pow(1)) is None
        assert (a * 3).divexact(IntPoly.const(3)) == a
        assert (a * 3 + IntPoly.one()).divexact(IntPoly.const(3)) is None


def test_divexact_negative_leading_coefficient():
    rng = random.Random(16)
    for ta, tb in _operand_pairs(17, 60):
        b = IntPoly(tb)
        if b.leading_coeff() > 0:
            tb = {k: -v for k, v in tb.items()}
        assert IntPoly(tb).leading_coeff() < 0
        _check_division(ta, tb, rng)


def test_divexact_edge_cases():
    a = IntPoly({(3, 0): 2**64, (0, 1): -(2**63)})
    with pytest.raises(ZeroDivisionError):
        a.divexact(IntPoly.zero())
    assert IntPoly.zero().divexact(a).is_zero()
    assert a.divexact(a) == IntPoly.one()
    assert a.divexact(-a) == IntPoly.const(-1)
    assert IntPoly.s_pow(2).divexact(IntPoly.s_pow(3)) is None
    assert IntPoly.lam_pow(1).divexact(IntPoly.s_pow(1)) is None
    assert IntPoly.s_pow(1).divexact(IntPoly.lam_pow(1)) is None
    # rows laid end to end can divide when the polynomials do not: s - s Lambda
    # laid out at W = 2 is s - s**3 = s (1 - s) (1 + s), which 1 + s divides
    s, lam, one = IntPoly.s_pow(1), IntPoly.lam_pow(1), IntPoly.one()
    assert (one - lam).divexact(one + s) is None
    assert (s - s * lam).divexact(one + s) is None


def test_divexact_quotient_wider_than_dividend():
    # (s + 1)**100 has 97-bit coefficients, its product with (s - 1)**40 only
    # 77-bit ones: the quotient's coefficients are wider than the dividend's
    q = IntPoly({(1, 0): 1, (0, 0): 1}) ** 100
    b = IntPoly({(1, 0): 1, (0, 0): -1}) ** 40
    lam = IntPoly({(0, 1): 1, (0, 0): -3})
    assert (q * b).divexact(b) == q
    assert (q * b * lam).divexact(b * lam) == q
    assert (q * b + IntPoly.one()).divexact(b) is None


def test_poly_gcd_properties():
    rng = random.Random(18)
    for case in range(60):
        deg_lam = 0 if case % 2 == 0 else 1
        a, b, g = (IntPoly(_random_terms(rng, rng.randint(1, 12), deg_lam, rng.choice([3, 40])))
                   for _ in range(3))
        x, y = a * g, b * g
        h = poly_gcd(x, y)
        assert h.leading_coeff() > 0
        assert h.divexact(g) is not None, case
        assert poly_gcd(x.divexact(h), y.divexact(h)).is_one(), case
        assert poly_gcd(y, x) == h and poly_gcd(x, x) == poly_gcd(-x, x)


def test_poly_gcd_with_a_zero_operand():
    # gcd(0, b) and gcd(b, 0) are b with a positive leading coefficient, with
    # or without Lambda; gcd(0, 0) is 0
    zero = IntPoly.zero()
    for p in (IntPoly({(2, 1): 3, (5, 0): -7, (0, 0): 5}), IntPoly({(3, 0): -2, (1, 0): 4})):
        assert p.leading_coeff() < 0
        for x in (p, -p):
            assert poly_gcd(zero, x) == -p and poly_gcd(x, zero) == -p
    assert poly_gcd(zero, zero).is_zero()


def _check_cofactors(a, b):
    g, a1, b1 = _gcd_cof(a, b)
    assert g == poly_gcd(a, b)
    assert g * a1 == a and g * b1 == b
    assert poly_gcd(a1, b1).is_one()


def test_gcd_cofactors_special_cases():
    s = IntPoly.s_pow(1)
    one, lam = IntPoly.one(), IntPoly.lam_pow(1)
    cases = [
        # powers of s and integer content
        (s**3 * 6 * (s + one), s**5 * 4 * (s + one) ** 2),
        (IntPoly.const(-12), s**2 * 18 + s * 30),
        (s**4, s**7 * -3),
        # rows in s**2, and in s**2 times a power of s
        ((s**2 + one) * (s**4 - one * 3), (s**2 + one) ** 2 * (s**6 + one)),
        (s * (s**2 - one) ** 3, s**3 * (s**2 - one) * (s**4 + one * 2)),
        # equal rows up to sign and content
        (s**2 * 2 - one * 2, -(s**2 * 3 - one * 3)),
        # bivariate and mixed pairs
        ((lam + s) * (lam * s - one), (lam + s) * (lam + one)),
        ((s + one) * (lam * s + lam + s * 3), (s**2 - one) * 2),
        ((s**2 - one) * (lam * s + lam + s * 3), (s + one) * (lam - one)),
        (lam * (s + one) * 6, (s**2 - one) * 4),
        (lam * s + lam * 2, s + one * 2),
        # equal bivariate operands, up to sign
        ((lam + s) * (lam * s - one), (lam + s) * (lam * s - one)),
        ((lam + s) * (lam * s - one), -((lam + s) * (lam * s - one))),
        # a cofactor with larger coefficients than either input: (1 + s + ... + s**9)**4
        # has a 670 where (1 - s**10)**4 has nothing above 6
        ((one - s**10) ** 4, (one - s) ** 4 * (s + one * 3)),
    ]
    for a, b in cases:
        _check_cofactors(a, b)
        _check_cofactors(b, a)
    a, b = cases[-1]
    assert max(abs(c) for _, c in _gcd_cof(a, b)[1].sorted_terms()) == 670


def test_gcd_cofactors_randomized():
    rng = random.Random(20)
    for case in range(80):
        # the common factor g may bring Lambda into s-only pairs: mixed pairs
        deg_lams = ((0, 0, 1), (1, 0, 1), (1, 1, 0))[case % 3]
        a, b, g = (IntPoly(_random_terms(rng, rng.randint(1, 12), d, rng.choice([3, 40])))
                   for d in deg_lams)
        _check_cofactors(a * g, b * g)


# ---------------------------------------------------------------------------
# row kernels: Kronecker digits and the heuristic gcd
# ---------------------------------------------------------------------------

def _row_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_pack_unpack_round_trip_every_width():
    from qpoly.field import _pack, _unpack_rows, _widen

    rng = random.Random(41)
    for nbytes in range(1, 10):
        half = 1 << (8 * nbytes - 1)
        for n in range(1, 41):
            digits = [rng.randint(-half, half - 1) for _ in range(n)]
            # the extreme digits, at either end and inside
            digits[rng.randrange(n)] = -half
            digits[rng.randrange(n)] = half - 1
            digits[0] = rng.choice([-half, half - 1, digits[0]])
            digits[-1] = rng.choice([-half, half - 1, digits[-1]])
            v = _pack(digits, nbytes)
            assert v == sum(d << (8 * nbytes * i) for i, d in enumerate(digits)), (nbytes, n)
            # an all-zero digit list reads as []
            assert _unpack_rows(v, nbytes, n)[0] == (digits if any(digits) else []), (nbytes, n)
            wider = nbytes + 1 + n % 3
            assert _widen(v, nbytes, wider) == _pack(digits, wider), (nbytes, n)


def _primitive_row(rng, length, bits):
    row = [rng.randint(-2**bits, 2**bits) for _ in range(length)]
    row[0] = row[0] or 1
    row[-1] = row[-1] or -1
    g = math.gcd(*row)
    return [x // g for x in row]


def test_heuristic_gcd_cofactors_with_and_without_the_size_bound(monkeypatch):
    import qpoly.field as field

    rng = random.Random(43)
    pairs = []
    for case in range(520):
        bits = rng.choice([1, 2, 4, 12, 40])
        a, b = (_primitive_row(rng, rng.randint(2, 12), bits) for _ in range(2))
        if case % 2:
            g = _primitive_row(rng, rng.randint(2, 12), rng.choice([1, 2, 4]))
            a, b = _row_mul(a, g), _row_mul(b, g)
        pairs.append((a, b))
    # the cofactor (1 + s + s**2)**k of (1 - s**3)**k has coefficients above
    # xi/2, so its digits are wrong and exact division takes it
    for k in range(4, 24):
        pairs.append((functools.reduce(_row_mul, [[1, 0, 0, -1]] * k),
                      functools.reduce(_row_mul, [[1, 0, -1]] * k)))
    # rows below 2**7 with a factor 1 - s (sum of magnitudes 2) whose
    # cofactor, the partial sums, passes xi/2 = 2**7: its wrong digits may all
    # stay below xi/2, and only the bound tells them
    for _ in range(60):
        up = [rng.randint(50, 100) for _ in range(rng.randint(2, 6))]
        down = [-x for x in up]
        rng.shuffle(down)
        pairs.append((up + down, [3, -2, -1]))

    fallbacks = []
    udivexact = field._udivexact

    def counted(x, y):
        fallbacks.append(1)
        return udivexact(x, y)

    monkeypatch.setattr(field, "_udivexact", counted)
    bound_held = 0
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            before = len(fallbacks)
            x, y = _uprimitive(x), _uprimitive(y)
            g, fa, fb = field._ugcd_heu(x, y)
            assert g == _ugcd_prs(x, y)
            assert _row_mul(g, fa) == x and _row_mul(g, fb) == y
            bound_held += g != [1] and len(fallbacks) == before
    assert fallbacks, "no cofactor fell back to exact division"
    assert bound_held, "no cofactor was accepted by the size bound"


def test_coprime_rows_come_back_unchanged(monkeypatch):
    import qpoly.field as field

    def no_spread(c):
        raise AssertionError("cofactors spread for a gcd of 1")

    monkeypatch.setattr(field, "_spread", no_spread)
    cases = [
        ([1, 0, 3, 0, -2], [5, 0, 0, 0, 7, 0, 1]),          # even rows
        ([2, 0, 4, 0, 6], [3, 0, 0, 0, 9]),                 # even, content in each
        ([0, 0, 1, 0, 1], [1, 0, -1, 0, 0, 0, 1]),          # even, a power of s in one
        ([1, 2, 3], [4, 0, 5, 1]),                          # odd rows
        ([0, 6], [1, 0, 0, 1]),                             # one term
    ]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            g, fx, fy = field._ugcd_cof(x, y)
            assert g == [1] and fx is x and fy is y, (x, y)


def test_rational_arithmetic_matches_gcd_divexact_reference():
    def reduced(num, den):
        g = poly_gcd(num, den)
        num, den = num.divexact(g), den.divexact(g)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return num, den

    rng = random.Random(22)
    for _ in range(300):
        x, y = _random_rf(rng), _random_rf(rng)
        if x.is_zero() or y.is_zero():
            continue
        s, p = x + y, x * y
        assert (s.num, s.den) == reduced(x.num * y.den + y.num * x.den, x.den * y.den)
        assert (p.num, p.den) == reduced(x.num * y.num, x.den * y.den)


# ---------------------------------------------------------------------------
# gcd against a primitive PRS reference
# ---------------------------------------------------------------------------

# The reference: primitive pseudo-remainder sequences (Collins 1967), one over
# Z[s] for rows and one in Lambda over Z[s] for the primitive parts.  Slow,
# but no evaluation point enters it.

def _uprimitive(c):
    """The row over its integer content, with positive leading coefficient."""
    g = math.gcd(*c)
    return [x // g for x in c] if c[-1] > 0 else [-x // g for x in c]


def _uprem(a, b):
    """Pseudo-remainder of the row a by the row b over Z[s]."""
    db, lead = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > db:
        top = r.pop()
        g = math.gcd(top, lead)
        r = [x * (lead // g) for x in r]
        for j, y in enumerate(b[:-1], len(r) - db):
            r[j] -= top // g * y
        while r and not r[-1]:
            r.pop()
    return r


def _ugcd_prs(a, b):
    """gcd of nonzero rows without integer content, positive leading coefficient."""
    a, b = _uprimitive(a), _uprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _uprem(a, b)
        a, b = b, _uprimitive(r) if r else []
    return a if not b else [1]


def _row_divexact(a, b):
    """a / b for rows by schoolbook long division over Z with no shortcut, or
    None if b does not divide a: the reference for field's exact division."""
    if len(a) < len(b):
        return None if a else []
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for i in range(len(q) - 1, -1, -1):
        q[i], m = divmod(r[i + len(b) - 1], b[-1])
        if m:
            return None
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    return None if any(r) else q


def _row_quotient(a, b):
    """a / b for rows b that divide a."""
    q = _row_divexact(a, b)
    assert q is not None
    return q


def _row_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def _prs_content_split(rows):
    """(content, primitive part) of rows in Lambda: the content is the gcd of
    the nonzero rows over Z[s], integer content included."""
    cont = None
    for r in filter(None, rows):
        if cont is None:
            cont = r if r[-1] > 0 else [-x for x in r]
        else:
            cont = [math.gcd(math.gcd(*cont), math.gcd(*r)) * x for x in _ugcd_prs(cont, r)]
    return cont, [_row_quotient(r, cont) if r else r for r in rows]


def _prem_lam(a, b):
    """Pseudo-remainder of a by b as polynomials in Lambda over Z[s]."""
    db, lead = len(b) - 1, b[-1]
    r = a
    while len(r) > db:
        top = [-x for x in r[-1]]
        shift = len(r) - 1 - db
        r = [_row_add(_row_mul(lead, x), _row_mul(top, b[j - shift]) if j >= shift else [])
             for j, x in enumerate(r)]
        while r and not r[-1]:
            r.pop()
    return r


def _prs_gcd(a, b):
    """gcd of nonzero IntPolys by primitive PRS at both levels, positive
    leading coefficient: the reference for _gcd_cof."""
    (ca, pa), (cb, pb) = _prs_content_split(a._rows), _prs_content_split(b._rows)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while len(pb) > 1:
        r = _prem_lam(pa, pb)
        pa, pb = pb, _prs_content_split(r)[1] if r else []
    g = pa if not pb else [[1]]
    c = [math.gcd(math.gcd(*ca), math.gcd(*cb)) * x for x in _ugcd_prs(ca, cb)]
    g = IntPoly({(i, j): x for j, r in enumerate(g) for i, x in enumerate(_row_mul(c, r)) if x})
    return -g if g.leading_coeff() < 0 else g


def _check_against_prs(a, b):
    g = _prs_gcd(a, b)
    assert _gcd_cof(a, b) == (g, a.divexact(g), b.divexact(g)), (a, b)


def _row_cases(seed, count):
    rng = random.Random(seed)
    return [tuple(IntPoly(_random_terms(rng, rng.randint(2, 10), 0, 20)) for _ in range(3))
            for _ in range(count)]


def test_gcd_cofactors_prs_fallback():
    # cofactors of s-only pairs with a common factor, the same as the PRS gives
    for a, b, g in _row_cases(21, 20):
        _check_cofactors(a * g, b * g)
        _check_against_prs(a * g, b * g)
        _check_against_prs(b * g, a * g)


def test_gcd_prs_fallback_agrees_with_heuristic():
    # the row PRS reference and poly_gcd agree on the primitive part
    def row(p):
        out = [0] * (p.deg_s() + 1)
        for (a, _), c in p.sorted_terms():
            out[a] = c
        return out

    for a, b, g in _row_cases(19, 40):
        h = poly_gcd(a * g, b * g)
        assert _ugcd_prs(row(a * g), row(b * g)) == row(h.divexact(IntPoly.const(h.content())))
        _check_against_prs(a * g, b * g)
        _check_against_prs(b * g, a * g)


def test_row_gcd_matches_prs_reference():
    s, one = IntPoly.s_pow(1), IntPoly.one()
    # the cofactor (1 + s + s**2)**k has coefficients above xi/2
    for k in range(4, 30):
        _check_against_prs((one - s**3) ** k, (one - s**2) ** k)


def _row_block(rng):
    """An integer times a power of s times factors 1 - s**k, the shape of
    every denominator."""
    g = [0] * rng.randint(0, 2) + [rng.choice([1, 2, 3, 6])]
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, 4)
        g = _row_mul(g, [1] + [0] * (k - 1) + [-1])
    return g


def test_rows_gcd_cof_divides_first_and_keeps_cofactors(monkeypatch):
    import qpoly.field as field
    from qpoly.field import _raw_poly, _rows_gcd_cof

    gcds = []
    ugcd_cof = field._ugcd_cof
    monkeypatch.setattr(field, "_ugcd_cof", lambda a, b: gcds.append(1) or ugcd_cof(a, b))
    rng = random.Random(47)
    for case in range(200):
        # the first two rows share more than the common block, so a later
        # row shrinks the gcd; zero rows sit anywhere, leading rows may be
        # negative and some cases are coprime
        common = _row_block(rng) if case % 4 else [1]
        extra = _primitive_row(rng, rng.randint(1, 3), 2)
        rows = []
        for i in range(rng.randint(2, 6)):
            if rng.random() < 0.3:
                rows.append([])
            r = _row_mul(common, _primitive_row(rng, rng.randint(1, 4), 3))
            r = _row_mul(r, extra) if i < 2 else r
            rows.append([-x for x in r] if rng.random() < 0.5 else r)
        g, cofactors = _rows_gcd_cof(rows)
        nonzero = [_raw_poly([r]) for r in rows if r]
        assert _raw_poly([g]) == functools.reduce(poly_gcd, nonzero), case
        assert len(cofactors) == len(rows)
        for r, c in zip(rows, cofactors):
            assert (_row_mul(g, c) if c else c) == r, case
        assert functools.reduce(poly_gcd, [_raw_poly([c]) for c in cofactors if c]) == 1, case
        if g == [1]:
            assert cofactors is rows, case
    # a gcd found on the first pair divides every later row: one gcd
    block = [0, 2, 0, -2, 0, 2]
    rows = [_row_mul(block, r) if r else r for r in ([1, 1], [1, 2], [], [-3, 0, 1], [5])]
    gcds.clear()
    g, cofactors = _rows_gcd_cof(rows)
    assert (g, cofactors, len(gcds)) == (block, [[1, 1], [1, 2], [], [-3, 0, 1], [5]], 1)
    # a negative leading first row, and a row that takes the gcd to 1
    rows = [[-1, 0, -1], [], [1, 0, 1], [2, 3]]
    assert _rows_gcd_cof(rows)[1] is rows
    assert _rows_gcd_cof([[], [-4, 0, -4], [2, 0, 2]]) == ([2, 0, 2], [[], [-2], [1]])


def test_rows_gcd_cof_stops_at_a_gcd_of_one(monkeypatch):
    # the second row is coprime to the first: once the gcd reaches 1 the fold
    # returns the rows themselves and rescales no cofactor taken so far
    import qpoly.field as field

    reached, late = [], []
    ugcd_cof, umul = field._ugcd_cof, field._umul

    def gcd(a, b):
        out = ugcd_cof(a, b)
        reached.append(out[0] == [1])
        return out

    def product(a, b):
        if any(reached):
            late.append((a, b))
        return umul(a, b)

    monkeypatch.setattr(field, "_ugcd_cof", gcd)
    monkeypatch.setattr(field, "_umul", product)
    rows = [[1, 1, 2], [1, 2], [3, 0, 1]]
    g, cofactors = field._rows_gcd_cof(rows)
    assert (g, reached, late) == ([1], [True], [])
    assert cofactors is rows


def _per_row_fold(rows):
    """The row-gcd fold by the PRS gcd and test-local schoolbook division:
    the reference for _rows_gcd_cof, sharing no division or gcd code with
    field."""
    g, cof = None, []
    for r in rows:
        if not r:
            f = r
        elif g is None:
            g = r if r[-1] > 0 else [-x for x in r]
            f = [1 if g is r else -1]
        elif (f := _row_divexact(r, g)) is None:
            new = [math.gcd(math.gcd(*g), math.gcd(*r)) * x for x in _ugcd_prs(g, r)]
            cof = [_row_mul(c, _row_quotient(g, new)) if c else c for c in cof]
            g, f = new, _row_quotient(r, new)
        if g == [1]:
            return g, rows
        cof.append(f)
    return g, cof


def _random_row_set(rng):
    """Rows as the fold sees them: a first row, then rows that mostly share
    a factor with it, so that a gcd finds the factor and the rows left are
    divided by it, some of them divisible by all of the first row and some
    by neither; cofactors short, or long enough for packed division; zero
    rows anywhere, leading coefficients of either sign, coefficients of 1 to
    60 bits, some rows in s**2."""
    bits, longest = rng.choice([1, 3, 8, 20, 60]), rng.choice([4, 16])
    common = _row_block(rng) if rng.random() < 0.5 else _primitive_row(rng, rng.randint(1, 9), bits)
    first = _row_mul(common, _primitive_row(rng, rng.randint(1, 3), rng.choice([1, bits])))
    rows = [first]
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([])
            continue
        factor = common if kind < 0.8 else first if kind < 0.9 else [1]
        r = _row_mul(factor, _primitive_row(rng, rng.randint(1, longest), rng.choice([1, 3, bits])))
        rows.append([-x for x in r] if rng.random() < 0.5 else r)
    if rng.random() < 0.3:
        rows = [[x for c in r for x in (c, 0)][:-1] if r else r for r in rows]
    return rows


def _fold_mismatches(seed, count):
    """The row sets of _random_row_set(random.Random(seed)), count of them,
    on which _rows_gcd_cof raises or differs from _per_row_fold."""
    from qpoly.field import _rows_gcd_cof

    rng, bad = random.Random(seed), []
    for case in range(count):
        rows = _random_row_set(rng)
        try:
            ok = _rows_gcd_cof(rows) == _per_row_fold(rows)
        except Exception as exc:  # every exception is a finding
            ok = repr(exc)
        if ok is not True:
            bad.append((case, rows, ok))
    return bad


def _division_work(read):
    """(packed tries, certified quotients, fallbacks) of field._udivexact
    over read().  A try packs both rows and divides once; a zero remainder
    is read back by _digits, and the quotient is certified when _udivexact
    returns those digits, a fallback when the schoolbook loop decides.  The
    other tries had a remainder."""
    import qpoly.field as field

    packs, certified, reads, depth, last = [0], [0], [0], [0], [None]
    udivexact, pack, digits = field._udivexact, field._pack, field._digits

    def counted_pack(c, nbytes):
        packs[0] += depth[0] > 0
        return pack(c, nbytes)

    def counted_digits(v, nbytes):
        out = digits(v, nbytes)
        if depth[0]:
            reads[0] += 1
            last[0] = out
        return out

    def counted_udivexact(a, b):
        depth[0] += 1
        try:
            q = udivexact(a, b)
        finally:
            depth[0] -= 1
        # a recursive call returns the digits themselves, its caller a copy
        certified[0] += q is not None and q is last[0]
        last[0] = None
        return q

    field._udivexact, field._pack, field._digits = counted_udivexact, counted_pack, counted_digits
    try:
        read()
    finally:
        field._udivexact, field._pack, field._digits = udivexact, pack, digits
    return packs[0] // 2, certified[0], reads[0] - certified[0]


def _division(a, b):
    """(_udivexact(a, b), its _division_work), checked against _row_divexact."""
    import qpoly.field as field

    out = []
    work = _division_work(lambda: out.append(field._udivexact(a, b)))
    assert out[0] == _row_divexact(a, b), (a, b)
    return out[0], work


def _boxes(stride, *lengths):
    """The product of the rows 1 + s**stride + ... + s**(stride*(k-1)), k in lengths."""
    return functools.reduce(_row_mul, [[0 if i % stride else 1 for i in range(stride * (k - 1) + 1)]
                                       for k in lengths])


def test_exact_division_cases():
    # b = (1 - s**3)**3 has sum|b| = 8 and a negative leading coefficient; the
    # quotients below are three boxes in s**3, the largest coefficient the
    # product of the two shorter lengths.  n = 760 and coefficients of a and b
    # up to 3 give two-byte digits, xi/2 = 2**15: 8 * 4095 is below it and
    # certified, 8 * 4096 is at it, so the right digits fall back to the
    # schoolbook loop
    b = functools.reduce(_row_mul, [[1, 0, 0, -1]] * 3)
    for lengths, work in (((63, 65, 128), (1, 1, 0)), ((64, 64, 128), (1, 0, 1))):
        q = _boxes(3, *lengths)
        a = _row_mul(b, q)
        assert (len(q), max(map(abs, a + b)), sum(map(abs, b)) * max(q)) == (
            760, 3, 8 * lengths[0] * lengths[1])
        assert _division(a, b) == (q, work)
    # (1 - s**8)**6 / (1 - s)**6: the quotient's digits are right at two
    # bytes (largest coefficient 18 152) but 64 * 18 152 passes xi/2; over (1 -
    # s**12)**6 the largest coefficient, 137 292, passes xi/2 itself, so the digits are
    # wrong: both fall back, and the schoolbook loop gives the quotient
    b = functools.reduce(_row_mul, [[1, -1]] * 6)
    for k, top in ((8, 18152), (12, 137292)):
        q = _boxes(1, *[k] * 6)
        assert max(q) == top
        a = _row_mul(b, q)
        assert _division(a, b) == (q, (1, 0, 1))
    # packed, certified, with either sign of leading coefficient, in s**2
    # (divided at half length) and after a common power of s
    b, q = [3, 1, 4, 1, 5, 9, 2], [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5]
    for x, y in ((b, q), ([-c for c in b], q), (b, [-c for c in q]), ([-c for c in b], [-c for c in q])):
        assert _division(_row_mul(x, y), x) == (y, (1, 1, 0))
    spread = [[c for x in r for c in (x, 0)][:-1] for r in (b, q)]
    assert _division(_row_mul(*spread), spread[0]) == (spread[1], (1, 1, 0))
    assert _division([0] * 5 + _row_mul(b, q), [0, 0] + b) == ([0] * 3 + q, (1, 1, 0))
    # a dividend off by s**5 leaves a remainder: None, with no digits read
    a = _row_mul(b, q)
    a[5] += 1
    assert _division(a, b) == (None, (1, 0, 0))
    # below the cutoff, schoolbook alone
    assert _division(_row_mul(b, q[:4]), b) == (q[:4], (0, 0, 0))


def test_sparse_bivariate_division_wider_than_the_cap_is_schoolbook():
    # sparse Lambda rows laid end to end at W = 11 (lengths 44 and 16 pass
    # the length rule, 18 and 4 nonzero) with 39-byte digits: the schoolbook
    # loop takes it, where packed division would cost about n * len(b) *
    # nbytes**2
    import qpoly.field as field

    big = 2**150 + 1
    b = IntPoly({(0, 0): big, (3, 0): -7, (1, 1): 5, (4, 1): big - 2})
    q = IntPoly({(0, 0): 3, (5, 0): -big, (2, 1): 11, (0, 2): big, (6, 2): 1})
    a, out = b * q, []
    width = max(map(len, a._rows))
    rows_a, rows_b = (field._flatten(p._rows, width) for p in (a, b))
    n = len(rows_a) - len(rows_b) + 1
    assert n * len(rows_b) > field._PACK_MUL_CUTOFF * (n + len(rows_b))
    assert field._width(max(map(abs, rows_a + rows_b)).bit_length() + n.bit_length()) == 39
    assert _division_work(lambda: out.append(a.divexact(b))) == (0, 0, 0)
    assert out == [q]


def test_dense_division_at_the_cap_packs_and_certifies():
    # b * q with sum|b| = 31 and |q_j| about 2**k, n = 20: k = 112 gives
    # digits of exactly the cap, packed and certified; k = 120 one byte more,
    # divided by schoolbook
    import qpoly.field as field

    b = [3, 1, 4, 1, 5, 9, 2, 6]
    for k, nbytes, work in ((112, field._PACK_DIV_BYTES, (1, 1, 0)), (120, field._PACK_DIV_BYTES + 1, (0, 0, 0))):
        q = [2**k + j for j in range(20)]
        a = _row_mul(b, q)
        assert field._width(max(map(abs, a)).bit_length() + len(q).bit_length()) == nbytes
        assert _division(a, b) == (q, work)


def _division_pair(rng):
    """Rows (a, b) as exact division sees them: b times a quotient q on
    either side of the packing cutoff, a perturbed in one coefficient or
    not; some quotients wider than the operands (boxes in s**m over powers
    of 1 - s**m), some rows in s**2, some with a power of s, leading
    coefficients of either sign, coefficients of 1 to 60 bits."""
    if rng.random() < 0.25:
        m, lengths = rng.randint(1, 3), [rng.randint(2, 12) for _ in range(rng.randint(2, 6))]
        b = functools.reduce(_row_mul, [[1] + [0] * (m - 1) + [-1]] * len(lengths))
        q = _boxes(m, *lengths)
    else:
        bits = rng.choice([1, 3, 8, 20, 60])
        b = _primitive_row(rng, rng.randint(1, 30), bits)
        q = _primitive_row(rng, rng.randint(1, 40), rng.choice([1, 3, bits]))
    b, q = ([-x for x in r] if rng.random() < 0.5 else r for r in (b, q))
    a = _row_mul(b, q)
    if rng.random() < 0.3:
        a, b = ([x for c in r for x in (c, 0)][:-1] for r in (a, b))
    if rng.random() < 0.2:
        a, b = [0] * rng.randint(0, 3) + a, [0] * rng.randint(0, 3) + b
    if rng.random() < 0.4:
        i = rng.randrange(len(a) + 1)
        a = a + [0] * (i + 1 - len(a))
        a[i] += rng.choice([-1, 1])
        while a and not a[-1]:
            a.pop()
    return a, b


def _division_mismatches(seed, count):
    """The pairs of _division_pair(random.Random(seed)), count of them, on
    which field._udivexact raises or differs from _row_divexact."""
    import qpoly.field as field

    rng, bad = random.Random(seed), []
    for case in range(count):
        a, b = _division_pair(rng)
        try:
            ok = field._udivexact(a, b) == _row_divexact(a, b)
        except Exception as exc:  # every exception is a finding
            ok = repr(exc)
        if ok is not True:
            bad.append((case, a, b, ok))
    return bad


def test_exact_division_matches_schoolbook():
    bad = []
    tries, certified, fallbacks = _division_work(lambda: bad.extend(_division_mismatches(59, 3000)))
    assert bad == []
    # every outcome of a packed try is exercised
    assert certified > 300 and fallbacks > 20 and tries - certified - fallbacks > 300, (tries, certified, fallbacks)


def test_rows_gcd_cof_matches_the_prs_fold():
    bad = []
    tries, certified, fallbacks = _division_work(lambda: bad.extend(_fold_mismatches(53, 2000)))
    assert bad == []
    assert certified > 200, (tries, certified, fallbacks)


def _bivariate_pairs(seed, count):
    """Pairs a * g, b * g with a and b of Lambda-degree 1 to 3 and a common
    factor g of Lambda-degree 0 to 3, dense or sparse, small coefficients."""
    rng = random.Random(seed)

    def poly(deg_lam, deg_s, bits):
        fill = rng.choice([1.0, 0.6, 0.3])
        terms = {(i, j): rng.randint(-2**bits, 2**bits)
                 for i in range(deg_s + 1) for j in range(deg_lam + 1) if rng.random() < fill}
        return IntPoly(terms) or IntPoly.lam_pow(deg_lam)

    for case in range(count):
        bits = rng.choice([1, 3, 12])
        a, b = (poly(rng.randint(1, 3), rng.randint(0, 4), bits) for _ in range(2))
        g = poly(case % 4, rng.randint(0, 3), rng.choice([1, 3]))
        yield a * g, b * g


def test_lambda_gcd_matches_prs_reference():
    rng = random.Random(23)
    for case in range(60):
        # coprime pairs, and pairs sharing a factor of Lambda-degree 0, 1 or 2
        da, db, dg = rng.randint(1, 3), rng.randint(1, 3), case % 4 - 1
        a, b = (IntPoly(_random_terms(rng, rng.randint(2, 8), d, rng.choice([3, 40])))
                for d in (da, db))
        g = IntPoly(_random_terms(rng, 4, dg, 5)) if dg >= 0 else IntPoly.one()
        _check_against_prs(a * g, b * g)
    lambda_level = 0
    for a, b in _bivariate_pairs(24, 1000):
        _check_against_prs(a, b)
        lambda_level += a.has_lam() and b.has_lam()
    assert lambda_level >= 600


def test_lambda_gcd_pairs_with_unlucky_images():
    # pairs that a test at s = 1000003 over GF(2**61 - 1) got wrong: equal
    # there but coprime, and with leading rows that vanish there
    s, lam, one = IntPoly.s_pow(1), IntPoly.lam_pow(1), IntPoly.one()
    point = IntPoly.const(1000003)
    a, b = (lam - s) * (lam + s), lam - point
    _check_against_prs(a, b)
    assert poly_gcd(a, b).is_one()
    common = (s - point) * lam + one
    a, b = common * (lam + s), common * (lam + IntPoly.const(2))
    _check_against_prs(a, b)
    assert poly_gcd(a, b) in (common, -common)
    # coprime, but at Lambda = s**W both vanish at s = -1 for every W, so a
    # gcd read from rows laid end to end would share 1 + s
    a, b = lam * lam + s, lam * lam + s * 2 + one
    _check_against_prs(a, b)
    assert poly_gcd(a, b).is_one()


def test_gcd_widens_xi_until_a_candidate_divides(monkeypatch):
    # 1 + 5 x and 5 + 4 x + 6 x**2 + 7 x**3 + 5 x**4 are coprime, but at the
    # first xi = 2**8 their values share a factor whose digits divide neither
    import qpoly.field as field

    packed, evaluated = [], []
    pack, lam_eval = field._pack, field._lam_eval
    monkeypatch.setattr(field, "_pack", lambda c, n: packed.append(n) or pack(c, n))
    monkeypatch.setattr(field, "_lam_eval", lambda r, n: evaluated.append(n) or lam_eval(r, n))
    a, b = [1, 5], [5, 4, 6, 7, 5]
    assert field._ugcd_heu(a, b) == ([1], a, b)
    assert packed == [1, 1, 2, 2]  # two values at each of two points
    # the same rows as polynomials in Lambda, times a common factor
    lam = IntPoly.lam_pow(1)
    x, y = (sum((lam**j * c for j, c in enumerate(r)), IntPoly.zero()) for r in (a, b))
    common = IntPoly.s_pow(1) * lam + IntPoly.const(2)
    assert _gcd_cof(x * common, y * common) == (common, x, y)
    assert evaluated == [1, 1, 2, 2]


def test_lambda_gcd_divides_each_operand_once(monkeypatch):
    # the quotients that accept the candidate are the cofactors
    import qpoly.field as field

    divisions = []
    divexact = field._rows_divexact
    monkeypatch.setattr(field, "_rows_divexact", lambda a, b: divisions.append(b) or divexact(a, b))
    common = parse_rational("q^{1/2}*lam + 2").num
    x, y = parse_rational("lam^2 + q^{1/2}").num, parse_rational("lam + q + 3").num
    assert _gcd_cof(common * x, common * y) == (common, x, y)
    assert len(divisions) == 2
    # with integer contents, and a candidate whose leading coefficient is negative
    common = parse_rational("lam - q^{1/2}").num
    a, b = common * x * 6, -(common * y * 4)
    assert _gcd_cof(a, b) == (-common * 2, -x * 3, y * 2)
    _check_against_prs(a, b)


def test_lambda_gap_gcd_recovers_common_factor():
    # a Lambda-degree gap of 30 between the operands
    rng = random.Random(30)
    common = parse_rational("q^{1/2}*lam + 2").num
    u = IntPoly({(i, j): rng.randint(-9, 9) for i in range(3) for j in range(31)})
    v = IntPoly({(i, j): rng.randint(-9, 9) for i in range(3) for j in range(2)})
    assert u.deg_lam() == 30 and v.deg_lam() == 1
    assert poly_gcd(common * u, common * v) == common
    _check_against_prs(common * u, common * v)


def test_parse_rational_high_lambda_degree_evaluates_once(monkeypatch):
    # a random edit of a printed fraction can make a Lambda exponent 88: the
    # coprime operands are settled at the first xi, one value of each
    import qpoly.field as field

    evaluated = []
    lam_eval = field._lam_eval
    monkeypatch.setattr(field, "_lam_eval", lambda r, n: evaluated.append(n) or lam_eval(r, n))
    text = ("(-5*q^{3/2}*lam^{88} + 123456789012*q^{17/2}*lam - 7)"
            "/(q^{20} + 1099511627773*q^{9/2}*lam^{2} - 3*q^{2}*lam^{2} - 11*q*lam - 5)")
    f = parse_rational(text)
    assert str(f) == text
    assert f.num.deg_lam() == 88 and f.den.deg_lam() == 2
    assert len(evaluated) == 2 and len(set(evaluated)) == 1


# ---------------------------------------------------------------------------
# batched sum: RationalFunction.sum against a sequential + fold
# ---------------------------------------------------------------------------

def _fold(terms):
    total = RF.zero()
    for t in terms:
        total = total + t
    return total


def _cyclotomic_den(rng):
    """A product of factors 1 - q**k and 1 + q**k, the denominators the
    engines produce."""
    den = ONE
    for _ in range(rng.randint(0, 3)):
        den = den * (ONE + rng.choice([-1, 1]) * Q ** rng.randint(1, 4))
    return den


def _sum_terms(rng, count):
    shared = [_cyclotomic_den(rng) for _ in range(3)]
    terms = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            terms.append(rng.randint(-3, 3))
        elif kind < 0.2:
            terms.append(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
        elif kind < 0.6:
            terms.append(_random_rf(rng) / rng.choice(shared))
        else:
            terms.append(_random_rf(rng) / _cyclotomic_den(rng))
    return terms


def test_sum_matches_sequential_fold_randomized():
    # shared and distinct denominators, Lambda on both sides, ints, Fractions
    rng = random.Random(31)
    for case in range(200):
        terms = _sum_terms(rng, rng.randint(0, 12))
        total, ref = RF.sum(terms), _fold(terms)
        assert (total.num, total.den) == (ref.num, ref.den), f"case {case}"


def test_sum_edge_cases():
    f = (ONE + LAM) / (ONE - Q)
    g = (Q - LAM**2) / ((ONE + Q) * (ONE - Q**3))
    h = LAM / (ONE + Q**2)
    empty = RF.sum([])
    assert (empty.num, empty.den) == (IntPoly.zero(), IntPoly.one())
    assert RF.sum([f]) is f
    assert RF.sum([3]) == 3
    assert RF.sum([f, Fraction(1, 2)]) == f + Fraction(1, 2)
    assert RF.sum([f, g]) == f + g
    assert RF.sum(iter([f, f, f])) == f * 3
    assert RF.sum([f, g, h, 0, 2]) == f + g + h + 2
    with pytest.raises(TypeError):
        RF.sum([f, g, 1.5])


def test_sum_that_cancels_is_canonical_zero():
    f = (ONE + LAM) / (ONE - Q)
    g = (Q - LAM**2) / ((ONE + Q) * (ONE - Q**3))
    h = LAM / (ONE + Q**2)
    for terms in ([f, g, h, -g, -f, -h], [f, -f, 3, Fraction(-3)], [f, g, -f - g]):
        total = RF.sum(terms)
        assert (total.num, total.den) == (IntPoly.zero(), IntPoly.one())


def test_sum_reduces_a_common_factor():
    # the terms share the factor 1 + q with no single denominator
    a = ONE / (ONE - Q)
    b = ONE / (ONE + Q)
    c = ONE / ((ONE - Q) * (ONE + Q**2))
    terms = [a, b, c, -c]
    total = RF.sum(terms)
    assert total == a + b == RF(IntPoly.const(2), IntPoly({(0, 0): 1, (4, 0): -1}))
    assert (total.num, total.den) == (_fold(terms).num, _fold(terms).den)


# ---------------------------------------------------------------------------
# products by rational constants: integer gcds only
# ---------------------------------------------------------------------------

def _two_gcd_mul(x, y):
    """The general product a/b * c/d, reduced by gcd(a, d) and gcd(c, b)."""
    from qpoly.field import _rf_raw
    x, y = RF.zero() + x, RF.zero() + y
    if x.is_zero() or y.is_zero():
        return RF.zero()
    _, a, d = _gcd_cof(x.num, y.den)
    _, c, b = _gcd_cof(y.num, x.den)
    return _rf_raw(a * c, b * d)


def _rf_with_content(rng):
    num = _random_poly(rng) * rng.choice([1, 2, -6, 15])
    den = _random_poly(rng) * rng.choice([1, 3, 10])
    while den.is_zero():
        den = _random_poly(rng)
    f = RF(num, den)
    if rng.random() < 0.3:
        f = f * RF.s_power(-rng.randint(1, 5))  # Laurent denominator
    return f


def _random_constant(rng):
    p, q = rng.randint(-30, 30), rng.randint(1, 30)
    return rng.choice([p, Fraction(p, q), RF.from_fraction(Fraction(p, q)),
                       RF(IntPoly.const(p), IntPoly.const(q)), 0, -1])


def test_mul_by_constant_matches_two_gcd_product(monkeypatch):
    import qpoly.field as field

    rng = random.Random(4242)
    cases = [(_rf_with_content(rng), _random_constant(rng)) for _ in range(400)]
    cases += [(RF.zero(), 3), (LAM * 6 / (Q * 4 + 2), Fraction(-2, 3)), (Q / 6, RF.from_int(-4))]
    assert any(x.has_lam() for x, _ in cases)
    products = [_two_gcd_mul(x, c) for x, c in cases]
    quotients = [_two_gcd_mul(x, 1 / Fraction(c.as_fraction() if isinstance(c, RF) else c))
                 if c else None for x, c in cases]

    def no_gcd(a, b):
        raise AssertionError("a product by a constant ran a polynomial gcd")

    monkeypatch.setattr(field, "_gcd_cof", no_gcd)
    for case, ((x, c), product, quotient) in enumerate(zip(cases, products, quotients)):
        for got in (x * c, c * x):
            assert (got.num, got.den) == (product.num, product.den), f"case {case}"
        if quotient is not None:
            got = x / c
            assert (got.num, got.den) == (quotient.num, quotient.den), f"case {case}"
