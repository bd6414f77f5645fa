"""Truncated series ring: arithmetic, exp/log, integer powers."""

import random
from fractions import Fraction

import pytest

from qpoly.field import RationalFunction as RF
from qpoly.series import (
    ConstantTermNotOne,
    FRACTION_RING,
    NonInvertibleConstant,
    NonzeroConstantTerm,
    OrderExceeded,
    OrderMismatch,
    Ring,
    TruncatedSeries,
    ring_dot,
    ring_sum,
)
from qpoly.connection import BetaPolynomial, CPolynomial
from qpoly.families import (
    COSPOLY_RING,
    ZPOLY_RING,
    CosPolynomial,
    ZPolynomial,
    gegenbauer_classical,
)

RF_RING = Ring(RF.zero(), RF.one())


def frac_series(coeffs, order=None):
    return TruncatedSeries(FRACTION_RING, [Fraction(c) for c in coeffs], order)


def test_mul_difference_of_squares():
    one_plus = frac_series([1, 1], 3)
    one_minus = frac_series([1, -1], 3)
    assert one_plus * one_minus == frac_series([1, 0, -1, 0], 3)


def test_mul_geometric_inverse():
    geometric = frac_series([1] * 6, 5)
    assert geometric * frac_series([1, -1], 5) == TruncatedSeries.one(FRACTION_RING, 5)


def test_mul_truncation():
    t = frac_series([0, 1], 1)
    assert (t * t).is_zero()


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        frac_series([1], 3) + frac_series([1], 4)


def test_exp_of_t():
    t = frac_series([0, 1], 3)
    assert t.exp() == frac_series([1, 1, Fraction(1, 2), Fraction(1, 6)], 3)


def test_exp_log_inverse_pair():
    one_plus_t = frac_series([1, 1], 6)
    assert one_plus_t.log().exp() == one_plus_t


def test_exp_rejects_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        frac_series([1, 1], 3).exp()


def test_hermite_generating_coefficient():
    # t^5 coefficient of exp(2zt - t^2) is (32 z^5 - 160 z^3 + 120 z)/120
    arg = (TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial({1: RF.from_int(2)}), 1, 5)
           + TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial.constant(-1), 2, 5))
    coeff = arg.exp().coeff(5)
    expected = ZPolynomial({5: Fraction(32, 120), 3: Fraction(-160, 120), 1: Fraction(120, 120)})
    assert coeff == expected


def test_log_of_one_plus_t():
    one_plus_t = frac_series([1, 1], 3)
    assert one_plus_t.log() == frac_series([0, 1, Fraction(-1, 2), Fraction(1, 3)], 3)


def test_log_of_one():
    assert TruncatedSeries.one(FRACTION_RING, 4).log().is_zero()


def test_log_rejects_wrong_constant():
    with pytest.raises(ConstantTermNotOne):
        frac_series([2, 1], 3).log()


def test_log_of_classical_gegenbauer_series():
    # log( sum_n U_n(cos theta) t^n ) = sum_k 2 cos(k theta) t^k / k
    from qpoly.families import COSPOLY_RING, CosPolynomial
    order = 8
    series = TruncatedSeries(COSPOLY_RING, [gegenbauer_classical(n) for n in range(order + 1)], order)
    logs = series.log()
    for k in range(1, order + 1):
        assert logs.coeff(k) == CosPolynomial({k: Fraction(2, k)})


def test_int_pow_negative_binomial():
    one_plus_t = frac_series([1, 1], 3)
    assert one_plus_t.int_pow(-2) == frac_series([1, -2, 3, -4], 3)


def test_int_pow_zero_and_cube():
    one_plus_t = frac_series([1, 1], 3)
    assert one_plus_t.int_pow(0) == TruncatedSeries.one(FRACTION_RING, 3)
    assert one_plus_t.int_pow(3) == frac_series([1, 3, 3, 1], 3)


def test_int_pow_noninvertible():
    t = frac_series([0, 1], 3)
    with pytest.raises(NonInvertibleConstant):
        t.int_pow(-1)


def test_coeff_access():
    t = frac_series([0, 1], 4)
    assert t.exp().coeff(2) == Fraction(1, 2)
    assert frac_series([1, 1], 6).coeff(5) == 0
    with pytest.raises(OrderExceeded):
        t.coeff(5)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

def _random_frac_series(rng, order, constant=0):
    coeffs = [Fraction(constant)] + [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
    ]
    return TruncatedSeries(FRACTION_RING, coeffs, order)


def test_exp_log_inverse_randomized():
    rng = random.Random(11)
    for order in (4, 9, 16):
        for _ in range(20):
            a = _random_frac_series(rng, order, constant=0)
            assert a.exp().log() == a
            b = _random_frac_series(rng, order, constant=1)
            assert b.log().exp() == b


def test_exp_homomorphism_randomized():
    rng = random.Random(12)
    for _ in range(20):
        a = _random_frac_series(rng, 12, constant=0)
        b = _random_frac_series(rng, 12, constant=0)
        assert (a + b).exp() == a.exp() * b.exp()


def test_int_pow_additivity_randomized():
    rng = random.Random(13)
    for _ in range(15):
        a = _random_frac_series(rng, 8, constant=1)
        e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
        assert a.int_pow(e1 + e2) == a.int_pow(e1) * a.int_pow(e2)


def _random_rf_series(rng, order):
    q = RF.q()
    coeffs = []
    for _ in range(order + 1):
        num = rng.randint(-3, 3)
        den_exp = rng.randint(0, 2)
        coeffs.append((q ** rng.randint(0, 2)) * num / (RF.one() + q) ** den_exp)
    return TruncatedSeries(RF_RING, coeffs, order)


def test_mul_associative_commutative_randomized():
    rng = random.Random(14)
    for _ in range(10):
        a = _random_rf_series(rng, 6)
        b = _random_rf_series(rng, 6)
        c = _random_rf_series(rng, 6)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# one-pass sums of products against the per-term recurrences
# ---------------------------------------------------------------------------

def _per_term_mul(x, y):
    """The product as it was formed before ring_dot: each coefficient the
    ring_sum of the finished products a_i * b_j."""
    z, n = x.ring.zero, x.order
    cols = [[] for _ in range(n + 1)]
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs[:n + 1 - i]):
            if a != z and b != z:
                cols[i + j].append(a * b)
    return TruncatedSeries(x.ring, [ring_sum(c, z) for c in cols], n)


def _per_term_exp(x):
    """n*b_n = sum_j j*a_j*b_{n-j}, with j applied to every product."""
    z, a, b = x.ring.zero, x.coeffs, [x.ring.one]
    for n in range(1, x.order + 1):
        terms = [(a[j] * b[n - j]) * j for j in range(1, n + 1) if a[j] != z and b[n - j] != z]
        b.append(ring_sum(terms, z) * Fraction(1, n))
    return TruncatedSeries(x.ring, b, x.order)


def _per_term_log(x):
    """n*c_n = n*a_n - sum_{j<n} j*c_j*a_{n-j}, with j applied to every product."""
    z, a, c = x.ring.zero, x.coeffs, [x.ring.zero]
    for n in range(1, x.order + 1):
        terms = [a[n] * n] + [(c[j] * a[n - j]) * -j
                              for j in range(1, n) if c[j] != z and a[n - j] != z]
        c.append(ring_sum(terms, z) * Fraction(1, n))
    return TruncatedSeries(x.ring, c, x.order)


def _random_rf_coeff(rng):
    q, lam = RF.q(), RF.lam()
    num = rng.randint(-3, 3) * q ** rng.randint(0, 2) + rng.randint(-2, 2) * lam
    return num / (RF.one() + q ** rng.randint(1, 3)) ** rng.randint(0, 1)


def _random_beta(rng):
    b = [BetaPolynomial.gen(k) for k in (1, 2, 3)]
    return rng.choice(b) * rng.randint(-2, 2) + rng.choice(b) * rng.choice(b) * Fraction(1, 3)


_RINGS = (
    (ZPOLY_RING, lambda rng: ZPolynomial({k: _random_rf_coeff(rng) for k in range(rng.randint(0, 3))})),
    (COSPOLY_RING, lambda rng: CosPolynomial({m: _random_rf_coeff(rng) for m in range(rng.randint(0, 3))})),
    (Ring(CPolynomial.zero(), CPolynomial.constant(BetaPolynomial.one())),
     lambda rng: CPolynomial.sum([CPolynomial({((m, 1),): _random_beta(rng)})
                                  for m in range(1, rng.randint(1, 3))])),
)


@pytest.mark.parametrize("ring_index", range(len(_RINGS)))
def test_dot_products_match_per_term_recurrences(ring_index):
    ring, element = _RINGS[ring_index]
    rng = random.Random(70 + ring_index)
    order = 4
    for _ in range(3):
        x = TruncatedSeries(ring, [element(rng) for _ in range(order + 1)], order)
        y = TruncatedSeries(ring, [element(rng) for _ in range(order + 1)], order)
        assert x * y == _per_term_mul(x, y)
        pairs = list(zip(x.coeffs, y.coeffs)) + [(x.coeffs[0], 3)]
        assert ring_dot(pairs, ring.zero) == ring_sum([a * b for a, b in pairs], ring.zero)
        zero_start = TruncatedSeries(ring, (ring.zero,) + x.coeffs[1:], order)
        assert zero_start.exp() == _per_term_exp(zero_start)
        one_start = TruncatedSeries(ring, (ring.one,) + x.coeffs[1:], order)
        assert one_start.log() == _per_term_log(one_start)


def test_series_order_defaults_to_the_coefficient_count():
    assert TruncatedSeries(FRACTION_RING, [1, 2, 3]).order == 2
    with pytest.raises(ValueError, match="^empty coefficient list needs an explicit order$"):
        TruncatedSeries(FRACTION_RING, [])


def test_series_refuse_another_ring_and_foreign_operands():
    x = TruncatedSeries(FRACTION_RING, [0, 1, 2])
    other = TruncatedSeries(Ring(Fraction(0), Fraction(1)), [0, 1, 2])
    with pytest.raises(OrderMismatch, match="^series over different coefficient rings$"):
        x * other
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: 'TruncatedSeries' and 'NoneType'$"):
        x + None
    assert (x == None) is False and (x == 1) is False  # noqa: E711


def test_series_times_a_scalar_scales_each_coefficient():
    x = TruncatedSeries(FRACTION_RING, [0, 1, Fraction(2, 3)])
    assert x * 3 == x.scale(3) == TruncatedSeries(FRACTION_RING, [0, 3, 2])


def test_series_repr_lists_the_nonzero_coefficients():
    assert repr(TruncatedSeries(FRACTION_RING, [0, 1, Fraction(2, 3)])) == "TruncatedSeries(order=2; t^1: 1, t^2: 2/3)"
    assert repr(TruncatedSeries.zero(FRACTION_RING, 3)) == "TruncatedSeries(order=3; 0)"
