"""Polynomial families: closed forms vs generating-function extraction."""

import math
import random
from fractions import Fraction

import pytest

from qpoly.connection import BetaPolynomial, CPolynomial, LambdaPolynomial
from qpoly.field import RationalFunction as RF
from qpoly.families import (
    CosPolynomial,
    LaguerreIndex,
    ZPolynomial,
    falling_binomial,
    gegenbauer_classical,
    gegenbauer_weight,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from qpoly.qkernel import q_pochhammer
from qpoly.verify import (
    chebyshev_recurrence,
    hermite5_reference,
    hermite_genfun_classical,
    laguerre33_reference,
    laguerre_genfun_classical,
)

ONE = RF.one()
Q = RF.q()


# ---------------------------------------------------------------------------
# classical Hermite
# ---------------------------------------------------------------------------

def test_hermite_classical_small():
    assert hermite_classical(0) == ZPolynomial.one()
    assert hermite_classical(1) == ZPolynomial({1: 2})
    assert hermite_classical(5) == ZPolynomial({5: 32, 3: -160, 1: 120})


def test_hermite_classical_vs_genfun():
    for n in range(9):
        assert hermite_classical(n) == hermite_genfun_classical(n)


# ---------------------------------------------------------------------------
# classical Laguerre (generalized superscript)
# ---------------------------------------------------------------------------

def test_falling_binomial():
    assert falling_binomial(0, 0) == 1
    assert falling_binomial(0, 1) == 0
    assert falling_binomial(5, 2) == 10
    assert falling_binomial(-2, 2) == 3  # (-2)(-3)/2
    # binom(-a, l) = (-1)**l (a)_l / l!, with the rising factorial (a)_l
    for a, ell, rising in ((3, 0, 1), (0, 2, 0), (3, 2, 12), (-2, 3, 0)):
        assert falling_binomial(-a, ell) == Fraction((-1) ** ell * rising, math.factorial(ell))


def test_laguerre_classical_examples():
    # k=1 with superscript n-1 gives n - z
    for n in (0, 1, 3, 7):
        expected = ZPolynomial({0: n, 1: -1}) if n else ZPolynomial({1: -1})
        assert laguerre_classical(LaguerreIndex(1, n - 1)) == expected
    assert laguerre_classical(LaguerreIndex(0, 123)) == ZPolynomial.one()


def test_laguerre_classical_polynomial_argument():
    # composing with c z^2 rescales degrees
    arg = ZPolynomial({2: Q})
    poly = laguerre_classical(LaguerreIndex(2, 1), arg)
    direct = laguerre_classical(LaguerreIndex(2, 1))
    assert poly == ZPolynomial({2 * d: c * Q**d for d, c in direct.items()})


def test_laguerre_classical_vs_genfun():
    # includes k > n, where the superscript n-k is negative
    for n in range(6):
        for k in range(7):
            assert laguerre_classical(LaguerreIndex(k, n - k)) == laguerre_genfun_classical(n, k)


def test_laguerre_index_validation():
    with pytest.raises(ValueError):
        LaguerreIndex(-1, 0)


# ---------------------------------------------------------------------------
# classical Gegenbauer (lambda = 1, cosine basis)
# ---------------------------------------------------------------------------

def test_gegenbauer_classical_small():
    assert gegenbauer_classical(0) == CosPolynomial.one()
    assert gegenbauer_classical(1) == CosPolynomial({1: 2})
    # folding of cos(-2 theta) onto cos(2 theta): 2cos(2theta) + 1
    assert gegenbauer_classical(2) == CosPolynomial({2: 2, 0: 1})


def test_gegenbauer_classical_recurrence():
    for n in range(11):
        assert gegenbauer_classical(n) == chebyshev_recurrence(n)


def test_cosine_folding_rule():
    a = CosPolynomial.cos(3)
    b = CosPolynomial.cos(5)
    assert a * b == CosPolynomial({8: Fraction(1, 2), 2: Fraction(1, 2)})
    assert a * a == CosPolynomial({6: Fraction(1, 2), 0: Fraction(1, 2)})
    assert CosPolynomial.one() * a == a


def test_gegenbauer_classical_trig_oracle():
    # U_n(cos theta) = sin((n+1) theta)/sin(theta), an independent check of
    # the folding rule
    import math
    for theta in (0.9, 2.3):
        for n in range(7):
            value = gegenbauer_classical(n).eval_numeric(theta, 1.0)
            assert abs(value - math.sin((n + 1) * theta) / math.sin(theta)) < 1e-12


def test_cosine_multiplication_associative_randomized():
    import random
    rng = random.Random(21)
    q = RF.q()
    for _ in range(25):
        polys = [CosPolynomial({rng.randint(0, 5): q ** rng.randint(0, 2) * rng.randint(-3, 3)
                                for _ in range(2)}) for _ in range(3)]
        a, b, c = polys
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


# ---------------------------------------------------------------------------
# deformed Hermite
# ---------------------------------------------------------------------------

def test_q_hermite_small():
    assert q_hermite(0) == ZPolynomial.one()
    assert q_hermite(1) == ZPolynomial({1: RF.s_power(-1) * 2})


def test_q_hermite_five_closed_form():
    assert q_hermite(5) == hermite5_reference()


def test_q_hermite_parity():
    for n in range(9):
        assert all((d - n) % 2 == 0 for d in q_hermite(n).support())


def test_q_hermite_classical_limit():
    for n in range(7):
        assert q_hermite(n).limit_q_to_1() == hermite_classical(n)


# ---------------------------------------------------------------------------
# deformed Laguerre
# ---------------------------------------------------------------------------

def test_q_laguerre_degree_zero():
    for n in (0, 2, 7):
        assert q_laguerre(n, 0) == ZPolynomial.one()


def test_q_laguerre_33_closed_form():
    assert q_laguerre(3, 3) == laguerre33_reference()


def test_q_laguerre_classical_limit():
    for n in range(6):
        for k in range(6):
            assert q_laguerre(n, k).limit_q_to_1() == laguerre_classical(LaguerreIndex(k, n - k))


# ---------------------------------------------------------------------------
# deformed Gegenbauer
# ---------------------------------------------------------------------------

def test_q_gegenbauer_small():
    assert q_gegenbauer_direct(0) == CosPolynomial.one()
    assert q_gegenbauer_direct(1) == CosPolynomial({1: gegenbauer_weight(1) * 2})


def test_q_gegenbauer_dual_route():
    for n in range(9):
        assert q_gegenbauer_direct(n) == q_gegenbauer_genfun(n)


def _direct_by_pochhammer_calls(n):
    # the explicit double-Pochhammer form with every symbol built afresh
    lam, base = RF.lam(), 1
    return CosPolynomial.sum([
        CosPolynomial({abs(n - 2 * ell): q_pochhammer(lam, base, ell) * q_pochhammer(lam, base, n - ell)
                       / (q_pochhammer(Q, base, ell) * q_pochhammer(Q, base, n - ell))})
        for ell in range(n + 1)])


def test_q_gegenbauer_direct_uses_running_products(monkeypatch):
    import qpoly.families as families
    import qpoly.qkernel as qkernel

    expected = [_direct_by_pochhammer_calls(n) for n in range(9)]
    calls = []

    def counted(*args):
        calls.append(args)
        return q_pochhammer(*args)

    monkeypatch.setattr(qkernel, "q_pochhammer", counted)
    # families may hold its own reference to the function
    monkeypatch.setattr(families, "q_pochhammer", counted, raising=False)
    values = [q_gegenbauer_direct.__wrapped__(n) for n in range(9)]
    assert calls == []
    assert values == expected


def test_q_gegenbauer_lambda_one_collapses_to_classical():
    # at lambda = 1 (Lambda -> q) the deformed polynomial is the classical one
    for n in range(6):
        collapsed = q_gegenbauer_direct(n).map_coeffs(lambda c: c.subs_lam_q())
        assert collapsed == gegenbauer_classical(n)


# ---------------------------------------------------------------------------
# value contract of the sparse polynomial classes: == agrees with hash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial, BetaPolynomial,
                                 LambdaPolynomial, CPolynomial])
@pytest.mark.parametrize("value", [0, 3, Fraction(-2, 7)])
def test_constant_hashes_like_equal_scalar(cls, value):
    p = cls.constant(value)
    assert p == value
    assert hash(p) == hash(value)
    assert len({p, value}) == 1


@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial])
def test_constant_hashes_like_equal_rational_function(cls):
    value = Q / (ONE + Q)
    p = cls.constant(value)
    assert p == value and hash(p) == hash(value)
    assert {p, value} == {value}


def test_equal_polynomials_hash_equal():
    a = ZPolynomial.z(3) + ZPolynomial.z().scale(Q) + 2
    b = ZPolynomial({0: 2}) + ZPolynomial({1: Q, 3: 1})
    assert a == b and hash(a) == hash(b)
    beta = BetaPolynomial.gen(1) * BetaPolynomial.gen(2) - 1
    assert hash(beta) == hash(BetaPolynomial.gen(2) * BetaPolynomial.gen(1) + Fraction(-1))


# ---------------------------------------------------------------------------
# SparsePoly.sum and products against the per-term accumulation loop
# ---------------------------------------------------------------------------

def _per_term_mul(p, q):
    """The product as it was accumulated before each monomial's coefficients
    were summed once: out[m] + c for every term."""
    out = {}
    for m1, c1 in p._terms.items():
        for m2, c2 in q._terms.items():
            for m, c in p._times(m1, m2, c1 * c2):
                if m in out:
                    c = out[m] + c
                    if c:
                        out[m] = c
                    else:
                        del out[m]
                else:
                    out[m] = c
    return type(p)._raw(out)


def _per_term_sum(cls, polys):
    total = cls.zero()
    for p in polys:
        total = total + p
    return total


def _rf_coeff(rng):
    lam = RF.lam()
    num = ONE * rng.randint(-3, 3) + Q ** rng.randint(0, 3) * rng.randint(-2, 2) + lam * rng.randint(-1, 1)
    den = ONE
    for _ in range(rng.randint(0, 2)):
        den = den * (ONE - Q ** rng.randint(1, 3))
    return num / den


def _beta_mono(rng):
    return tuple(sorted({rng.randint(1, 3): rng.randint(1, 2) for _ in range(rng.randint(0, 2))}.items()))


def _random_sparse(cls, rng):
    if cls in (ZPolynomial, CosPolynomial):
        return cls({rng.randint(0, 4): _rf_coeff(rng) for _ in range(rng.randint(0, 4))})
    if cls is BetaPolynomial:
        return cls({_beta_mono(rng): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))})
    return cls({((rng.randint(1, 3), rng.randint(1, 2)),): _random_sparse(BetaPolynomial, rng)
                for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial, BetaPolynomial])
@pytest.mark.parametrize("scalars", [[], [3], [Fraction(1), 2], [Fraction(1), 2, 3]])
def test_sparse_sum_of_scalars_is_a_polynomial(cls, scalars):
    total = cls.sum(scalars)
    assert type(total) is cls
    assert total == cls.constant(sum(scalars))


@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial, BetaPolynomial, CPolynomial])
def test_sparse_sum_and_product_match_per_term_loop(cls):
    # CPolynomial here has BetaPolynomial coefficients, as in the connection
    rng = random.Random(17)
    for case in range(25):
        polys = [_random_sparse(cls, rng) for _ in range(rng.randint(0, 6))]
        assert cls.sum(polys) == _per_term_sum(cls, polys), f"case {case}"
        assert cls.sum(polys + [-p for p in polys]).is_zero(), f"case {case}"
        with_scalars = polys + [2, Fraction(-1, 3)]
        assert cls.sum(with_scalars) == _per_term_sum(cls, with_scalars), f"case {case}"
        for a, b in zip(polys, polys[1:]):
            assert a * b == _per_term_mul(a, b), f"case {case}"
