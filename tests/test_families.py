"""Polynomial families: closed forms vs generating-function extraction."""

import math
import random
from fractions import Fraction

import pytest

from qpoly.connection import BetaPolynomial, CPolynomial, LambdaPolynomial, laguerre_connection
from qpoly.field import RationalFunction as RF
from qpoly.families import (
    COSPOLY_RING,
    ZPOLY_RING,
    CosPolynomial,
    LaguerreIndex,
    ZPolynomial,
    falling_binomial,
    gegenbauer_classical,
    gegenbauer_genfun_series,
    gegenbauer_weight,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from qpoly.qkernel import q_binomial, q_exp_sum, q_factorial, q_pochhammer, quesne_c
from qpoly.series import TruncatedSeries
from qpoly.verify import (
    chebyshev_recurrence,
    hermite5_reference,
    hermite_genfun_classical,
    laguerre33_reference,
    laguerre_genfun_classical,
)

from test_field import _at_lambda_one

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
    # against the falling product x(x-1)...(x-m+1) over m!
    for x in range(-12, 13):
        for m in range(12):
            value = falling_binomial(x, m)
            assert type(value) is Fraction and value == Fraction(math.prod(range(x - m + 1, x + 1)), math.factorial(m))
    with pytest.raises(ValueError):
        falling_binomial(3, -1)


def test_laguerre_classical_examples():
    # k=1 with superscript n-1 gives n - z
    for n in (0, 1, 3, 7):
        expected = ZPolynomial({0: n, 1: -1}) if n else ZPolynomial({1: -1})
        assert laguerre_classical(LaguerreIndex(1, n - 1)) == expected
    assert laguerre_classical(LaguerreIndex(0, 123)) == ZPolynomial.one()


def _composed_laguerre(idx, argument):
    """L_k^{(alpha)} at a polynomial argument, summed over its powers:
    sum_l (-1)**l C(n, k-l) argument**l / l!."""
    parts, power = [], ZPolynomial.one()
    for ell in range(idx.k + 1):
        parts.append(power.scale((-1) ** ell * falling_binomial(idx.n, idx.k - ell) / math.factorial(ell)))
        power = power * argument
    return ZPolynomial.sum(parts)


@pytest.mark.parametrize("random_aux", [False, True], ids=["no-aux", "random-aux"])
def test_laguerre_rows_match_factors_composed_at_their_arguments(random_aux):
    # the connection reads each factor L_{k_j}^{(n_j - k_j)}(c_j z**j) off the
    # coefficients of L_{k_j}; composing with c_j z**j by powers agrees
    rng = random.Random(19)
    for n in range(7):
        for k in range(7):
            aux = {j: rng.randint(-3, 3) for j in range(1, k + 1)} if random_aux else {}
            for term in laguerre_connection(n, k, aux).terms:
                factors = [_composed_laguerre(LaguerreIndex(kj, aux.get(j, 0) - kj),
                                              ZPolynomial({j: quesne_c(j, 1)}))
                           for j, kj in term.descriptor.kparts]
                expected = math.prod(factors, start=ZPolynomial.one()).scale(term.coefficient)
                assert term.value == expected, (n, k, aux, term.descriptor)


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
# deformed Hermite and Laguerre against their generating functions
# ---------------------------------------------------------------------------
# The reference route: the q-exponentials as TruncatedSeries over
# ZPolynomial[RationalFunction], multiplied, and one coefficient read.

def _q_hermite_by_series(n):
    qm2, qm4 = RF.q_power(-2), RF.q_power(-4)
    big = q_exp_sum("E", TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial({1: (ONE - qm2) * 2}), 1, n), -2)
    c = (ONE - qm4) * -2 / (Q * (ONE + qm2))
    little = q_exp_sum("e", TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial.constant(c), 2, n), -4)
    return (big * little).coeff(n).scale(q_factorial(n, -2) * RF.s_power(-n))


def _q_laguerre_by_series(n, k):
    big = q_exp_sum("E", TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial({1: Q - 1}), 1, k), 1)
    tail = TruncatedSeries(ZPOLY_RING, [
        ZPolynomial.constant(RF.q_power((n - ell) * (n - ell + 1) // 2) * q_binomial(n, ell))
        for ell in range(min(n, k) + 1)], k)
    return (big * tail).coeff(k).scale(RF.q_power(-((n - k) * (n - k + 1) // 2)))


def test_q_hermite_is_its_generating_function_coefficient():
    for n in range(13):
        assert q_hermite(n) == _q_hermite_by_series(n)


def _q_hermite_by_q_factorials(n):
    # the defining sums over q-factorials, each term reduced by the generic gcd
    scale = q_factorial(n, -2) * RF.s_power(-n)
    c = Q * (ONE + RF.q_power(-2))
    return ZPolynomial({n - 2 * ell: scale * RF.q_power(-(n - 2 * ell) * (n - 2 * ell - 1)) * 2**(n - 2 * ell)
                        * (-2)**ell / (q_factorial(n - 2 * ell, -2) * q_factorial(ell, -4) * c**ell)
                        for ell in range(n // 2 + 1)})


def test_q_hermite_is_its_q_factorial_sum():
    for n in range(21):
        assert q_hermite(n) == _q_hermite_by_q_factorials(n)


def test_q_laguerre_is_its_generating_function_coefficient():
    for n in range(9):
        for k in range(9):
            assert q_laguerre(n, k) == _q_laguerre_by_series(n, k)


def test_q_hermite_and_q_laguerre_build_no_series(monkeypatch):
    import qpoly.qkernel as qkernel

    def forbidden(*args):
        raise AssertionError("a series built or a q-exponential series called")

    q_hermite.cache_clear()
    q_laguerre.cache_clear()
    monkeypatch.setattr(TruncatedSeries, "__init__", forbidden)
    monkeypatch.setattr(TruncatedSeries, "__mul__", forbidden)
    monkeypatch.setattr(qkernel, "q_exp_sum", forbidden)
    hermite, laguerre = q_hermite(9), q_laguerre(6, 7)
    monkeypatch.undo()
    assert hermite == _q_hermite_by_series(9)
    assert laguerre == _q_laguerre_by_series(6, 7)


# ---------------------------------------------------------------------------
# deformed Gegenbauer
# ---------------------------------------------------------------------------

def test_q_gegenbauer_small():
    assert q_gegenbauer_direct(0) == CosPolynomial.one()
    assert q_gegenbauer_direct(1) == CosPolynomial({1: gegenbauer_weight(1) * 2})


def test_q_gegenbauer_dual_route():
    for n in range(9):
        assert q_gegenbauer_direct(n) == q_gegenbauer_genfun(n)


def _genfun_by_series_exp(order):
    # the reference route: TruncatedSeries.exp of the log series over
    # CosPolynomial[RationalFunction]
    log_series = TruncatedSeries(COSPOLY_RING, [CosPolynomial.zero()] + [
        CosPolynomial({k: gegenbauer_weight(k) * Fraction(2, k)}) for k in range(1, order + 1)], order)
    return log_series.exp()


def test_gegenbauer_genfun_over_z_matches_series_exp():
    reference = _genfun_by_series_exp(10)
    assert gegenbauer_genfun_series(10).coeffs == reference.coeffs
    for n in range(11):
        assert q_gegenbauer_genfun(n) == reference.coeff(n)


def test_gegenbauer_genfun_takes_no_series_exp_and_no_cos_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("series exp or CosPolynomial product called")

    expected = [q_gegenbauer_direct(n) for n in range(10)]
    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    monkeypatch.setattr(CosPolynomial, "dot", classmethod(forbidden))
    series = gegenbauer_genfun_series(9)
    single = q_gegenbauer_genfun(9)
    monkeypatch.undo()
    assert list(series.coeffs) == expected
    assert single == expected[9]


@pytest.mark.parametrize("nbytes", [1, 3, 8, 9])
def test_gegenbauer_cells_round_trip_through_the_frame(nbytes):
    # w-cells of degree m packed in the order frame and read back, for
    # digits converted in bulk (1, 3, 8 bytes) and one by one (9 bytes)
    from qpoly.families import _frame, _unpack_cells
    from qpoly.field import _flatten, _pack

    rng = random.Random(nbytes)
    half = 1 << (8 * nbytes - 1)
    order = 6
    qs, ls = _frame(order)
    for m in range(order + 1):
        cells = {}
        for e in range(-m, m + 1, 2):
            rows = [[rng.randint(-half, half - 1) for _ in range(rng.randint(0, m * (m - 1) // 2 + 1))]
                    for _ in range(rng.randint(0, m + 1))]
            rows = [r[:-1] + [r[-1] or 1] if r else r for r in rows]
            while rows and not rows[-1]:
                rows.pop()
            if rows:
                cells[e] = rows
        # q**a Lambda**b w**e is digit a of the frame row b + ls*(e + m)/2, qs digits wide
        placed = [[] for _ in range(ls * (m + 1))]
        for e, rows in cells.items():
            for b, r in enumerate(rows):
                placed[b + ls * (e + m) // 2] = r
        assert _unpack_cells(_pack(_flatten(placed, qs), nbytes), m, order, nbytes) == cells


@pytest.mark.parametrize("nbytes", [1, 3, 9])
def test_gegenbauer_cells_read_from_a_slot_up(nbytes):
    # the cells above a w-slot are read after a balanced shift drops the
    # slots below, for any digits within _pack's bound, at every width path
    from qpoly.families import _frame, _unpack_cells
    from qpoly.field import _flatten, _pack

    rng = random.Random(10 + nbytes)
    half = 1 << (8 * nbytes - 1)
    order = 5
    qs, ls = _frame(order)
    for m in range(order + 1):
        placed = [[rng.choice([1 - half, half - 1, rng.randint(1 - half, half - 1)])
                   for _ in range(m * (m - 1) // 2 + 1)] if b % ls <= m else []
                  for b in range(ls * (m + 1))]
        cells = _unpack_cells(_pack(_flatten(placed, qs), nbytes), m, order, nbytes)
        for low in range(m + 2):
            assert _unpack_cells(_pack(_flatten(placed, qs), nbytes), m, order, nbytes, low) == {
                e: c for e, c in cells.items() if e >= 2 * low - m}, (m, low)


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

    expected = [_direct_by_pochhammer_calls(n) for n in range(13)]
    calls = []

    def counted(*args):
        calls.append(args)
        return q_pochhammer(*args)

    monkeypatch.setattr(qkernel, "q_pochhammer", counted)
    # families may hold its own reference to the function
    monkeypatch.setattr(families, "q_pochhammer", counted, raising=False)
    values = [q_gegenbauer_direct.__wrapped__(n) for n in range(13)]
    assert calls == []
    assert values == expected


def test_direct_forms_are_built_in_lowest_terms(monkeypatch):
    # each coefficient is assembled from integer rows with no polynomial
    # gcd, not even q_hermite's against its power of s, and reducing a
    # coefficient again returns the same rows
    import qpoly.field as field

    def forbidden(*args):
        raise AssertionError("a polynomial gcd called")

    for fn in (q_hermite, q_gegenbauer_direct):
        fn.cache_clear()
    monkeypatch.setattr(field, "_ugcd_heu", forbidden)
    monkeypatch.setattr(field, "_gcd_cof", forbidden)
    values = [fn(n) for fn in (q_hermite, q_gegenbauer_direct) for n in range(17)]
    monkeypatch.undo()
    for value in values:
        for c in value._terms.values():
            again = RF(c.num, c.den)
            assert (again.num._rows, again.den._rows) == (c.num._rows, c.den._rows)


def test_q_gegenbauer_lambda_one_collapses_to_classical():
    # at lambda = 1 (Lambda -> q) the deformed polynomial is the classical one
    for n in range(6):
        collapsed = q_gegenbauer_direct(n).map_coeffs(_at_lambda_one)
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



@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial, LambdaPolynomial, BetaPolynomial, CPolynomial])
def test_sparse_poly_rejects_foreign_operands_and_negative_powers(cls):
    p, name = cls.one() + cls.one(), cls.__name__
    for op, symbol in ((lambda a, b: a + b, "+"), (lambda a, b: a * b, "*")):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: '{name}' and 'NoneType'$"):
            op(p, None)
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: 'NoneType' and '{name}'$"):
            op(None, p)
    assert (p == None) is False and (p == "2") is False  # noqa: E711
    with pytest.raises(ValueError, match="^negative power of a polynomial$"):
        p ** -1


@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial])
def test_sparse_poly_rejects_a_monomial_below_the_unit(cls):
    with pytest.raises(ValueError, match="^monomial -1 below the unit$"):
        cls({2: 1, -1: 3})
