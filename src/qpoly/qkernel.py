"""q-calculus primitives over the exact field Q(s, Lambda).

Provides q-numbers, q-factorials, q-binomials, q-Pochhammer symbols, the
coefficients of the product-of-ordinary-exponentials expansion of the
q-exponential (Quesne's expansion), and both Jackson q-exponentials in two
independently computed forms:

  * the defining power sums
        e_q(z) = sum_n z**n / (q;q)_n
        E_q(z) = sum_n q**(n(n-1)/2) z**n / (q;q)_n
  * the exponential of an explicit log-series
        e_q(z) = exp( sum_k z**k / (k (1-q**k)) )
        E_q(z) = exp( sum_k (-1)**(k+1) z**k / (k (1-q**k)) )

A base is given by its integer exponent base_exp: the base is q**base_exp
(1, -2 and -4 in the paper), an ordinary rational function of s, and
base_exp = 0 (the base 1) raises ValueError.  No |q| < 1 assumption is made
anywhere — all identities here are exact rational-function identities.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate
from operator import sub

from .field import RationalFunction, _raw_poly, _rf_raw, _spread, _uadd, _unorm
from .series import NonzeroConstantTerm, TruncatedSeries


class IndexOutOfRange(ValueError):
    """q-binomial index outside 0 <= k <= n."""


_ONE = RationalFunction.one()


def _base(b):
    """The base q**b of the functions below, for an integer b != 0."""
    if b == 0:
        raise ValueError("base must differ from 1")
    return RationalFunction.q_power(b)


@lru_cache(maxsize=None)
def q_number(n, base_exp=1):
    """[n] = (1 - base**n)/(1 - base) with base = q**base_exp; [0] = 0."""
    if n < 0:
        raise ValueError("q_number needs n >= 0")
    v = _base(base_exp)
    return (_ONE - v**n) / (_ONE - v)


@lru_cache(maxsize=None)
def q_factorial(n, base_exp=1):
    """[n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        _base(base_exp)  # base 1 is rejected for the empty product too
        return _ONE
    return q_factorial(n - 1, base_exp) * q_number(n, base_exp)


def q_binomial(n, k, base_exp=1):
    """[n over k] = [n]!/([k]![n-k]!), a polynomial in the base."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"q_binomial({n}, {k})")
    return q_factorial(n, base_exp) / (q_factorial(k, base_exp) * q_factorial(n - k, base_exp))


def _pochhammers(a, base_exp, n):
    """[(a; base)_0, ..., (a; base)_n], (a; base)_l = prod_{k<l} (1 - a*base**k)."""
    v = _base(base_exp)
    out = [_ONE]
    for _ in range(n):
        out.append(out[-1] * (_ONE - a))
        a = a * v
    return out


def q_pochhammer(a, base_exp, n):
    """(a; base)_n = prod_{k=0..n-1} (1 - a*base**k); empty product is 1."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    return _pochhammers(a, base_exp, n)[-1]


@lru_cache(maxsize=None)
def quesne_c(k, base_exp=1):
    """c_k = (1 - base)**(k-1) / (k * [k]), the product-expansion coefficients."""
    if k < 1:
        raise ValueError("quesne_c needs k >= 1")
    v = _base(base_exp)
    return (_ONE - v) ** (k - 1) / (q_number(k, base_exp) * k)


def _power_sum(argument, coeff, start):
    """sum_{k >= start} coeff(k) * argument**k to the argument's order, start
    0 or 1; the argument has zero constant term, so the sum stops once its
    power is 0.  The running power starts at the argument, so no product has
    the unit series as an operand."""
    if argument.coeffs[0] != argument.ring.zero:
        raise NonzeroConstantTerm("q-exponential argument needs zero constant term")
    ring = argument.ring
    order = argument.order
    parts = [TruncatedSeries.zero(ring, order)]
    if start == 0:
        parts.append(TruncatedSeries.one(ring, order).scale(coeff(0)))
    power = argument
    for k in range(1, order + 1):
        if k > 1:
            power = power * argument
        if power.is_zero():
            break
        parts.append(power.scale(coeff(k)))
    return TruncatedSeries.sum(parts)


def q_exp_sum(kind, argument, base_exp):
    """Jackson q-exponential of a series argument, from the defining sums.

    kind "e" is the little q-exponential, kind "E" the big one (extra
    base**(n(n-1)/2) factor).  The argument must have zero constant term so
    that the composition truncates at the series order.
    """
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    poch = _pochhammers(_base(base_exp), base_exp, argument.order)  # (base; base)_n

    def coeff(n):
        tri = RationalFunction.q_power(base_exp * n * (n - 1) // 2) if kind == "E" else _ONE
        return tri / poch[n]

    return _power_sum(argument, coeff, 0)


def q_exp_product_form(kind, argument, base_exp):
    """Jackson q-exponential as exp of its explicit log-series."""
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    v = _base(base_exp)

    def coeff(k):
        c = _ONE / ((_ONE - v**k) * k)
        return -c if kind == "E" and k % 2 == 0 else c

    return _power_sum(argument, coeff, 1).exp()


def quesne_series(argument, base_exp):
    """exp( sum_k c_k(base) * argument**k ): the product-of-exponentials
    form of the physicists' q-exponential sum_n z**n/[n]!."""
    _base(base_exp)  # base 1 is rejected for a zero argument too
    return _power_sum(argument, lambda k: quesne_c(k, base_exp), 1).exp()


# ---------------------------------------------------------------------------
# q-rows: integer polynomials in one variable x as lists, ascending powers
# ---------------------------------------------------------------------------
# The integer routes (the connection totals, the Gegenbauer generating
# function and sum-rule log) keep their q-polynomials as x-rows, x = q (or
# q**-2 for Hermite), and build a RationalFunction only at the end.

def _times_q_number(row, a):
    """row * [a] for an x-row: a window sum."""
    return [sum(row[max(0, i - a + 1):i + 1]) for i in range(len(row) + a - 1)]


def _q_factorial_row(n):
    """[n]! as an x-row (ascending powers)."""
    return reduce(_times_q_number, range(2, n + 1), [1])


def _divide_q_number(row, a):
    """row / [a] for an x-row: row * (1 - x) over 1 - x**a, a running sum
    with stride a.  Its top a entries are the remainder: if one is nonzero,
    ArithmeticError."""
    r = list(map(sub, row + [0], [0] + row))
    for i in range(a):
        r[i::a] = accumulate(r[i::a])
    if any(r[len(r) - a:]):
        raise ArithmeticError(f"[{a}]_x does not divide the row")
    del r[len(r) - a:]
    return r


def _q_binomial_rows(n, top):
    """[n over l]_q for l = 0..top as q-rows, each the last times [n - l + 1]
    over [l]."""
    rows = [[1]]
    for ell in range(1, top + 1):
        rows.append(_divide_q_number(_times_q_number(rows[-1], n - ell + 1), ell))
    return rows


def _q_pochhammer_rows(n):
    """(q;q)_k for k = 0..n as q-rows, each the last times 1 - q**k."""
    rows = [[1]]
    for k in range(1, n + 1):
        rows.append(list(map(sub, rows[-1] + [0] * k, [0] * k + rows[-1])))
    return rows


def _lambda_pochhammer_rows(n):
    """(Lambda;q)_l for l = 0..n, each as q-rows, one per power of Lambda:
    the last times 1 - Lambda q**(l-1)."""
    out = [[[1]]]
    for k in range(n):
        last = out[-1]
        shifted = [[0] * k + [-x for x in r] for r in last]  # -Lambda q**k times the last
        out.append([[1]] + [_uadd(a, b) for a, b in zip(last[1:], shifted)] + shifted[-1:])
    return out


def _q_rows_ratio(rows, den, s_power=0):
    """s**s_power * sum_p rows[p] Lambda**p / den, reduced by the gcd, for
    q-rows rows[p] and a nonzero q-row den (q = s**2; trailing zeros
    allowed).  An x-row over an integer times a power of s needs no gcd of
    polynomials: see _x_row_ratio."""
    num = _unorm([_unorm(_spread(r)) for r in rows])
    den = _unorm(_spread(den))
    if s_power > 0:
        num = [[0] * s_power + r if r else r for r in num]
    else:
        den = [0] * -s_power + den
    return RationalFunction(_raw_poly(num), _raw_poly([den]))


def _x_row_ratio(row, d, k):
    """sum_r row[r] x**r / (d s**k) in lowest terms, x = q**-2 = s**-4, for a
    nonzero x-row with no trailing zeros and an int d > 0.  Times s**(4 deg)
    on both sides the numerator has the nonzero constant term row[deg], so no
    factor s, and the denominator is an integer times a power of s: once the
    integer gcd is out the two are coprime, with no gcd of polynomials."""
    g = math.gcd(d, *row)
    if g != 1:
        row, d = [c // g for c in row], d // g
    num = [0] * (4 * len(row) - 3)
    num[::4] = reversed(row)
    den = [0] * (k + len(num) - 1) + [d]
    return _rf_raw(_raw_poly([_unorm(num)]), _raw_poly([den]))
