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

from functools import lru_cache

from .field import RationalFunction
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
    """sum_{k >= start} coeff(k) * argument**k to the argument's order; the
    argument has zero constant term, so the sum stops once its power is 0."""
    if argument.coeffs[0] != argument.ring.zero:
        raise NonzeroConstantTerm("q-exponential argument needs zero constant term")
    ring = argument.ring
    order = argument.order
    parts = [TruncatedSeries.zero(ring, order)]
    power = TruncatedSeries.one(ring, order)
    for k in range(order + 1):
        if k:
            power = power * argument
            if power.is_zero():
                break
        if k >= start:
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


def _exp_of_powers(argument, coeff):
    """exp( sum_k coeff(k) * argument**k ) to the argument's order."""
    return _power_sum(argument, coeff, 1).exp()


def q_exp_product_form(kind, argument, base_exp):
    """Jackson q-exponential as exp of its explicit log-series."""
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    v = _base(base_exp)

    def coeff(k):
        c = _ONE / ((_ONE - v**k) * k)
        return -c if kind == "E" and k % 2 == 0 else c

    return _exp_of_powers(argument, coeff)


def quesne_series(argument, base_exp):
    """exp( sum_k c_k(base) * argument**k ): the product-of-exponentials
    form of the physicists' q-exponential sum_n z**n/[n]!."""
    _base(base_exp)  # base 1 is rejected for a zero argument too
    return _exp_of_powers(argument, lambda k: quesne_c(k, base_exp))
