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

Every base (q, q**-2, q**-4, ...) is an ordinary rational function of s;
no |q| < 1 assumption is made anywhere — all identities here are exact
rational-function identities.
"""

from __future__ import annotations

from functools import lru_cache

from .field import RationalFunction
from .series import NonzeroConstantTerm, TruncatedSeries


class IndexOutOfRange(ValueError):
    """q-binomial index outside 0 <= k <= n."""


_ONE = RationalFunction.one()


class QBase:
    """A substitution base: a rational function of s, distinct from 1."""

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        if value == _ONE:
            raise ValueError("base must differ from 1")
        self.value = value
        self._hash = None

    @classmethod
    def q(cls):
        return _BASE_Q

    @classmethod
    def q_pow(cls, e):
        """The base q**e for an integer e (e.g. -2 or -4)."""
        if e == 0:
            raise ValueError("base must differ from 1")
        return cls(RationalFunction.q_power(e))

    def __eq__(self, other):
        return isinstance(other, QBase) and self.value == other.value

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("QBase", self.value))
        return self._hash

    def __repr__(self):
        return f"QBase({self.value})"


_BASE_Q = QBase.__new__(QBase)
_BASE_Q.value = RationalFunction.q()
_BASE_Q._hash = None


@lru_cache(maxsize=None)
def q_number(n, base=_BASE_Q):
    """[n] = (1 - base**n)/(1 - base); [0] = 0."""
    if n < 0:
        raise ValueError("q_number needs n >= 0")
    v = base.value
    return (_ONE - v**n) / (_ONE - v)


@lru_cache(maxsize=None)
def q_factorial(n, base=_BASE_Q):
    """[n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        return _ONE
    return q_factorial(n - 1, base) * q_number(n, base)


def q_binomial(n, k, base=_BASE_Q):
    """[n over k] = [n]!/([k]![n-k]!), a polynomial in the base."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"q_binomial({n}, {k})")
    return q_factorial(n, base) / (q_factorial(k, base) * q_factorial(n - k, base))


def q_pochhammer(a, base, n):
    """(a; base)_n = prod_{k=0..n-1} (1 - a*base**k); empty product is 1."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    v = base.value
    result = _ONE
    power = _ONE
    for _ in range(n):
        result = result * (_ONE - a * power)
        power = power * v
    return result


@lru_cache(maxsize=None)
def quesne_c(k, base=_BASE_Q):
    """c_k = (1 - base)**(k-1) / (k * [k]), the product-expansion coefficients."""
    if k < 1:
        raise ValueError("quesne_c needs k >= 1")
    v = base.value
    return (_ONE - v) ** (k - 1) / (q_number(k, base) * k)


def _check_argument(argument):
    z = argument.ring.zero
    if argument.coeffs[0] != z:
        raise NonzeroConstantTerm("q-exponential argument needs zero constant term")


def q_exp_sum(kind, argument, base):
    """Jackson q-exponential of a series argument, from the defining sums.

    kind "e" is the little q-exponential, kind "E" the big one (extra
    base**(n(n-1)/2) factor).  The argument must have zero constant term so
    that the composition truncates at the series order.
    """
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    _check_argument(argument)
    ring = argument.ring
    order = argument.order
    v = base.value
    parts = [TruncatedSeries.one(ring, order)]
    power = TruncatedSeries.one(ring, order)
    poch = _ONE
    vpow = _ONE
    tri = _ONE  # base**(n(n-1)/2), advanced by base**(n-1) each step
    for n in range(1, order + 1):
        power = power * argument
        poch = poch * (_ONE - vpow * v)  # (base; base)_n
        if n > 1:
            tri = tri * vpow
        vpow = vpow * v
        factor = (tri if kind == "E" else _ONE) / poch
        parts.append(power.scale(factor))
        if power.is_zero():
            break
    return TruncatedSeries.sum(parts)


def _exp_of_powers(argument, coeff):
    """exp( sum_k coeff(k) * argument**k ) to the argument's order."""
    _check_argument(argument)
    ring = argument.ring
    order = argument.order
    parts = [TruncatedSeries.zero(ring, order)]
    power = TruncatedSeries.one(ring, order)
    for k in range(1, order + 1):
        power = power * argument
        if power.is_zero():
            break
        parts.append(power.scale(coeff(k)))
    return TruncatedSeries.sum(parts).exp()


def q_exp_product_form(kind, argument, base):
    """Jackson q-exponential as exp of its explicit log-series."""
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    v = base.value

    def coeff(k):
        c = _ONE / ((_ONE - v**k) * k)
        return -c if kind == "E" and k % 2 == 0 else c

    return _exp_of_powers(argument, coeff)


def quesne_series(argument, base):
    """exp( sum_k c_k(base) * argument**k ): the product-of-exponentials
    form of the physicists' q-exponential sum_n z**n/[n]!."""
    return _exp_of_powers(argument, lambda k: quesne_c(k, base))
