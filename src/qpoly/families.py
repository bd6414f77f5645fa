"""Classical and q-deformed polynomial families.

Each family exists twice: in explicit closed form and by coefficient
extraction from its generating function, so every constructor carries a
built-in independent cross-check.

Working bases, both SparsePoly subclasses (the one sparse polynomial
implementation, shared with the abstract rings of the connection module):

  * ZPolynomial  — sparse polynomial in z over Q(s, Lambda); hosts the
    (q-)Hermite and (q-)Laguerre families.
  * CosPolynomial — linear combinations of cos(m*theta) with the product
    folded by cos(a)cos(b) = (cos(a+b) + cos(|a-b|))/2; hosts the
    (q-)Gegenbauer families (lambda enters only through Lambda = q**lambda).

A generating function is expanded only to the order of the coefficient
extracted from it: the coefficient does not depend on the truncation order.
So one expansion to order N serves every degree n <= N
(gegenbauer_genfun_series), and a single-degree call expands to order n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import RationalFunction, _coerce_or_raise, _power
from .qkernel import _pochhammers, q_binomial, q_exp_sum, q_factorial
from .series import Ring, TruncatedSeries, ring_sum

_RF_ONE = RationalFunction.one()


class SparsePoly:
    """Sparse monomial -> coefficient polynomial over a commutative ring.

    A subclass fixes three things: `_coerce`, which turns an accepted scalar
    into a coefficient; `_unit`, the unit monomial, which is also the least
    one; and `_times(m1, m2, c)`, which returns the (monomial, coefficient)
    pairs of the product of two monomials whose coefficients multiply to c.
    `_scalars` are the types that act as constants, and `_order` keys the
    display order of `sorted_terms` (highest first).  `basis` names how a
    monomial prints (see render).  Zero coefficients are never stored, so
    equal polynomials have equal dicts.
    """

    __slots__ = ("_terms", "_hash")

    _scalars = (int, Fraction)
    _coerce = staticmethod(lambda c: c)
    _unit = 0

    @staticmethod
    def _order(m):
        return m

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if m < self._unit:
                    raise ValueError(f"monomial {m!r} below the unit")
                c = self._coerce(c)
                if c:
                    clean[m] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._unit: 1})

    @classmethod
    def constant(cls, value):
        return cls({cls._unit: value})

    def coeff(self, m):
        c = self._terms.get(m)
        return self._coerce(0) if c is None else c

    def sorted_terms(self):
        """(monomial, coefficient) pairs in display order, highest first."""
        key = self._order
        return sorted(self._terms.items(), key=lambda mc: key(mc[0]), reverse=True)

    def support(self):
        return set(self._terms)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._terms == other._terms
        if isinstance(other, self._scalars):
            other = self._coerce(other)
            return self._terms == ({self._unit: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes like its coefficient, so like the equal scalar
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {self._unit}:
                self._hash = hash(terms.get(self._unit, 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __add__(self, other):
        if type(other) is not type(self) and not isinstance(other, self._scalars):
            return NotImplemented
        return self.sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        return self._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @classmethod
    def sum(cls, polys):
        """The sum of a list of polynomials of this class and scalars, each
        monomial's coefficients summed once; + is its two-term case."""
        polys = [p if type(p) is cls else cls.constant(p) for p in polys]
        cols = {}
        for p in polys:
            for m, c in p._terms.items():
                cols.setdefault(m, []).append(c)
        return cls._from_columns(cols)

    @classmethod
    def _from_columns(cls, cols):
        """The polynomial whose coefficient of m is the sum of the nonempty list
        cols[m]; a one-term list holds a nonzero coefficient or product of two."""
        out = {}
        for m, cs in cols.items():
            if len(cs) == 1:
                out[m] = cs[0]
            else:
                c = ring_sum(cs, 0)
                if c:
                    out[m] = c
        return cls._raw(out)

    @classmethod
    def dot(cls, pairs):
        """sum a * b over the pairs, each a a polynomial of this class and
        each b one or a scalar: the monomial products of every pair go into
        one column per monomial, and each column is summed once."""
        times = cls._times
        cols = {}
        for a, b in pairs:
            if type(b) is not cls:
                b = cls.constant(b)
            for m1, c1 in a._terms.items():
                for m2, c2 in b._terms.items():
                    for m, c in times(m1, m2, c1 * c2):
                        cols.setdefault(m, []).append(c)
        return cls._from_columns(cols)

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, self._scalars):
                return NotImplemented
            return self.scale(other)
        return self.dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, e, self.one())

    def scale(self, scalar):
        scalar = self._coerce(scalar)
        if not scalar:
            return self._raw({})
        return self._raw({m: c * scalar for m, c in self._terms.items()})

    def map_coeffs(self, fn):
        out = {}
        for m, c in self._terms.items():
            c = fn(c)
            if c:
                out[m] = c
        return self._raw(out)

    def limit_q_to_1(self):
        """Apply the q -> 1 limit to every (RationalFunction) coefficient."""
        return self.map_coeffs(lambda v: RationalFunction.from_fraction(v.limit_q_to_1()))

    def __repr__(self):
        from .render import text  # render imports this module
        return f"{type(self).__name__}({text(self)})"


_RF_scalars = (int, Fraction, RationalFunction)


class ZPolynomial(SparsePoly):
    """Sparse polynomial in the variable z over Q(s, Lambda); a monomial is
    the exponent of z."""

    __slots__ = ()
    basis = "z"
    _scalars = _RF_scalars
    _coerce = staticmethod(_coerce_or_raise)

    @staticmethod
    def _times(k1, k2, c):
        return ((k1 + k2, c),)

    @classmethod
    def z(cls, k=1):
        return cls({k: _RF_ONE})

    def eval_numeric(self, z_value, s_value, lam_value=None):
        return sum(v.eval_numeric(s_value, lam_value) * complex(z_value) ** k
                   for k, v in self._terms.items())


_HALF = Fraction(1, 2)


class CosPolynomial(SparsePoly):
    """Linear combination of cos(m*theta), m >= 0, over Q(s, Lambda); the
    product folds by cos(a)cos(b) = (cos(a+b) + cos(|a-b|))/2."""

    __slots__ = ()
    basis = "cos"
    _scalars = _RF_scalars
    _coerce = staticmethod(_coerce_or_raise)

    @staticmethod
    def _times(m1, m2, c):
        if not m1 or not m2:  # cos(0) is the unit
            return ((m1 + m2, c),)
        c = c * _HALF
        return ((m1 + m2, c), (abs(m1 - m2), c))

    @classmethod
    def cos(cls, m):
        return cls({m: _RF_ONE})

    def eval_numeric(self, theta, s_value, lam_value=None):
        return sum(v.eval_numeric(s_value, lam_value) * math.cos(m * theta)
                   for m, v in self._terms.items())


ZPOLY_RING = Ring(ZPolynomial.zero(), ZPolynomial.one())
COSPOLY_RING = Ring(CosPolynomial.zero(), CosPolynomial.one())


@dataclass(frozen=True)
class LaguerreIndex:
    """Index pair of a Laguerre polynomial L_k^{(alpha)}; alpha may be any
    integer (the generalized binomial handles negative upper index)."""

    k: int
    alpha: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("Laguerre degree k must be >= 0")

    @property
    def n(self):
        return self.k + self.alpha


def falling_binomial(n, m):
    """Generalized binomial n(n-1)...(n-m+1)/m! for any integer n, m >= 0."""
    if m < 0:
        raise ValueError("lower index must be >= 0")
    num = 1
    for j in range(m):
        num *= n - j
    return Fraction(num, math.factorial(m))


# ---------------------------------------------------------------------------
# classical families (explicit closed forms)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hermite_classical(n):
    """H_n(z) = sum_l (-1)**l n! (2z)**(n-2l) / (l! (n-2l)!)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = {}
    for ell in range(n // 2 + 1):
        d = n - 2 * ell
        c = (-1) ** ell * math.factorial(n) * 2**d // (math.factorial(ell) * math.factorial(d))
        coeffs[d] = c
    return ZPolynomial(coeffs)


def laguerre_classical(idx):
    """L_k^{(alpha)}(z) = sum_l (-1)**l C(n, k-l) z**l / l!  with n = k + alpha
    and the generalized falling-factorial binomial (valid for negative n too);
    at an argument c z**j, its z**l coefficient times c**l sits at z**(j l)."""
    return ZPolynomial({ell: (-1) ** ell * falling_binomial(idx.n, idx.k - ell) / math.factorial(ell)
                        for ell in range(idx.k + 1)})


@lru_cache(maxsize=None)
def gegenbauer_classical(n):
    """The lambda = 1 Gegenbauer (Chebyshev second kind) polynomial as
    sum_l cos((n-2l)theta) in the folded cosine basis."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = {}
    for ell in range(n + 1):
        m = abs(n - 2 * ell)
        coeffs[m] = coeffs.get(m, 0) + 1
    return CosPolynomial(coeffs)


# ---------------------------------------------------------------------------
# deformed families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_hermite(n):
    """Deformed Hermite polynomial H_n(z; q).

    Extracted as the t**n coefficient of

        E_{q^-2}(2(1 - q^-2) z t) * e_{q^-4}(-2(1 - q^-4) t**2 / (q(1 + q^-2)))

    scaled by [n]_{q^-2}! * q**(-n/2), working to order n.  Coefficients
    live in Q(s).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    q = RationalFunction.q()
    qm2 = RationalFunction.q_power(-2)
    qm4 = RationalFunction.q_power(-4)
    arg1 = TruncatedSeries.monomial(
        ZPOLY_RING, ZPolynomial({1: (_RF_ONE - qm2) * 2}), 1, n)
    f1 = q_exp_sum("E", arg1, -2)
    c2 = (_RF_ONE - qm4) * (-2) / (q * (_RF_ONE + qm2))
    arg2 = TruncatedSeries.monomial(ZPOLY_RING, ZPolynomial.constant(c2), 2, n)
    f2 = q_exp_sum("e", arg2, -4)
    extracted = f1.product_coeff(f2, n)
    scale = q_factorial(n, -2) * RationalFunction.s_power(-n)
    return extracted.scale(scale)


@lru_cache(maxsize=None)
def q_laguerre(n, k):
    """Deformed Laguerre polynomial L_k^{(n-k)}(z; q).

    Extracted as the t**k coefficient of E_q(-(1-q) z t) * (-q/t; q)_n t**n,
    the second factor expanded by the q-binomial theorem as
    sum_l q**((n-l)(n-l+1)/2) [n over l]_q t**l, then divided by
    q**((n-k)(n-k+1)/2), working to order k.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    q = RationalFunction.q()
    arg = TruncatedSeries.monomial(
        ZPOLY_RING, ZPolynomial({1: -(_RF_ONE - q)}), 1, k)
    efactor = q_exp_sum("E", arg, 1)
    tail = TruncatedSeries(ZPOLY_RING, [
        ZPolynomial.constant(RationalFunction.q_power((n - ell) * (n - ell + 1) // 2)
                             * q_binomial(n, ell, 1))
        for ell in range(min(n, k) + 1)], k)
    extracted = efactor.product_coeff(tail, k)
    return extracted.scale(RationalFunction.q_power(-((n - k) * (n - k + 1) // 2)))


def gegenbauer_weight(k):
    """[lambda]_{q**k} = (1 - Lambda**k)/(1 - q**k) as a rational function."""
    if k < 1:
        raise ValueError("weight index must be >= 1")
    lam = RationalFunction.lam()
    q = RationalFunction.q()
    return (_RF_ONE - lam**k) / (_RF_ONE - q**k)


@lru_cache(maxsize=None)
def q_gegenbauer_direct(n):
    """Deformed Gegenbauer polynomial from its explicit double-Pochhammer
    form: sum_l (L;q)_l (L;q)_{n-l} / ((q;q)_l (q;q)_{n-l}) cos((n-2l)theta)
    with L = Lambda = q**lambda."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    lam_poch = _pochhammers(RationalFunction.lam(), 1, n)  # (L;q)_l, l = 0..n
    q_poch = _pochhammers(RationalFunction.q(), 1, n)  # (q;q)_l
    return CosPolynomial.sum([
        CosPolynomial({abs(n - 2 * ell): lam_poch[ell] * lam_poch[n - ell]
                       / (q_poch[ell] * q_poch[n - ell])})
        for ell in range(n + 1)])


def gegenbauer_genfun_series(order):
    """The generating function exp( 2 sum_k [lambda]_{q**k} cos(k theta)
    t**k / k ) to the given order: its t**n coefficient is the deformed
    Gegenbauer polynomial of degree n, for every n <= order."""
    if order < 0:
        raise ValueError("degree must be >= 0")
    log_series = TruncatedSeries(COSPOLY_RING, [CosPolynomial.zero()] + [
        CosPolynomial({k: gegenbauer_weight(k) * Fraction(2, k)}) for k in range(1, order + 1)], order)
    return log_series.exp()


def q_gegenbauer_genfun(n):
    """Deformed Gegenbauer polynomial by coefficient extraction from its
    generating function, expanded to order n."""
    return gegenbauer_genfun_series(n).coeff(n)
