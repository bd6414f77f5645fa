"""Classical and q-deformed polynomial families.

Each family is an explicit finite sum.  The deformed Hermite and Laguerre
sums are the coefficients of products of Jackson q-exponentials, read off
their defining sums (the connection engines check them); the Gegenbauer
families are also read off their generating function.  The direct Hermite
and Gegenbauer coefficients are built from integer q-rows in lowest terms.

Working bases, both SparsePoly subclasses (the one sparse polynomial
implementation, shared with the abstract rings of the connection module):

  * ZPolynomial  — sparse polynomial in z over Q(s, Lambda); hosts the
    (q-)Hermite and (q-)Laguerre families.
  * CosPolynomial — linear combinations of cos(m*theta) with the product
    folded by cos(a)cos(b) = (cos(a+b) + cos(|a-b|))/2; hosts the
    (q-)Gegenbauer families (lambda enters only through Lambda = q**lambda).

The Gegenbauer generating function is expanded only to the order of the
coefficients read, which do not depend on it, and runs over Z: its
exponential is the q-divided-power kernel (qkernel) on integer numerators
in q, Lambda and w = e**(i theta), each packed into one int, and only the
coefficients read are reduced, once per cos index.  The kernel's log in the
same frame (_log_coefficients) is the deformed side of the sum rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import (
    RationalFunction,
    _coerce_or_raise,
    _pack,
    _power,
    _rows_mul,
    _umul,
    _unorm,
    _unpack_rows,
)
from .qkernel import (
    _cyclotomic_value,
    _divided_powers,
    _lambda_pochhammer_row,
    _poch_exponents,
    _q_pascal_row,
    _q_pochhammer_row,
    _ratio,
    _times_q_number,
)
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
                if not isinstance(m, type(self._unit)):
                    raise TypeError(f"{type(self).__name__} monomials must be {type(self._unit).__name__}, not {type(m).__name__}")
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


def _fsum_complex(values):
    """The sum of complex values, each part correctly rounded (math.fsum), so
    it does not depend on their order: equal polynomials built in different
    term orders evaluate to the same double."""
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


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
        return _fsum_complex([v.eval_numeric(s_value, lam_value) * complex(z_value) ** k
                              for k, v in self._terms.items()])


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
        return _fsum_complex([v.eval_numeric(s_value, lam_value) * math.cos(m * theta)
                              for m, v in self._terms.items()])


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


def _int_binomial(x, m):
    """The generalized binomial x(x-1)...(x-m+1)/m! of ints x and m >= 0, as
    an int."""
    return math.comb(x, m) if x >= 0 else (-1) ** m * math.comb(m - x - 1, m)


def falling_binomial(n, m):
    """Generalized binomial n(n-1)...(n-m+1)/m! for any integer n, m >= 0."""
    if m < 0:
        raise ValueError("lower index must be >= 0")
    return Fraction(_int_binomial(n, m))


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


@lru_cache(maxsize=16)
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
# Whole results are cached with a bound above one verify pass's reuse (9
# degrees, q_laguerre 49 pairs): a long-lived process keeps the latest only.

@lru_cache(maxsize=16)
def q_hermite(n):
    """Deformed Hermite polynomial H_n(z; q): [n]_x! s**-n times the t**n
    coefficient of E_x(2(1 - x) z t) e_{x**2}(-2(1 - x**2) t**2 / (q(1 + x))),
    x = q**-2.  By the defining sums and [l]_{x**2}! (1 + x)**l = prod_{j<=l}
    [2j]_x, its z**m coefficient, m = n - 2l, is the integer x-row

        s**-n q**-l 2**m (-2)**l x**(m(m-1)/2) [n over m]_x prod_{j<=l} [2j-1]_x

    over a power of s, in lowest terms: the x-row has first and last
    coefficient 1, so the numerator has content 2**(m+l) and no factor s."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    binom, odd, terms = _q_pascal_row(n, False), [1], {}  # odd: prod_{j<=l} [2j-1]_x
    for ell in range(n // 2 + 1):
        m = n - 2 * ell
        odd = _times_q_number(odd, 2 * ell - 1) if ell else odd
        c = 2**m * (-2)**ell
        terms[m] = _ratio([[c * x for x in _umul(binom[m], odd)]], [1], -2, -n - 2 * ell - 2 * m * (m - 1))
    return ZPolynomial._raw(terms)


@lru_cache(maxsize=64)
def q_laguerre(n, k):
    """Deformed Laguerre polynomial L_k^{(n-k)}(z; q): q**-((n-k)(n-k+1)/2)
    times the t**k coefficient of E_q(-(1-q) z t) (-q/t; q)_n t**n, the last
    factor sum_l q**((n-l)(n-l+1)/2) [n over l]_q t**l.  By the defining sum
    of E_q it has one term per z**m, m = k - l: that factor's t**l term times
    q**(m(m-1)/2) (-1)**m / [m]_q!, over the same shift: a ratio of
    Pochhammer symbols, in lowest terms from its cyclotomic exponents."""
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    shift = (n - k) * (n - k + 1) // 2
    terms = {}
    for ell in range(min(n, k) + 1):
        m = k - ell
        power = m * (m - 1) // 2 + (n - ell) * (n - ell + 1) // 2 - shift
        terms[m] = _cyclotomic_value((-1) ** m, power, _poch_exponents((n,) + (1,) * m, (ell, n - ell, m)), 1)
    return ZPolynomial._raw(terms)


def gegenbauer_weight(k):
    """[lambda]_{q**k} = (1 - Lambda**k)/(1 - q**k) as a rational function."""
    if k < 1:
        raise ValueError("weight index must be >= 1")
    lam = RationalFunction.lam()
    q = RationalFunction.q()
    return (_RF_ONE - lam**k) / (_RF_ONE - q**k)


@lru_cache(maxsize=16)
def q_gegenbauer_direct(n):
    """Deformed Gegenbauer polynomial from its explicit double-Pochhammer
    form: sum_l (L;q)_l (L;q)_{n-l} / ((q;q)_l (q;q)_{n-l}) cos((n-2l)theta)
    with L = Lambda = q**lambda, so 2 (or 1 at l = n/2) times that fraction
    for cos((n-2l)theta), l <= n/2, from integer q-rows.  The fraction is in
    lowest terms, so qkernel._ratio assembles it with no gcd (coprime=True):
    a common factor is free of Lambda, as the denominator is, so it divides
    the numerator's Lambda**0 term 2 or 1 and the denominator's constant
    term 1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    terms = {}
    for ell in range(n // 2 + 1):
        c = 1 if 2 * ell == n else 2
        num = [[c * x for x in r] for r in _rows_mul(_lambda_pochhammer_row(ell), _lambda_pochhammer_row(n - ell))]
        terms[n - 2 * ell] = _ratio(num, _umul(_q_pochhammer_row(ell), _q_pochhammer_row(n - ell)), coprime=True)
    return CosPolynomial._raw(terms)


# ---------------------------------------------------------------------------
# the Gegenbauer generating function and the sum-rule log over Z
# ---------------------------------------------------------------------------
# With w = e**(i theta), the t**m coefficient b_m of the generating function
# (and of its log) is a Laurent polynomial in w, even under w -> 1/w, whose
# cos(j theta) coefficient is its w**j coefficient, doubled for j > 0.  Its
# numerator G_m = (q;q)_m b_m lies in Z[q, Lambda, w, 1/w], of q-degree at
# most m(m-1)/2 and Lambda-degree at most m.  It is kept as w-cells, {e:
# [q-row per power of Lambda]}, or packed into one int in the frame of an
# order N >= m (Kronecker substitution; Monagan and Pearce, 2010): q**a
# Lambda**b w**e is the digit a + qs*(b + ls*(e + m)/2), qs = N(N-1)/2 + 1,
# ls = N + 1.  Lambda**j is then a shift by j*qs digits, w**j (into degree
# m + j) a shift by j*qs*ls digits and w**-j no shift, the places of the
# q-divided-power kernel (qkernel._divided_powers) in its exp and its log.

def _frame(order):
    """(qs, ls): the q and Lambda strides, in digits, of the order frame."""
    return order * (order - 1) // 2 + 1, order + 1


def _unpack_cells(v, m, order, nbytes, low=0):
    """The nonzero w-cells of the degree-m polynomial packed in v, read to
    q-degree m(m-1)/2 and Lambda-degree m, from w-slot low (e = 2 low - m)
    up; the slots below are dropped unconverted by a balanced shift, exact
    as every digit is below 2**(8*nbytes-1) in magnitude."""
    qs, ls = _frame(order)
    skip = 8 * nbytes * qs * ls * low
    if skip:
        v = (v + (1 << (skip - 1))) >> skip
    return _cells(_unpack_rows(v, nbytes, qs * ls * (m + 1 - low), qs), m, ls, low)


def _cells(rows, m, ls, low=0):
    """The w-cells, as _unpack_cells, of the frame rows given from slot low."""
    return {2 * (k + low) - m: cell for k in range(m + 1 - low)
            if (cell := _unorm([_unorm(r[:m * (m - 1) // 2 + 1]) for r in rows[k * ls:k * ls + m + 1]]))}


def _cos_value(cells, den):
    """The CosPolynomial sum_e cells[e] w**e / den for a q-row den, one
    RationalFunction reduction (qkernel._ratio) per cos index."""
    return CosPolynomial._raw({e: _ratio(rows if not e else [[2 * x for x in r] for r in rows], den)
                               for e, rows in cells.items() if e >= 0})


def _genfun_coefficients(order, degrees):
    """The t**m coefficients, m in degrees, of the Gegenbauer generating
    function expanded to the given order.

    Its exponential is the exp of qkernel._divided_powers in the order frame:
    j a_j = (1 - Lambda**j)(w**j + w**-j)/(1 - q**j), so K_j is (q;q)_{j-1},
    kept in the table, times (1 - Lambda**j)(w**j + w**-j), the row 1 at four
    places.  Only the degrees asked for are read, from their cells with
    e >= 0 (cos indices), and reduced, one RationalFunction per cos index."""
    qs, ls = _frame(order)
    logs = [None] + [{(1,): {0: 1, qs * ls * j: 1, qs * j: -1, qs * (ls + 1) * j: -1}}
                     for j in range(1, order + 1)]
    series, nbytes, _ = _divided_powers([_q_pascal_row(m, True) for m in range(order + 1)], qs, logs)
    return [_cos_value(_unpack_cells(series[m], m, order, nbytes, (m + 1) // 2), _q_pochhammer_row(m))
            for m in degrees]


def _direct_packed(i, binom, blocks, nbytes, slot):
    """G_i = (q;q)_i b_i packed in the order frame, b_i the explicit
    polynomial of degree i: for l <= i/2, its w**(i-2l) and w**-(i-2l) cells
    are both binom[l] = [i over l]_q times the packed blocks[l] and
    blocks[i-l] of (Lambda;q)_l and (Lambda;q)_{i-l}, placed by shifts of
    slot bits per w-slot."""
    g = 0
    for ell in range(i // 2 + 1):
        cell = _pack(binom[ell], nbytes) * blocks[ell] * blocks[i - ell]
        g += cell << (slot * (i - ell))
        if 2 * ell != i:
            g += cell << (slot * ell)
    return g


def _log_coefficients(order, degrees):
    """The t**n coefficients, n in degrees (each 1..order), of the log of the
    series of the explicit deformed polynomials: K_n = n (q;q)_n c_n, the log
    of qkernel._divided_powers in the order frame, given G_m = (q;q)_m b_m
    (_direct_packed) from the (Lambda;q)_l packed once per digit width, with
    |G_i| <= max_l |[i over l]|_1 |(Lambda;q)_l|_1 |(Lambda;q)_{i-l}| (|.| the
    largest coefficient, |.|_1 the sum of absolute values).  Only the c_n
    asked for are reduced, once per cos index."""
    lam = [_lambda_pochhammer_row(ell) for ell in range(order + 1)]
    binoms = [_q_pascal_row(i, False) for i in range(order + 1)]
    norms = [sum(sum(map(abs, r)) for r in rows) for rows in lam]
    tops = [max(max(map(abs, r)) for r in rows) for rows in lam]
    top = [max(sum(binoms[i][ell]) * norms[ell] * tops[i - ell] for ell in range(i // 2 + 1))
           for i in range(order + 1)]
    (qs, ls), blocks = _frame(order), {}  # blocks[nbytes]: the packed (Lambda;q)_l

    def pack(m, nbytes):
        packed_lam = blocks.setdefault(nbytes, [])
        packed_lam += [sum(_pack(r, nbytes) << 8 * nbytes * qs * p for p, r in enumerate(rows))
                       for rows in lam[len(packed_lam):m + 1]]
        return _direct_packed(m, binoms[m], packed_lam, nbytes, 8 * nbytes * qs * ls)

    ks = _divided_powers(binoms, qs, series=(top, pack), read=degrees)[2]
    return [_cos_value(_cells(ks[m], m, ls), [m * x for x in _q_pochhammer_row(m)]) for m in degrees]


def gegenbauer_genfun_series(order):
    """The generating function exp( 2 sum_k [lambda]_{q**k} cos(k theta)
    t**k / k ) to the given order: its t**n coefficient is the deformed
    Gegenbauer polynomial of degree n, for every n <= order.  The
    exponential runs over Z (_genfun_coefficients), with no TruncatedSeries
    exp and no CosPolynomial product."""
    if order < 0:
        raise ValueError("degree must be >= 0")
    return TruncatedSeries(COSPOLY_RING, _genfun_coefficients(order, range(order + 1)), order)


def q_gegenbauer_genfun(n):
    """Deformed Gegenbauer polynomial by coefficient extraction from its
    generating function, expanded to order n; only the t**n coefficient is
    reduced."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _genfun_coefficients(n, (n,))[0]
