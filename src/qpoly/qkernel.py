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
    whose coefficients come from the exp of _divided_powers, composed with
    the argument by the power sum that the defining sums use too.

The q-numbers, q-factorials, q-binomials, Quesne coefficients, the
defining sums' coefficients and the q-Laguerre terms (families) are closed
forms c q**p prod_d Phi_d(v)**e_d over cyclotomic polynomials, assembled in
lowest terms by _cyclotomic_value with no polynomial gcd, from rows built
once per exponent vector and cached as tuples.  Every RationalFunction
built from integer rows (here, in families and in connection) comes from
one assembly, _ratio.  Every q-row table, [n over l] (_q_pascal_row),
(q;q)_k (_q_pochhammer_row) and (Lambda;q)_l (_lambda_pochhammer_row), is
one cached row per index, built from the row before it and shared by every
order: no caller changes one.

_divided_powers is the one q-divided-power loop over Z: its exp gives the
product forms and the Gegenbauer generating function (families), its log
the deformed side of the sum rules (connection).

A base is given by its integer exponent base_exp: the base is q**base_exp
(1, -2 and -4 in the paper), an ordinary rational function of s, and
base_exp = 0 (the base 1) raises ValueError.  No |q| < 1 assumption is made
anywhere — all identities here are exact rational-function identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub

from . import field
from .field import (RationalFunction, _content_gcd, _maxabs, _pack, _raw_poly, _rf_raw, _uadd, _umul, _unorm,
                    _unpack_rows, _uval, _widen, _width)
from .series import NonzeroConstantTerm, TruncatedSeries


class IndexOutOfRange(ValueError):
    """q-binomial index outside 0 <= k <= n."""


_ONE = RationalFunction.one()
_ZERO = RationalFunction.zero()


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
    return _cyclotomic_value(min(n, 1), 0, _poch_exponents((n,), (n - 1, 1)), base_exp)


@lru_cache(maxsize=None)
def q_factorial(n, base_exp=1):
    """[n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return _cyclotomic_value(1, 0, _poch_exponents((n,), (1,) * n), base_exp)


def q_binomial(n, k, base_exp=1):
    """[n over k] = [n]!/([k]![n-k]!), a polynomial in the base."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"q_binomial({n}, {k})")
    return _cyclotomic_value(1, 0, _poch_exponents((n,), (k, n - k)), base_exp)


def q_pochhammer(a, base_exp, n):
    """(a; base)_n = prod_{k=0..n-1} (1 - a*base**k); empty product is 1."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    v, out = _base(base_exp), _ONE
    for _ in range(n):
        out = out * (_ONE - a)
        a = a * v
    return out


@lru_cache(maxsize=None)
def quesne_c(k, base_exp=1):
    """c_k = (1 - base)**(k-1) / (k * [k]), the product-expansion coefficients."""
    if k < 1:
        raise ValueError("quesne_c needs k >= 1")
    return _cyclotomic_value(Fraction(1, k), 0, _poch_exponents((k - 1,) + (1,) * k, (k,)), base_exp)


# ---------------------------------------------------------------------------
# closed forms over cyclotomic exponents
# ---------------------------------------------------------------------------
# With Phi_1 read as 1 - v, 1 - v**k = prod_{d|k} Phi_d(v) and (v;v)_n =
# prod_d Phi_d**floor(n/d).  A ratio of Pochhammer symbols is then an
# exponent vector ((d, e), ...), and cancelled exponents are lowest terms:
# distinct Phi_d are coprime, even as polynomials in s (no root of unity is a
# primitive root of two orders), and each has constant term 1 and content 1.
# The rows of an exponent vector are built once (_cyclotomic_rows, cached,
# as tuples) and shared by the closed forms, as each [n]! row
# (_q_factorial_row) is by the Laguerre total and the quotient kernel.

def _poch_exponents(tops, bottoms):
    """((d, e), ...) ascending in d: prod (v;v)_t over prod (v;v)_b as powers
    of Phi_d(v), each distinct argument counted once with its multiplicity."""
    counts = {t: tops.count(t) - bottoms.count(t) for t in {*tops, *bottoms}}
    return tuple((d, e) for d in range(1, max(counts, default=0) + 1)
                 if (e := sum([c * (t // d) for t, c in counts.items()])))


@lru_cache(maxsize=None)
def _cyclotomic_factors(d):
    """Phi_d(x), d >= 2, or 1 - x for d = 1, as {m: e} with Phi_d =
    prod_m (1 - x**m)**e (e = mu(d/m)): 1 - x**d over the factors of its
    proper divisors."""
    out = {d: 1}
    for m in range(1, d // 2 + 1):
        if not d % m:
            for k, e in _cyclotomic_factors(m).items():
                out[k] = out.get(k, 0) - e
    return {k: e for k, e in out.items() if e}


@lru_cache(maxsize=None)
def _cyclotomic_rows(exps):
    """The v-rows, as tuples, of prod_d Phi_d**e over the positive and over
    the negative exponents of exps = ((d, e), ...): each a product of factors
    1 - v**m, multiplied by shifts and then divided out exactly by running
    sums.  Built once per exponent vector and shared: no caller changes them."""
    rows = []
    for side in (1, -1):
        powers = {}
        for d, e in exps:
            if side * e > 0:
                for m, f in _cyclotomic_factors(d).items():
                    powers[m] = powers.get(m, 0) + side * e * f
        row = [1]
        for m in sorted(powers, key=powers.get, reverse=True):  # every product before a division
            for _ in range(abs(powers[m])):
                row = (_times_one_minus if powers[m] > 0 else _divide_one_minus)(row, m)
        rows.append(tuple(row))
    return tuple(rows)


def _cyclotomic_value(c, p, exps, b):
    """c q**p prod_d Phi_d(v)**e over exps = ((d, e), ...), v = q**b, for a
    rational c (int or Fraction) and int exponents, as the canonical
    RationalFunction (see above), with no gcd as c is in lowest terms."""
    _base(b)  # base 1 is rejected
    if not c:
        return _ZERO
    num, den = _cyclotomic_rows(exps)  # shared tuples: _ratio changes no row
    if c != 1:
        num, den = [c.numerator * x for x in num], [c.denominator * x for x in den]
    return _ratio([num], den, b, 2 * p, coprime=True)


def _power_sum(argument, coeff):
    """sum_k coeff(k) * argument**k to the argument's order; the argument has
    zero constant term, so the sum stops once its power is 0.  A one-term
    argument c t**d puts coeff(k) c**k at t**(d k), with no series product;
    otherwise the running power starts at the argument, so no product has
    the unit series as an operand."""
    ring, order = argument.ring, argument.order
    if argument.coeffs[0] != ring.zero:
        raise NonzeroConstantTerm("q-exponential argument needs zero constant term")
    terms = [(d, c) for d, c in enumerate(argument.coeffs) if c != ring.zero]
    if len(terms) == 1:
        (d, c), = terms
        coeffs = [ring.zero] * (order + 1)
        coeffs[0], power = ring.one * coeff(0), c
        for k in range(1, order // d + 1):
            if k > 1:
                power = power * c
            coeffs[d * k] = power * coeff(k)
        return TruncatedSeries(ring, coeffs, order)
    parts = [TruncatedSeries.one(ring, order).scale(coeff(0))]
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

    def coeff(n):  # base**tri / (base; base)_n
        tri = n * (n - 1) // 2 if kind == "E" else 0
        return _cyclotomic_value(1, base_exp * tri, _poch_exponents((), (n,)), base_exp)

    return _power_sum(argument, coeff)


def q_exp_product_form(kind, argument, base_exp):
    """Jackson q-exponential as exp of its explicit log-series, over Z
    (_exp_coefficients) and composed with the argument."""
    if kind not in ("e", "E"):
        raise ValueError("kind must be 'e' or 'E'")
    sign = -1 if kind == "E" else 1
    e = _exp_coefficients(lambda k: [sign ** (k + 1)], base_exp, argument.order)
    return _power_sum(argument, e.__getitem__)


def quesne_series(argument, base_exp):
    """exp( sum_k c_k(base) * argument**k ): the product-of-exponentials
    form of the physicists' q-exponential sum_n z**n/[n]!."""
    e = _exp_coefficients(lambda k: [(-1) ** i * math.comb(k, i) for i in range(k + 1)],
                          base_exp, argument.order)  # k c_k (1 - v**k) = (1 - v)**k
    return _power_sum(argument, e.__getitem__)


def _exp_coefficients(weight, base_exp, order):
    """e_0..e_order of exp(sum_k a_k z**k), for integer v-rows w_k =
    weight(k) = k a_k (1 - v**k), v = q**base_exp: G_n = (v;v)_n e_n from the
    exp of _divided_powers, K_j = (v;v)_{j-1} w_j with (v;v)_{j-1} in the
    table and w_j's coefficients as places, every step read.  Each e_n =
    G_n / (v;v)_n is reduced once, after the factors 1 - v common to both are
    divided out by running sums.  As exp(sum_k a_k f**k) = sum_n e_n f**n,
    composing with an f of zero constant term is exact."""
    _base(base_exp)
    logs = [None] + [{(1,): {i: c for i, c in enumerate(weight(k)) if c}} for k in range(1, order + 1)]
    binoms = [_q_pascal_row(n, True) for n in range(order + 1)]
    rows = _divided_powers(binoms, None, logs, read=range(order + 1))[2]
    out = []
    for num, den in zip([[1]] + [_unorm(rows[n][0]) for n in range(1, order + 1)],
                        map(_q_pochhammer_row, range(order + 1))):
        while num and not sum(num) and not sum(den):  # both vanish at v = 1
            num, den = list(accumulate(num))[:-1], list(accumulate(den))[:-1]
        out.append(_ratio([num], den, base_exp))
    return out


def _divided_powers(binoms, width, logs=None, series=None, read=()):
    """Solve n G_n = sum_{j=1..n} [n over j]_x K_j G_{n-j}, G_0 = 1, over Z,
    that is b = exp(sum_j a_j t**j) with G_n = (x;x)_n b_n and K_j =
    j (x;x)_j a_j (Keigher, Comm. Algebra 25, 1997), on packed ints: digit i
    is the coefficient of x**(i mod width) in frame monomial i div width.
    binoms lists _q_pascal_row(n, pochhammer) for n = 0..order, whose entries
    may hold a factor of every K_j.  K_j is {x-row: {digit shift:
    coefficient}}; a row (1,) is the table entry itself.

    Given logs[j] = K_j (exp), a remainder by n raises ArithmeticError: of
    the packed total each step, of any digit on a step read.  Given series =
    (tops, pack), G_m = pack(m, nbytes) with coefficients at most tops[m]
    (log), each K_n = n G_n - sum_{j<n} is unpacked.  The digits hold the
    rows packed, G_n and any total unpacked by the bound sum |[n over j] r|_1
    |places|_1 |G_{n-j}| (+ n |G_n| in the log; over n for G_n in the exp),
    |.| the largest coefficient, |.|_1 the sum of absolute values; a wider
    step widens the G (_widen).  Returns the G and their width in bytes, and
    {n: digit rows of G_n or K_n, width digits a row (None: one)} for n in
    read."""
    log, logs = logs is None, logs or [None]
    tops, pack = series or ([1], None)
    packed, nbytes, out = [1], 1, {}
    for n in range(1, len(binoms)):
        terms = [(n - j, binoms[n][j] if row == (1,) else _umul(binoms[n][j], list(row)), places)
                 for j in range(1, n + 1 - log) if tops[n - j] for row, places in logs[j].items() if places]
        bound = sum([sum(map(abs, row)) * sum(map(abs, places.values())) * tops[m] for m, row, places in terms])
        if log:
            bound += n * tops[n]
        else:
            tops.append(bound // n)
        unpack = log or n in read
        # every row packed meets a G != 0 and a place, so a bound on an unpacked total holds it too
        need = bound if unpack else max([tops[n]] + [_maxabs(row) for _, row, _ in terms])
        wider = _width(need.bit_length())
        if wider > nbytes:
            for m, g in enumerate(packed):  # in place: one G at a time is copied
                packed[m] = _widen(g, abs(g).bit_length() // (8 * nbytes) + 1, nbytes, wider)
            nbytes = wider
        total, digit = 0, 8 * nbytes
        for m, row, places in terms:
            prod = packed[m] * _pack(row, nbytes)
            for shift, c in places.items():  # a shift 0 and c = +-1 take no copy and no product
                placed = prod << digit * shift if shift else prod
                total = total + placed if c == 1 else total - placed if c == -1 else total + c * placed
        if log:
            packed.append(pack(n, nbytes))
            total = n * packed[n] - total
        else:
            g, rem = divmod(total, n)
            if rem:
                raise ArithmeticError(f"{n} does not divide n G_n")
            packed.append(g)
        if unpack:
            count = abs(total).bit_length() // (8 * nbytes) + 1
            rows = _unpack_rows(total, nbytes, count, width or count)
            if not log and any(c % n for r in rows for c in r):
                raise ArithmeticError(f"{n} does not divide every digit of n G_n")
            if log:
                logs.append({})
                for i, r in enumerate(rows):
                    if _unorm(r):
                        sign = 1 if r[-1] > 0 else -1
                        logs[n].setdefault(tuple(sign * x for x in r), {})[width * i] = sign
            if n in read:
                out[n] = rows if log else [[c // n for c in r] for r in rows]
    return packed, nbytes, out


# ---------------------------------------------------------------------------
# q-rows: integer polynomials in one variable x as lists, ascending powers
# ---------------------------------------------------------------------------
# The integer routes (the connection totals, the Gegenbauer generating
# function and sum-rule log) keep their q-polynomials as x-rows, x = q (or
# q**-2 for Hermite), and build a RationalFunction only at the end (_ratio).

def _times_q_number(row, a):
    """row * [a] for an x-row: a window sum."""
    return [sum(row[max(0, i - a + 1):i + 1]) for i in range(len(row) + a - 1)]


@lru_cache(maxsize=None)
def _q_factorial_row(n):
    """[n]! as an x-row tuple (ascending powers): (x;x)_n / (1 - x)**n."""
    return _cyclotomic_rows(_poch_exponents((n,), (1,) * n))[0]


def _times_one_minus(row, m):
    """row * (1 - x**m) for an x-row: a shifted difference."""
    return list(map(sub, row + [0] * m, [0] * m + row))


def _divide_one_minus(row, m):
    """row / (1 - x**m) for an x-row: a running sum with stride m.  Its top
    m entries are the remainder: if one is nonzero, ArithmeticError."""
    r = list(row)
    for i in range(m):
        r[i::m] = accumulate(r[i::m])
    if any(r[len(r) - m:]):
        raise ArithmeticError(f"1 - x**{m} does not divide the row")
    del r[len(r) - m:]
    return r


@lru_cache(maxsize=None)
def _q_pochhammer_row(k):
    """(q;q)_k as a q-row: the cached (q;q)_{k-1} times 1 - q**k."""
    return _times_one_minus(_q_pochhammer_row(k - 1), k) if k else [1]


@lru_cache(maxsize=None)
def _q_pascal_row(n, pochhammer):
    """[n over j]_x for 0 <= j <= n, times (x;x)_{j-1} for j >= 1 if
    pochhammer.  By q-Pascal, [n over j] = [n-1 over j-1] + x**j [n-1 over j]:
    an entry is the one above-left, times 1 - x**(j-1) for j >= 2 if
    pochhammer, plus x**j times the one above, from the cached row n - 1;
    shifts and adds.  The flag is positional, so each row has one cache
    key."""
    if not n:
        return [[1]]
    above, row = _q_pascal_row(n - 1, pochhammer) + [[]], [[1]]
    for j, a, b in zip(range(1, n + 1), above, above[1:]):
        k = j - 1 if pochhammer else 0
        row.append(_uadd(_times_one_minus(a, k) if k else a, [0] * j + b if b else b))
    return row


@lru_cache(maxsize=None)
def _lambda_pochhammer_row(ell):
    """(Lambda;q)_l as q-rows, one per power of Lambda: the cached
    (Lambda;q)_{l-1} times 1 - Lambda q**(l-1)."""
    if not ell:
        return [[1]]
    last = _lambda_pochhammer_row(ell - 1)
    shifted = [[0] * (ell - 1) + [-x for x in r] for r in last]  # -Lambda q**(l-1) times the last
    return [[1]] + [_uadd(a, b) for a, b in zip(last[1:], shifted)] + shifted[-1:]


def _ratio(rows, den, b=1, s_power=0, coprime=False):
    """The canonical RationalFunction s**s_power sum_p rows[p](v) Lambda**p /
    den(v), v = q**b, from int v-rows (lists or tuples, none changed; no
    trailing zeros or empty rows) and a nonzero v-row den.  A power of v on
    either side goes into the power of s; the input decides the common
    factor taken out of the v-rows: an int den shares only an int, rows
    coprime by the caller's argument (coprime=True) nothing, any other den
    the polynomial gcd.  Each row is then placed once (_s_row)."""
    if not rows:
        return _ZERO
    if not (rows[0] and rows[0][0] and den[0]):
        low, dlow = min([_uval(r) for r in rows if r]), _uval(den)
        s_power += 2 * b * (low - dlow)
        rows, den = [r[low:] for r in rows], den[dlow:]
    if not coprime and len(den) == 1:
        g = _content_gcd(rows, den[0])
        if g != 1:
            rows, den = [[c // g for c in r] for r in rows], [den[0] // g]
    elif not coprime:  # on field, so a patch of field._gcd_cof reaches it as it does RationalFunction
        _, fn, fd = field._gcd_cof(_raw_poly(rows), _raw_poly([den]))
        rows, (den,) = fn._rows, fd._rows
    top, dtop = (max(map(len, rows)), len(den)) if b < 0 else (0, 0)  # for b < 0 the rows are reversed
    s_power += 2 * b * (top - dtop)
    if (den[0] if b < 0 else den[-1]) < 0:
        rows, den = [[-c for c in r] for r in rows], [-c for c in den]
    k, lift = 2 * abs(b), max(s_power, 0)
    num = [_s_row(r, k, lift, top) if r else [] for r in rows]
    return _rf_raw(_raw_poly(num), _raw_poly([_s_row(den, k, lift - s_power, dtop)]))


def _s_row(row, k, shift, top=0):
    """The s-row of s**shift row(s**k), or given top >= len(row), of
    s**shift (s**k)**(top - 1) row(s**-k): for b < 0, a v-row of degree d is
    v**d times its reverse in 1/v = q**-b."""
    n = top or len(row)
    out = [0] * (shift + k * n - k + 1)
    out[shift + k * (n - len(row))::k] = reversed(row) if top else row
    return _unorm(out)
