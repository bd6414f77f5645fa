"""Partition enumeration and the three connection-formula engines.

Every engine expresses a deformed polynomial as a finite sum of products of
classical polynomials, indexed by the solutions of a Diophantine partition
relation:

  * Hermite:  sum_k k*n_k = n.  The per-factor parameters contain radicals,
    but the combinations u_k = 2*zeta_k*tau_k and v_k = tau_k**2 are rational,
    and each partition's grouped value follows from the classical rewrite
    H_m(zeta) tau**m / m! = sum_d h_d u**d v**((m-d)/2) / (m! 2**d), read
    off the coefficients h_d of the classical H_m(z).  Its terms, their part
    counts packed in one int, are summed over Z, as integer q-multinomial
    quotients in q**-2.
  * Laguerre:  sum_j j*(k_j + l_j) + l = k, with one free auxiliary integer
    n_j per order j, which only the rows take.  The total is the prefactor
    sum_l q**p_l [n over l] t**l times prod_j exp(-c_j z**j t**j), free of
    the n_j (Vandermonde), whose t**w terms are integer cycle weights at
    z**w: so the t**l term meets z**(k-l) alone, summed over Z as integer
    q-multinomial quotients in q and reduced over D! [D]!, D = k - l.  The
    rows are the classical products, scaled, and sum to it for every choice.
  * Gegenbauer: the log of the deformed generating function is the classical
    log rescaled per t-order by beta_k = [lambda]_{q**k}.  Exponentiating
    symbolically over polynomials in abstract generators beta_k and abstract
    classical factors C_m yields the connection for any n, plus the per-order
    sum rules.  The exponential is prod_k exp(beta_k a_k t**k): one term per
    partition f of n, prod_k A_k**f_k of the integer logs A_k = k*a_k, over
    Z on packed monomials.  Its value is summed over Z per weight monomial
    prod_k beta_k**e_k: the classical products are integer Laurent rows in w
    = e^{i theta}, each weight is a numerator over (q;q)_n with integer
    q-multinomial quotients in q, and each cos(j theta) coefficient is
    reduced once.  At beta_k = lambda it is the binomial series of (1 +
    sum_m C_m t**m)**lambda, read by the multinomial theorem over the same
    partitions.  The deformed side of the sum rules is the log of the
    explicit polynomials over Z (families._log_coefficients), the classical
    side sum_l 2 cos(l theta) t**l / l in closed form.

Every expansion's terms and total are in the normalization of the polynomial
itself; each engine keeps its total, builds its rows only when `terms` is
read, and builds each distinct building block once per call.  One prefix
walk, _prefix_walk, forms every product over the parts of a key, each
distinct prefix once from its parent: the Gegenbauer products, each quotient
[n]!/prod [a] of the kernel _quotient_sums (one exact division of packed rows
per prefix, checked by its remainder only, so the dual-route checks stay the
oracle; each key's powers of 1 - x by Horner), and through _products the
Hermite part choices, the Laguerre rows, the Gegenbauer classical rows and
Lambda factors, and BetaPolynomial.substitute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby, product
from operator import add, index, mul

from .field import _digits, _pack, _umul, _unorm, _width
from .families import (
    COSPOLY_RING,
    CosPolynomial,
    LaguerreIndex,
    SparsePoly,
    ZPolynomial,
    _cos_value,
    _int_binomial,
    _log_coefficients,
    gegenbauer_weight,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
)
from .qkernel import (
    _q_factorial_row,
    _q_pascal_row,
    _q_pochhammer_row,
    _ratio,
    _times_one_minus,
    _times_q_number,
    quesne_c,
)
from .series import TruncatedSeries, ring_sum

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSolution:
    """One solution {n_k} of sum_k k*n_k = n, as ((k, n_k), ...) with k
    ascending and every n_k >= 1."""

    parts: tuple

    def label(self):
        return ", ".join(f"n{k}={m}" for k, m in self.parts) or "empty"


def _multiplicities(n, top):
    """The partitions of n into parts at most top as ((k, n_k), ...) with k
    descending and every n_k >= 1, ordered lexicographically by parts
    descending: n_k runs down for each largest part k."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, top), 0, -1):
        for m in range(n // k, 0, -1):
            for rest in _multiplicities(n - k * m, k - 1):
                yield ((k, m),) + rest


@lru_cache(maxsize=16)
def partitions_of(n):
    """All integer partitions of n as multiplicity maps, ordered
    lexicographically by parts descending ([n] first, [1,...,1] last)."""
    if n < 0:
        raise ValueError("partition target must be >= 0")
    return tuple(PartitionSolution(parts[::-1]) for parts in _multiplicities(n, n))


@dataclass(frozen=True)
class LaguerrePartitionSolution:
    """One solution of sum_j j*(k_j + l_j) + l = k with 0 <= l <= n."""

    ell: int
    kparts: tuple  # ((j, k_j), ...), k_j >= 1, j ascending
    lparts: tuple  # ((j, l_j), ...), l_j >= 1, j ascending

    def label(self):
        bits = [f"k{j}={v}" for j, v in self.kparts]
        if self.ell:
            bits.append(f"l={self.ell}")
        bits += [f"l{j}={v}" for j, v in self.lparts]
        return ", ".join(bits) or "empty"


def laguerre_partitions(n, k):
    """All solutions of the Laguerre partition relation for target k with
    0 <= l <= n, in a deterministic order."""
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    out = []
    for ell in range(min(n, k) + 1):
        for weighted in partitions_of(k - ell):
            # split each total s_j = k_j + l_j into the two kinds, k_j running down
            for kjs in product(*[range(s, -1, -1) for _, s in weighted.parts]):
                combo = [(j, kj, s - kj) for (j, s), kj in zip(weighted.parts, kjs)]
                out.append(LaguerrePartitionSolution(ell, tuple((j, kj) for j, kj, _ in combo if kj),
                                                     tuple((j, lj) for j, _, lj in combo if lj)))
    return tuple(out)


# ---------------------------------------------------------------------------
# expansion containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionTerm:
    """One row of a connection expansion.

    descriptor  — the partition solution (or C-monomial) indexing the row
    coefficient — scalar prefactor; rational function for Laguerre rows,
                  a BetaPolynomial for Gegenbauer rows, None when the value
                  absorbs everything (Hermite rows)
    value       — the row's polynomial value (None for abstract rows)
    """

    descriptor: object
    coefficient: object
    value: object


@dataclass(frozen=True)
class ConnectionExpansion:
    """The degree n, and terms plus exact total, both in the normalization of
    the polynomial itself.  `make_terms` returns the tuple of terms; it is called
    on each read of `terms`, so an expansion of any engine holds no rows it
    has handed out, only its total and what its rows are built from."""

    n: int
    make_terms: object
    total: object

    @property
    def terms(self):
        return self.make_terms()

    def rescaled_total(self):
        """The total: every expansion is in the polynomial's own
        normalization."""
        return self.total


def _prefix_walk(keys, root, step):
    """Yield (key, value) per key in sorted order: value is step(parent,
    key[-1]), parent the value of key[:-1], and root for ().  Only the
    current path is kept, so step runs once per distinct nonempty prefix."""
    path, prev = [root], ()  # path[i]: the value of prev[:i]
    for key in sorted(keys):
        common = 0
        for p, r in zip(prev, key):
            if p != r:
                break
            common += 1
        del path[common + 1:]
        for part in key[common:]:
            path.append(step(path[-1], part))
        prev = key
        yield key, path[-1]


def _products(keys, block, times, unit):
    """The prefix walk of (key, prod block(*part) over its parts), unit for
    (): each distinct part's block is built once, and a one-part prefix is
    its block, so no product has the unit as an operand."""
    blocks = {part: block(*part) for part in {part for key in keys for part in key}}
    return _prefix_walk(keys, unit, lambda p, part: blocks[part] if p is unit else times(p, blocks[part]))


# ---------------------------------------------------------------------------
# q-multinomial quotients over Z (the Hermite, Laguerre and Gegenbauer sums)
# ---------------------------------------------------------------------------
# The Hermite and Laguerre totals and the Gegenbauer value weigh their terms
# by powers of 1 - x times the quotients Q_mu = [n]! / prod_{a in mu} [a], [a]
# = [a]_x, for partitions mu of n, or of at most n for Laguerre (Hermite in x
# = q**-2, the others in x = q).  Q_mu is a q-multinomial coefficient times
# prod [a - 1]! and times [n]!/[|mu|]! (Andrews, The Theory of Partitions,
# 1976, ch. 3): an x-row with nonnegative coefficients summing to n!/prod a.
# So the three sums run over Z, with no polynomial gcd before the one
# reduction per z-power or cos index.  A key mu keeps the parts above 1 (as
# [1] = 1), largest first.

def _quotient_sums(n, uses, order=None):
    """Per key, the x-row of sum c (1 - x)**E Q_mu over the entries {(key,
    E): c} of every uses[mu] (one per (key, E), c a nonzero int), without
    trailing zeros; a key whose sum is 0 is absent.  Rows are packed ints,
    evaluated at xi = 2**(8*nbytes), a ring map: [n]! is packed once, and
    each Q_mu (_prefix_walk) is its parent prefix's divided by the packed [a]
    = (xi**a - 1)/(xi - 1).  A nonzero remainder raises ArithmeticError; a
    zero one is necessary, not sufficient, for an exact division of rows, so
    the dual-route checks stay the oracle.  nbytes holds n! (the coefficient
    sum of [n]!) and sum |c| (n!/prod mu) 2**E, a bound on every coefficient
    of a key's row.  A key's c Q_mu are summed per E, and the sums joined by
    Horner in E down to its least E, each step times 1 - xi a shifted
    difference, then times (1 - xi)**(least E); only the result is
    unpacked, to its own top digit.  With order, each key's sum is
    also divided, with the same check, by [n]!/[m]! = prod_{a=m+1..n} [a] for
    m = order(key): its terms are then c (1 - x)**E [m]!/prod [a], which
    needs the parts of every mu of the key to sum to at most m, and its
    coefficients are bounded as the key's."""
    top, bound = math.factorial(n), {}
    for mu, entries in uses.items():
        size = top // math.prod(mu)
        for (key, e), c in entries.items():
            bound[key] = bound.get(key, 0) + (abs(c) * size << e)
    nbytes = _width(max(top, *bound.values()).bit_length())
    xi = 1 << (8 * nbytes)

    def exact(v, divisor, name, *args):
        quotient, remainder = divmod(v, divisor)
        if remainder:
            raise ArithmeticError(name.format(*args) + " does not divide the row")
        return quotient

    sums = {}  # key -> {E: packed sum of the c Q_mu}, then its packed row
    for mu, packed in _prefix_walk(uses, _pack(_q_factorial_row(n), nbytes),
                                   lambda v, a: exact(v, ((1 << (8 * nbytes * a)) - 1) // (xi - 1), "[{}]_x", a)):
        for (key, e), c in uses[mu].items():
            by_power = sums.setdefault(key, {})
            by_power[e] = by_power.get(e, 0) + c * packed
    for key, by_power in sums.items():  # Horner from the top E down to the least: acc (1 - xi) + sum
        acc, least = 0, min(by_power)
        for power in range(max(by_power), least - 1, -1):
            acc += by_power.get(power, 0) - (acc << 8 * nbytes)
        sums[key] = acc * (1 - xi) ** least
    if order is not None:
        ratios = {n: 1}  # m -> [n]!/[m]! packed
        for key, v in sums.items():
            m = order(key)
            for a in range(min(ratios), m, -1):
                ratios[a - 1] = ratios[a] * (((1 << (8 * nbytes * a)) - 1) // (xi - 1))
            sums[key] = exact(v, ratios[m], "[{}]!/[{}]!", n, m)
    return {key: _digits(v, nbytes) for key, v in sums.items() if v}


# ---------------------------------------------------------------------------
# Hermite connection (radical-free grouped rows, over Z)
# ---------------------------------------------------------------------------
# A row multiplies, over the parts (k, m) of one partition, the classical
# rewrite H_m(zeta) tau**m / m! = sum_d h_d u**d v**e / (m! 2**d), e =
# (m - d)/2, with u_k = 2 zeta_k tau_k = (-1)**(k+1) 2**k c_k(q**-2) and
# v_k = tau_k**2 = (-1)**(k+1) (2q/(1 + q**2))**k c_k(q**-4).  By quesne_c,
# with x = q**-2, [a] = [a]_x and b_k = (-1)**(k+1) 2**k / k,
#
#     u_k = b_k (1 - x)**(k-1) / [k],   v_k = b_k q**-k (1 - x)**(k-1) / [2k].
#
# So a row term (d_k chosen per part, at z**j with j = sum_k k d_k, t =
# (n - j)/2) times the normalization [n]! s**-n of H_n(z; q) is
#
#     c s**(-n-2t) (1 - x)**(n-t-|mu|) Q_mu,
#
# c rational and mu the partition of n into d_k parts k and e_k parts 2k.

@lru_cache(maxsize=None)
def _hermite_u(k):
    """u_k as (b_k, a) with a = k, for b_k (1 - x)**(k-1) q**(k-a) / [a]."""
    return Fraction((-1) ** (k + 1) * 2**k, k), k


@lru_cache(maxsize=None)
def _hermite_v(k):
    """v_k as (b_k, a) with a = 2k, read as for u_k."""
    return _hermite_u(k)[0], 2 * k


def _hermite_tables(n):
    """Per partition of n, in partitions_of order (the walk's sorted one
    reversed), its row terms (j, key, E, a, b), one per choice of each part,
    by the prefix walk (_multiplicities order): key holds the count of each
    part a > 1 of mu in field a, n.bit_length() bits wide, and E = sum (d +
    e)(k - 1).  a/b is left unreduced: _hermite_values scales each key by the
    lcm of its b, and _ratio divides out the content of its sum."""
    def choices(k, m):  # h b_k**(d+e) / (m! 2**d) as ints, b_k that of u_k and v_k
        (b, au), (_, av), w = _hermite_u(k), _hermite_v(k), n.bit_length()
        options = []
        for d, h in hermite_classical(m)._terms.items():
            e = (m - d) // 2
            a, c = h.num._rows[0][0] * b.numerator ** (d + e), math.factorial(m) * 2**d * b.denominator ** (d + e)
            g, key = math.gcd(a, c), (d << w * au if au > 1 else 0) + (e << w * av)
            options.append((k * d, key, (d + e) * (k - 1), a // g, c // g))
        return options

    def join(row, options):  # terms in the order of the product taken smallest part first
        return [(kd + j, kk + key, ke + e, ca * a, cb * b) for kd, kk, ke, ca, cb in options for j, key, e, a, b in row]

    return [row for _, row in _products(list(_multiplicities(n, n)), choices, join, [(0, 0, 0, 1, 1)])][::-1]


def _parts(key, n):
    """The parts, largest first, of a count key (field a, n.bit_length() bits
    wide, holds the count of part a): a Hermite mu or a Gegenbauer monomial."""
    w, parts = n.bit_length(), []
    while key:  # the highest nonzero field a, then the fields below it
        a = (key.bit_length() - 1) // w
        parts += [a] * (key >> w * a)
        key &= (1 << w * a) - 1
    return tuple(parts)


def _hermite_values(n, tables):
    """Per table, the sum of its terms (j, key, E, a, b), each a/b z**j
    s**(-n-2t) (1 - x)**E Q_mu, mu read once per distinct count key: one
    quotient kernel call over the keys (table index, z-power), each key's sum
    over the lcm of its b as one RationalFunction over an integer times a
    power of s, in lowest terms by the integer gcd alone (_ratio)."""
    scale = {}  # (table index, j) -> lcm of the b
    for i, terms in enumerate(tables):
        for j, _, _, _, b in terms:
            scale[i, j] = math.lcm(scale.get((i, j), 1), b)
    uses = {}  # count key -> {((table index, j), E): c}, equal entries merged
    for i, terms in enumerate(tables):
        for j, key, e, a, b in terms:
            entries, entry = uses.setdefault(key, {}), ((i, j), e)
            if c := entries.pop(entry, 0) + a * (scale[i, j] // b):
                entries[entry] = c
    values = [{} for _ in tables]
    for (i, j), row in _quotient_sums(n, {_parts(key, n): entries for key, entries in uses.items()}).items():
        values[i][j] = _ratio([row], [scale[i, j]], -2, j - 2 * n)
    return [ZPolynomial._raw(value) for value in values]


@lru_cache(maxsize=16)
def hermite_connection(n):
    """Expansion of the deformed Hermite polynomial over partition solutions.

    Each term is the grouped value of one partition {n_k} (the classical
    product H_{n_1}(zeta_1) H_{n_2}(zeta_2)... with its prefactors, all
    radicals cancelled) in the normalization of H_n(z; q), and the total
    equals q_hermite(n).  The total and the rows, made again on each read of
    `terms`, are one quotient kernel call each (_hermite_values), so a cached
    expansion keeps only its total.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    total, = _hermite_values(n, [[term for table in _hermite_tables(n) for term in table]])

    def rows():
        return tuple(ConnectionTerm(sol, None, value)
                     for sol, value in zip(partitions_of(n), _hermite_values(n, _hermite_tables(n))))

    return ConnectionExpansion(n, rows, total)


# ---------------------------------------------------------------------------
# Laguerre connection (auxiliary integers)
# ---------------------------------------------------------------------------

# The total sums every row at once: it is the t**k coefficient of the product
# form sum_l q**p_l [n over l] t**l * prod_j exp(-c_j z**j t**j).  The rows
# split exp(-x t) = (1 + t)**(-n_j) sum_i L_i^{(n_j - i)}(x) t**i, and the
# x**d coefficient of its t**m term is (-1)**d / d! times sum_i binom(-n_j,
# m - i) binom(n_j, i - d) = [d = m] (Vandermonde), so the total takes no
# n_j.  As c_j = (1 - q)**(j-1) / (j [j]_q), a choice of the t**(j m) term of
# each factor j gives z**D (D = sum j m) times c (1 - q)**E Q_mu / (D! [k]!),
# with E = sum (j - 1) m, mu the partition of D into m parts j, Q_mu =
# [k]!/prod [j]**m, and c = (-1)**(sum m) D!/prod m! j**m, a signed count of
# the permutations of cycle type mu: factor j carries the cycle weight
# (-1)**m (j m)! / (m! j**m), and z-degrees D and D' join with binom(D + D',
# D), as exponential generating functions do.  So every t**w term of the
# product form is at z**w, and the prefactor term t**l meets one z-power,
# z**(k - l).  The parts of each mu at z**D sum to at most D, so prod_{a in
# mu} [a] divides [D]! (see the quotient kernel), and [k]!/[D]! =
# prod_{a=D+1..k} [a] divides every Q_mu at z**D, hence its whole numerator.
# So each z**D is reduced over D! [D]!: one kernel call of order k shares
# each Q_mu among all z-powers and divides each z-power's sum, packed, by
# [k]!/[D]!.  (One kernel call of order D per z-power shares no Q_mu across
# z-powers and was slower from n = k = 16 up; stride-sum division of the
# unpacked numerators was slower at every n measured.)

def _laguerre_series(k):
    """The t-series of the total (see above) to t**k, over Z: per t-power w,
    {mu: c} for the terms c (1 - q)**E Q_mu z**w / (w! [k]!); no c is 0."""
    series = [{(): 1}] + [{} for _ in range(k)]
    for j in range(1, k + 1):
        cycle = [(-1) ** m * math.factorial(j * m) // (math.factorial(m) * j**m) for m in range(k // j + 1)]
        for w in range(k, j - 1, -1):  # down, so series[w - j m] is still the old one
            acc = series[w]
            for m in range(1, w // j + 1):
                for mu, c in series[w - j * m].items():
                    acc[(j,) * m + mu if j > 1 else mu] = c * cycle[m] * math.comb(w, j * m)
    return series


def _laguerre_total(k, binomials, powers):
    """The sum of every row (see above), with the prefactors [n over l] and
    p_l = powers[l], from the t-series (_laguerre_series): one quotient kernel
    call sums each z**D over [D]!, and z**D, met by l = k - D alone, is one
    RationalFunction over D! [D]!, reduced by _ratio's polynomial gcd."""
    least = k + 1 - len(binomials)  # the z-power of l = min(n, k)
    uses = {}  # mu -> {(D, E): c}
    for zpow, terms in enumerate(_laguerre_series(k)[least:], least):
        for mu, c in terms.items():
            uses.setdefault(mu, {})[zpow, sum(mu) - len(mu)] = c
    rows = _quotient_sums(k, uses, lambda zpow: zpow)
    return ZPolynomial._raw({  # z-powers descending: the row sum's order for every n_j = 0
        zpow: _ratio([_umul(binomials[k - zpow], rows[zpow])], [math.factorial(zpow) * x for x in _q_factorial_row(zpow)],
                     1, 2 * powers[k - zpow])
        for zpow in sorted(rows, reverse=True)})


def laguerre_connection(n, k, aux=None):
    """Expansion of the deformed Laguerre polynomial L_k^{(n-k)}(z; q).

    `aux` assigns an arbitrary integer n_j to each order j >= 1 (default 0;
    a key or value that is not an int raises TypeError, a key below 1
    ValueError).  Only the rows take it: the total is the product form,
    which has no n_j (see above), and the rows sum to it for every choice.
    Each term multiplies

        q**((n-l)(n-l+1)/2 - (n-k)(n-k+1)/2) [n over l]_q
        * prod_j binom(-n_j, l_j)      [= (-1)**(l_j) (n_j)_{l_j} / l_j!]
        * prod_j L_{k_j}^{(n_j - k_j)}(c_j(q) z**j)

    over one partition solution; the total equals q_laguerre(n, k).  The
    total is summed over Z from integer cycle weights (_laguerre_total); the
    rows, from the classical factors, are built on each read of `terms`.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    aux = {index(j): index(v) for j, v in aux.items()} if aux else {}
    if any(j < 1 for j in aux):
        raise ValueError("auxiliary integers are keyed by orders j >= 1")
    shift = (n - k) * (n - k + 1) // 2  # q**shift: the generating function's normalization
    binomials = _q_pascal_row(n, False)[:min(n, k) + 1]
    powers = [(n - ell) * (n - ell + 1) // 2 - shift for ell in range(len(binomials))]

    def classical(j, kj):
        """L_{k_j}^{(n_j - k_j)}(c_j(q) z**j): each h_d goes to z**(j d) as h_d c_j**d,
        built once per distinct (j, k_j) on each read of `terms` (_products)."""
        c, idx = quesne_c(j), LaguerreIndex(kj, aux.get(j, 0) - kj)
        return ZPolynomial({j * d: h * c**d for d, h in laguerre_classical(idx)._terms.items()})

    def rows():
        prefs = [_ratio([row], [1], 1, 2 * power) for row, power in zip(binomials, powers)]
        sols = laguerre_partitions(n, k)
        products = dict(_products([sol.kparts[::-1] for sol in sols], classical, mul, ZPolynomial.one()))
        terms = []
        for sol in sols:
            coefficient = prefs[sol.ell] * math.prod(
                _int_binomial(-aux.get(j, 0), lj) for j, lj in sol.lparts)
            terms.append(ConnectionTerm(sol, coefficient, products[sol.kparts[::-1]].scale(coefficient)))
        return tuple(terms)

    return ConnectionExpansion(n, rows, _laguerre_total(k, binomials, powers))


# ---------------------------------------------------------------------------
# abstract coefficient rings for the Gegenbauer connection
# ---------------------------------------------------------------------------
# A monomial is ((generator, exponent), ...) with generators ascending and
# the empty tuple as the unit; two monomials multiply by merging exponents.

def _merge(m1, m2, c):
    out = dict(m1)
    for g, e in m2:
        out[g] = out.get(g, 0) + e
    return ((tuple(sorted(out.items())), c),)


def _revlex(mono):
    """Exponent vector read from the highest generator down (the order of the
    displayed forms)."""
    return mono[::-1]


def _gen(cls, g):
    return cls({((g, 1),): 1})


class BetaPolynomial(SparsePoly):
    """Polynomial with rational coefficients in the abstract generators
    beta_k standing for [lambda]_{q**k}."""

    __slots__ = ()
    basis = "b_k"
    _coerce = Fraction
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_revlex)
    gen = classmethod(_gen)

    def substitute(self, value_of, one_value):
        """Map each generator g to value_of(g) and sum; lands in the target
        ring, whose multiplicative unit is one_value."""
        products = dict(_products(self._terms, lambda g, e: value_of(g) ** e, mul, one_value))
        parts = [products[mono] * c for mono, c in self._terms.items()]
        return ring_sum(parts, one_value * 0)


class LambdaPolynomial(SparsePoly):
    """Univariate polynomial in the classical weight lambda over Q."""

    __slots__ = ()
    basis = "lambda"
    _coerce = Fraction
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_revlex)
    gen = classmethod(_gen)


def _partition_key(mono):
    """Weight descending, then parts-descending lexicographic ([5] before
    [4,1] before [3,2]...): the partition order."""
    parts = []
    for m, e in sorted(mono, reverse=True):
        parts.extend([m] * e)
    return (sum(parts), tuple(parts))


class CPolynomial(SparsePoly):
    """Formal polynomial in abstract classical factors C_1, C_2, ... with
    coefficients in a pluggable commutative ring (Fraction, BetaPolynomial or
    LambdaPolynomial), taken as given.  Monomials multiply formally; no basis
    relations are applied — this is the displayed shape of the connection
    formulae."""

    __slots__ = ()
    basis = "C_m"
    _scalars = (int, Fraction, SparsePoly)
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_partition_key)


# ---------------------------------------------------------------------------
# Gegenbauer connection and sum rules
# ---------------------------------------------------------------------------

# Inside the order-n kernel a monomial prod_m C_m**e_m is the count key of
# the Hermite walk: e_m in field m (_parts).  A monomial has sum_m m*e_m <=
# n, so no field carries into the next, and the product of two monomials is
# the sum of their keys.

def _monomial(key, n):
    """The ((m, e_m), ...) tuple of the count key of prod_m C_m**e_m, m
    ascending."""
    return tuple((m, len(list(run))) for m, run in groupby(_parts(key, n)[::-1]))


def _integer_logs(order):
    """A_1..A_order as dicts from order-`order` kernel monomials to ints, A_k
    = k a_k with log(1 + C_1 t + C_2 t**2 + ...) = sum a_k t**k.  t F'/F =
    sum_k A_k t**k for F = 1 + sum_m C_m t**m, so A_k = k C_k - sum_{j<k}
    A_j C_{k-j} lies in Z[C]."""
    w, logs = order.bit_length(), []
    for k in range(1, order + 1):
        out = {1 << w * k: k}
        for j, a in enumerate(logs, 1):
            c = 1 << w * (k - j)
            for m, v in a.items():
                out[m + c] = out.get(m + c, 0) - v
        logs.append({m: v for m, v in out.items() if v})
    return logs


@lru_cache(maxsize=16)
def classical_log_coefficients(order):
    """a_1..a_order with log(1 + C_1 t + C_2 t**2 + ...) = sum a_k t**k:
    each a_k is a CPolynomial over Fraction in the abstract factors C_m, the
    displayed form of the integer logs A_k / k."""
    return tuple(CPolynomial._raw({_monomial(m, order): Fraction(v, k) for m, v in a.items()})
                 for k, a in enumerate(_integer_logs(order), 1))


@lru_cache(maxsize=16)
def gegenbauer_connection(n):
    """Connection expansion of the deformed Gegenbauer polynomial of degree n
    in terms of formal products of classical factors C_m, with coefficients
    polynomial in the abstract weights beta_k = [lambda]_{q**k}.

    Mechanization: the t**n coefficient of exp(sum_k beta_k a_k t**k) =
    prod_k exp(beta_k a_k t**k), a_k the classical log coefficients (the low
    orders reproduce the displayed forms).  With A_k = k a_k (_integer_logs)

        sum_{f |- n} prod_k beta_k**f_k A_k**f_k / (k**f_k f_k!),

    n!/prod_k k**f_k f_k! the count of cycle type f (Andrews 1976).  Each
    P_f = prod_k A_k**f_k is its parent prefix's P times one A_k (parts
    largest first), on packed monomials (Monagan and Pearce 2010)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    logs = _integer_logs(n)

    def times(p, k):
        # A_k's C-monomials with j factors have the sign (-1)**(j-1), so no
        # coefficient of a product cancels to 0
        out = {}
        get = out.get
        for ma, ca in logs[k - 1].items():
            for mb, cb in p.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        return out

    betas = {tuple(k for k, f in parts for _ in range(f)): parts[::-1] for parts in _multiplicities(n, n)}
    by_factors = {}
    for key, p in _prefix_walk(betas, {0: 1}, times):
        beta = betas[key]
        scale = math.prod(k**f * math.factorial(f) for k, f in beta)
        for cm, c in p.items():
            by_factors.setdefault(cm, {})[beta] = Fraction(c, scale)
    total = CPolynomial._raw({_monomial(cm, n): BetaPolynomial._raw(coeffs) for cm, coeffs in by_factors.items()})
    return ConnectionExpansion(n, lambda: tuple(
        ConnectionTerm(mono, coeff, None) for mono, coeff in total.sorted_terms()), total)


# The value route's classical rows are int rows in x = w**2 (w = e^{i theta})
# and its weight factors int rows in Lambda.

def _classical_power(m, e):
    """U_m**e as an x-row, with C_m at lambda = 1 equal to U_m = sum_l
    w**(m-2l) = w**-m (1 + x + ... + x**m)."""
    return reduce(_times_q_number, [m + 1] * (e - 1), [1] * (m + 1))


def _lambda_factor(k, e):
    """(1 - Lambda**k)**e as a Lambda-row."""
    return reduce(_times_one_minus, [k] * e, [1])


def gegenbauer_connection_value(expansion):
    """Evaluate a Gegenbauer connection to a concrete CosPolynomial:
    beta_k -> [lambda]_{q**k} and C_m -> the classical (lambda = 1)
    polynomial.  Must reproduce the explicit deformed polynomial.

    The sum runs over Z, per weight monomial mu = prod_k beta_k**e_k, and
    each cos index is reduced once.  It reads the total, not the rows.

      * Classical side.  A C-monomial t's product prod_m U_m**e is w**-n
        times an integer row in x = w**2 of length n + 1, the same for every
        t.  So A_mu = sum_t c_{t,mu} prod_m U_m**e is one integer row once
        scaled by D = n!, the lcm of the denominators of the c_{t,mu}: each is
        an integer times n!/prod_k k**e_k e_k! (the count of permutations of
        cycle type e, an integer) over n!, and that of C_1**n at beta_1**n is
        1/n!.  Its x**((n+j)/2) entry is the w**j coefficient, for j >= 0.
      * Weights.  prod_k [lambda]_{q**k}**e_k = L_mu (1 - q)**E Q_mu /
        (q;q)_n, with L_mu = prod_k (1 - Lambda**k)**e_k, E = n - sum_k e_k
        and Q_mu = [n]_q! / prod_k [k]_q**e_k, since sum_k k*e_k = n.
      * Sum.  The Lambda**p coefficient of the w**j cell is sum_mu
        A_mu[x**((n+j)/2)] L_mu[p] (1 - q)**E Q_mu, one q-row of the quotient
        kernel (_quotient_sums, keyed by w-power and p); families._cos_value
        doubles each cell with j > 0 into a cos(j theta) coefficient and
        reduces it once over D * (q;q)_n = D (1 - q)**n [n]_q!."""
    n = expansion.n
    total = expansion.total._terms
    scale = math.factorial(n)
    low = (n + 1) // 2  # the x-power of cos(0 theta) or cos(theta)
    classical = dict(_products(total, _classical_power, _umul, [1]))
    by_weight = {}
    for mono, coefficient in total.items():
        row = classical[mono][low:]
        for mu, c in coefficient._terms.items():
            scaled = map((c.numerator * (scale // c.denominator)).__mul__, row)
            acc = by_weight.get(mu)
            by_weight[mu] = list(scaled) if acc is None else list(map(add, acc, scaled))
    lam_rows = dict(_products(by_weight, _lambda_factor, _umul, [1]))
    uses = {}  # mu's parts above 1, largest first -> {((w-power, Lambda power), E): c}
    for mu, acc in by_weight.items():
        lam = [(p, c) for p, c in enumerate(lam_rows[mu]) if c]
        parts = tuple(k for k, e in reversed(mu) if k > 1 for _ in range(e))
        power = n - sum(e for _, e in mu)
        uses[parts] = {((2 * (low + i) - n, p), power): a * l for i, a in enumerate(acc) if a for p, l in lam}
    rows = _quotient_sums(n, uses)
    cells = {e: cell for e in range(2 * low - n, n + 1, 2)  # _cos_value keeps empty cells, so skip them
             if (cell := _unorm([rows.get((e, p), []) for p in range(n + 1)]))}
    return _cos_value(cells, [scale * x for x in _q_pochhammer_row(n)])  # over D (q;q)_n


def gegenbauer_classical_lambda(n):
    """The classical general-lambda connection: t**n coefficient of
    (1 + S)**lambda with S = sum_m C_m t**m, by the binomial series
    sum_j binom(lambda, j) S**j and the multinomial theorem: the sum over the
    partitions f of n, f_m parts m, of binom(lambda, |f|) |f|!/prod_m f_m!
    prod_m C_m**f_m, as a CPolynomial over Q[lambda].  It takes no log and
    no exp, and equals the beta_k -> lambda image of gegenbauer_connection(n)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    lam = LambdaPolynomial.gen(1)
    falling = [LambdaPolynomial.one(), lam]  # binom(lambda, j) j! = lambda (lambda - 1) ... (lambda - j + 1)
    for j in range(1, n):
        falling.append(falling[-1] * (lam - j))
    return CPolynomial._raw({parts[::-1]: falling[sum(f for _, f in parts)].scale(
        Fraction(1, math.prod(math.factorial(f) for _, f in parts))) for parts in _multiplicities(n, n)})


# Explicit low-order log combinations: I_l as [(coefficient, [factor orders])].
# I_3 carries +1/3 C_1^3 (the t**3 log coefficient; the sum rules hold only
# with this sign).
SUM_RULE_COMBINATIONS = {
    1: [(Fraction(1), (1,))],
    2: [(Fraction(1), (2,)), (Fraction(-1, 2), (1, 1))],
    3: [(Fraction(1), (3,)), (Fraction(-1), (1, 2)), (Fraction(1, 3), (1, 1, 1))],
    4: [(Fraction(1), (4,)), (Fraction(-1), (1, 3)), (Fraction(-1, 2), (2, 2)),
        (Fraction(1), (1, 1, 2)), (Fraction(-1, 4), (1, 1, 1, 1))],
    5: [(Fraction(1), (5,)), (Fraction(-1), (1, 4)), (Fraction(-1), (2, 3)),
        (Fraction(1), (1, 1, 3)), (Fraction(1), (1, 2, 2)),
        (Fraction(-1), (1, 1, 1, 2)), (Fraction(1, 5), (1, 1, 1, 1, 1))],
}


def gegenbauer_sum_rule_logs(order):
    """The logs of the deformed and of the classical (lambda = 1) series,
    log(sum_n C_n^(lambda)(z; q) t**n) and log(sum_n C_n^(1) t**n), to the
    given order; the deformed series is built from the explicit polynomials.
    A log coefficient does not depend on the truncation order, so one pair
    serves every sum rule of order up to `order`.  The deformed log runs over
    Z (_log_coefficients), with no TruncatedSeries log and no CosPolynomial
    product; the classical one is in closed form (_classical_log), so the
    two sides of a rule come from different code and neither takes a series
    log."""
    if order < 1:
        raise ValueError("sum-rule order must be >= 1")
    logs = _log_coefficients(order, range(1, order + 1))
    return TruncatedSeries(COSPOLY_RING, [CosPolynomial.zero()] + logs, order), _classical_log(order)


def _classical_log(order):
    """log(sum_n C_n^(1) t**n) to the given order in closed form: the series
    is 1/(1 - 2 cos(theta) t + t**2) = 1/((1 - w t)(1 - t/w)), w = e^{i
    theta}, so its log is sum_l (w**l + w**-l) t**l / l = sum_l 2 cos(l
    theta) t**l / l."""
    return TruncatedSeries(COSPOLY_RING, [CosPolynomial.zero()] + [
        CosPolynomial({ell: Fraction(2, ell)}) for ell in range(1, order + 1)], order)


def gegenbauer_sum_rule(ell):
    """Both sides of the order-ell sum rule, from the logs to order ell.

    lhs: t**ell coefficient of log(sum_n C_n^(lambda)(z; q) t**n), the only
    coefficient of the deformed log reduced.
    rhs: [lambda]_{q**ell} times the t**ell coefficient of the log of the
    classical (lambda = 1) series.  The two agree identically in Q(s, Lambda).
    """
    if ell < 1:
        raise ValueError("sum-rule order must be >= 1")
    return _log_coefficients(ell, (ell,))[0], _classical_log(ell).coeff(ell).scale(gegenbauer_weight(ell))


def sum_rule_explicit(ell):
    """The explicit low-order combination I_ell evaluated on the deformed
    polynomials (available for ell <= 5)."""
    if ell not in SUM_RULE_COMBINATIONS:
        raise ValueError(f"no explicit combination stored for ell = {ell}")
    parts = []
    for coeff, orders in SUM_RULE_COMBINATIONS[ell]:
        poly = reduce(mul, map(q_gegenbauer_direct, orders))
        parts.append(poly.scale(coeff))
    return CosPolynomial.sum(parts)
