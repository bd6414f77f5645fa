"""Partition enumeration and the three connection-formula engines.

Every engine expresses a deformed polynomial as a finite sum of products of
classical polynomials, indexed by the solutions of a Diophantine partition
relation:

  * Hermite:  sum_k k*n_k = n.  The per-factor parameters contain radicals,
    but the combinations u_k = 2*zeta_k*tau_k and v_k = tau_k**2 are rational,
    so each partition's grouped value is computed entirely in Q(s) via
    the classical rewrite  H_m(zeta) tau**m / m! =
    sum_l (-1)**l u**(m-2l) v**l / (l! (m-2l)!).
  * Laguerre:  sum_j j*(k_j + l_j) + l = k, with one free auxiliary integer
    n_j per order j; the summed total provably does not depend on them.
  * Gegenbauer: the log of the deformed generating function is the classical
    log rescaled per t-order by beta_k = [lambda]_{q**k}.  Exponentiating
    symbolically over polynomials in abstract generators beta_k and abstract
    classical factors C_m yields the connection for any n, plus the per-order
    sum rules.  Its value is summed per weight monomial prod_k beta_k**e_k:
    the classical products are collected over Q first, and each distinct
    weight enters Q(s, Lambda) once.

Each engine builds every distinct building block once per call, in tables
local to the call: the Hermite blocks, the Laguerre prefactors and classical
factors, the Gegenbauer classical powers and weights.  The Hermite and
Laguerre row products are keyed largest part first, and each distinct
partial product is built once per call, from its longest prefix; the total
stays the sum of the row values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import RationalFunction
from .families import (
    COSPOLY_RING,
    CosPolynomial,
    LaguerreIndex,
    SparsePoly,
    ZPolynomial,
    gegenbauer_classical,
    gegenbauer_weight,
    laguerre_classical,
    q_gegenbauer_direct,
)
from .qkernel import q_binomial, q_factorial, quesne_c
from .series import Ring, TruncatedSeries, ring_sum

_RF_ONE = RationalFunction.one()


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSolution:
    """One solution {n_k} of sum_k k*n_k = n, as ((k, n_k), ...) with k
    ascending and every n_k >= 1."""

    parts: tuple

    @property
    def target(self):
        return sum(k * m for k, m in self.parts)

    @property
    def count(self):
        """Total number of parts, sum_k n_k."""
        return sum(m for _, m in self.parts)

    def label(self):
        if not self.parts:
            return "empty"
        return ", ".join(f"n{k}={m}" for k, m in self.parts)


def _descending_partitions(n, maxpart):
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxpart), 0, -1):
        for rest in _descending_partitions(n - p, p):
            yield (p,) + rest


@lru_cache(maxsize=None)
def partitions_of(n):
    """All integer partitions of n as multiplicity maps, ordered
    lexicographically by parts descending ([n] first, [1,...,1] last)."""
    if n < 0:
        raise ValueError("partition target must be >= 0")
    out = []
    for parts in _descending_partitions(n, n):
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        out.append(PartitionSolution(tuple(sorted(mult.items()))))
    return tuple(out)


@dataclass(frozen=True)
class LaguerrePartitionSolution:
    """One solution of sum_j j*(k_j + l_j) + l = k with 0 <= l <= n."""

    ell: int
    kparts: tuple  # ((j, k_j), ...), k_j >= 1, j ascending
    lparts: tuple  # ((j, l_j), ...), l_j >= 1, j ascending

    @property
    def target(self):
        return (self.ell
                + sum(j * v for j, v in self.kparts)
                + sum(j * v for j, v in self.lparts))

    def label(self):
        bits = [f"k{j}={v}" for j, v in self.kparts]
        if self.ell:
            bits.append(f"l={self.ell}")
        bits += [f"l{j}={v}" for j, v in self.lparts]
        return ", ".join(bits) if bits else "empty"


def laguerre_partitions(n, k):
    """All solutions of the Laguerre partition relation for target k with
    0 <= l <= n, in a deterministic order."""
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    out = []
    for ell in range(min(n, k) + 1):
        m = k - ell
        for weighted in partitions_of(m):
            # split each total s_j = k_j + l_j into the two kinds
            splits = [[]]
            for j, s in weighted.parts:
                splits = [acc + [(j, kj, s - kj)] for acc in splits for kj in range(s, -1, -1)]
            for combo in splits:
                kparts = tuple((j, kj) for j, kj, _ in combo if kj)
                lparts = tuple((j, lj) for j, _, lj in combo if lj)
                out.append(LaguerrePartitionSolution(ell, kparts, lparts))
    return tuple(out)


def pochhammer(alpha, ell):
    """Rising factorial (alpha)_ell = alpha(alpha+1)...(alpha+ell-1)."""
    if ell < 0:
        raise ValueError("pochhammer length must be >= 0")
    result = Fraction(1)
    for j in range(ell):
        result *= alpha + j
    return result


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
    factors     — human-readable classical-factor descriptions
    value       — the row's polynomial value (None for abstract rows)
    """

    descriptor: object
    coefficient: object
    factors: tuple
    value: object


@dataclass(frozen=True)
class ConnectionExpansion:
    """Terms plus exact total; `rescale` maps the generating-function
    normalization back to the polynomial itself."""

    family: str
    n: int
    k: object
    terms: tuple
    total: object
    rescale: object

    def rescaled_total(self):
        if self.rescale is None:
            return self.total
        return self.total.scale(self.rescale)

    def rescaled_term_value(self, term):
        if self.rescale is None:
            return term.value
        return term.value.scale(self.rescale)


# ---------------------------------------------------------------------------
# Hermite connection (radical-free grouped rows)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hermite_u(k):
    """z**k coefficient of u_k = 2 zeta_k tau_k: (-1)**(k+1) 2**k c_k(q^-2)."""
    sign = 1 if (k + 1) % 2 == 0 else -1
    return quesne_c(k, -2) * (sign * 2**k)


@lru_cache(maxsize=None)
def _hermite_v(k):
    """t**(2k)-stripped value of v_k = tau_k**2:
    (-1)**(k+1) (2q/(1+q**2))**k c_k(q^-4)."""
    sign = 1 if (k + 1) % 2 == 0 else -1
    q = RationalFunction.q()
    ratio = RationalFunction.q() * 2 / (_RF_ONE + q**2)
    return quesne_c(k, -4) * ratio**k * sign


def _hermite_block(k, m):
    """Grouped factor for one order k with multiplicity m:
    sum_l (-1)**l u_k**(m-2l) v_k**l / (l! (m-2l)!), a polynomial in z."""
    u = _hermite_u(k)
    v = _hermite_v(k)
    return ZPolynomial({k * (m - 2 * ell): u**(m - 2 * ell) * v**ell
                        * Fraction((-1) ** ell, math.factorial(ell) * math.factorial(m - 2 * ell))
                        for ell in range(m // 2 + 1)})


def _prefix_product(built, key, block):
    """prod block(*part) over the parts of key, a ZPolynomial.  Every prefix of
    key is recorded in built, a dict local to one engine call, so a row is one
    product of its longest prefix built before with its last block, and each
    block is built once; a one-part key is the block itself."""
    value = built.get(key)
    if value is None:
        if len(key) > 1:
            value = _prefix_product(built, key[:-1], block) * _prefix_product(built, key[-1:], block)
        else:
            value = block(*key[0]) if key else ZPolynomial.one()
        built[key] = value
    return value


@lru_cache(maxsize=None)
def hermite_connection(n):
    """Expansion of the deformed Hermite polynomial over partition solutions.

    Each term is the grouped value of one partition {n_k} (the classical
    product H_{n_1}(zeta_1) H_{n_2}(zeta_2)... with its prefactors, all
    radicals cancelled); the total times `rescale` equals q_hermite(n).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    built = {}
    terms = []
    for sol in partitions_of(n):
        value = _prefix_product(built, sol.parts[::-1], _hermite_block)
        factors = tuple(f"H{m}(zeta{k})" for k, m in sol.parts)
        terms.append(ConnectionTerm(sol, None, factors, value))
    total = ZPolynomial.sum([t.value for t in terms])
    rescale = q_factorial(n, -2) * RationalFunction.s_power(-n)
    return ConnectionExpansion("hermite", n, None, tuple(terms), total, rescale)


# ---------------------------------------------------------------------------
# Laguerre connection (auxiliary integers)
# ---------------------------------------------------------------------------

def laguerre_connection(n, k, aux=None):
    """Expansion of the deformed Laguerre polynomial L_k^{(n-k)}(z; q).

    `aux` assigns an arbitrary integer n_j to each order j (default 0); the
    summed total is independent of that choice.  Each term multiplies

        q**((n-l)(n-l+1)/2) [n over l]_q
        * prod_j (-1)**(l_j) (n_j)_{l_j} / l_j!
        * prod_j L_{k_j}^{(n_j - k_j)}(c_j(q) z**j)

    over one partition solution; total * rescale equals q_laguerre(n, k).
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    aux = dict(aux) if aux else {}
    prefs = [RationalFunction.q_power((n - ell) * (n - ell + 1) // 2) * q_binomial(n, ell, 1)
             for ell in range(min(n, k) + 1)]

    def classical(j, kj):
        """L_{k_j}^{(n_j - k_j)}(c_j(q) z**j)."""
        return laguerre_classical(LaguerreIndex(kj, aux.get(j, 0) - kj),
                                  ZPolynomial({j: quesne_c(j, 1)}))

    built = {}
    terms = []
    for sol in laguerre_partitions(n, k):
        ell = sol.ell
        poch_scalar = Fraction(1)
        for j, lj in sol.lparts:
            poch_scalar *= Fraction((-1) ** lj) * pochhammer(aux.get(j, 0), lj) / math.factorial(lj)
        coefficient = prefs[ell] * poch_scalar
        poly = _prefix_product(built, sol.kparts[::-1], classical)
        factor_bits = []
        for j, kj in sol.kparts:
            nj = aux.get(j, 0)
            arg_text = "z" if j == 1 else f"c{j}(q)*z^{j}"
            factor_bits.append(f"L{kj}^({nj - kj})({arg_text})")
        value = poly.scale(coefficient)
        terms.append(ConnectionTerm(sol, coefficient, tuple(factor_bits), value))
    total = ZPolynomial.sum([t.value for t in terms])
    rescale = RationalFunction.q_power(-((n - k) * (n - k + 1) // 2))
    return ConnectionExpansion("laguerre", n, k, tuple(terms), total, rescale)


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


def _monomial_value(mono, value_of, one_value, powers):
    """prod_g value_of(g)**e over the monomial, each power taken once per
    call through the caller's powers dict, keyed by (g, e)."""
    value = one_value
    for g, e in mono:
        p = powers.get((g, e))
        if p is None:
            p = powers[g, e] = value_of(g) ** e
        value = value * p
    return value


class BetaPolynomial(SparsePoly):
    """Polynomial with rational coefficients in the abstract generators
    beta_k standing for [lambda]_{q**k}."""

    __slots__ = ()
    _coerce = Fraction
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_revlex)
    gen = classmethod(_gen)

    def substitute(self, value_of, one_value):
        """Map each generator g to value_of(g) and sum; lands in the target
        ring, whose multiplicative unit is one_value."""
        powers = {}
        parts = [_monomial_value(mono, value_of, one_value, powers) * c
                 for mono, c in self._terms.items()]
        return ring_sum(parts, one_value * 0)

    def __repr__(self):
        from .render import text_beta
        return f"BetaPolynomial({text_beta(self)})"


class LambdaPolynomial(SparsePoly):
    """Univariate polynomial in the classical weight lambda over Q."""

    __slots__ = ()
    _coerce = Fraction
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_revlex)
    gen = classmethod(_gen)

    def __repr__(self):
        from .render import text_lambda_poly
        return f"LambdaPolynomial({text_lambda_poly(self)})"


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
    _scalars = (int, Fraction, SparsePoly)
    _unit = ()
    _times = staticmethod(_merge)
    _order = staticmethod(_partition_key)

    @classmethod
    def factor(cls, m, one):
        """The single classical factor C_m (with the given coefficient one)."""
        return cls({((m, 1),): one})

    def monomials(self):
        return self.support()

    def __repr__(self):
        from .render import text_cpoly
        return f"CPolynomial({text_cpoly(self)})"


# ---------------------------------------------------------------------------
# Gegenbauer connection and sum rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def classical_log_coefficients(order):
    """a_1..a_order with log(1 + C_1 t + C_2 t**2 + ...) = sum a_k t**k:
    each a_k is a CPolynomial over Fraction in the abstract factors C_m."""
    ring = Ring(CPolynomial.zero(), CPolynomial.constant(Fraction(1)))
    coeffs = [ring.one]
    for m in range(1, order + 1):
        coeffs.append(CPolynomial.factor(m, Fraction(1)))
    series = TruncatedSeries(ring, coeffs, order)
    logs = series.log()
    return tuple(logs.coeff(k) for k in range(1, order + 1))


def _weighted_exp(n, weight, one):
    """t**n coefficient of exp(sum_k weight(k) a_k t**k), a_k the classical
    log coefficients: a CPolynomial over the ring of weight(k) and one."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    ring = Ring(CPolynomial.zero(), CPolynomial.constant(one))
    logs = classical_log_coefficients(n) if n else ()
    arg = TruncatedSeries(ring, [ring.zero] + [logs[k - 1].scale(weight(k))
                                               for k in range(1, n + 1)], n)
    return arg.exp().coeff(n)


@lru_cache(maxsize=None)
def gegenbauer_connection(n):
    """Connection expansion of the deformed Gegenbauer polynomial of degree n
    in terms of formal products of classical factors C_m, with coefficients
    polynomial in the abstract weights beta_k = [lambda]_{q**k}.

    Mechanization: exponentiate sum_k beta_k a_k t**k where a_k are the
    classical log coefficients; the t**n coefficient is the connection,
    valid for every n (the low orders reproduce the displayed forms)."""
    total = _weighted_exp(n, BetaPolynomial.gen, BetaPolynomial.one())
    terms = []
    for mono, coeff in total.sorted_terms():
        factors = tuple(f"C{m}^{e}" if e > 1 else f"C{m}" for m, e in sorted(mono, reverse=True))
        terms.append(ConnectionTerm(mono, coeff, factors, None))
    return ConnectionExpansion("gegenbauer", n, None, tuple(terms), total, None)


def substitute_beta(coeff, mode):
    """Substitute the abstract weights: mode "q-lambda" sends beta_k to
    (1 - Lambda**k)/(1 - q**k), mode "classical-lambda" sends every beta_k
    to the single symbol lambda."""
    if mode == "q-lambda":
        return coeff.substitute(gegenbauer_weight, _RF_ONE)
    if mode == "classical-lambda":
        lam = LambdaPolynomial.gen(1)
        return coeff.substitute(lambda g: lam, LambdaPolynomial.one())
    raise ValueError(f"unknown mode {mode!r}")


class _RationalCos(SparsePoly):
    """A combination of cos(m*theta) over Q, folded by CosPolynomial's rule."""

    __slots__ = ()
    _coerce = Fraction
    _times = staticmethod(CosPolynomial._times)


def gegenbauer_connection_value(expansion):
    """Evaluate a Gegenbauer connection to a concrete CosPolynomial:
    beta_k -> [lambda]_{q**k} and C_m -> the classical (lambda = 1)
    polynomial.  Must reproduce the explicit deformed polynomial.

    The classical products are rational, so the sum runs per weight monomial
    mu = prod_k beta_k**e_k: A_mu = sum_t c_{t,mu} prod_m C_m**e over the
    terms t is collected in the cos basis over Q, each distinct weight
    prod_k [lambda]_{q**k}**e_k is built once, and each cos(m theta)
    coefficient is one sum of weight(mu) * A_mu[m] in Q(s, Lambda)."""
    classical = {}  # (m, e) -> C_m**e over Q
    by_weight = {}
    for term in expansion.terms:
        poly = _RationalCos.one()
        for m, e in term.descriptor:
            p = classical.get((m, e))
            if p is None:
                p = classical[m, e] = _RationalCos(
                    {j: c.as_fraction() for j, c in gegenbauer_classical(m).items()}) ** e
            poly = poly * p
        for mu, c in term.coefficient.items():
            by_weight.setdefault(mu, []).append(poly.scale(c))
    weights = {k: gegenbauer_weight(k) for k in range(1, expansion.n + 1)}
    powers = {}
    by_cos = {}
    for mu, polys in by_weight.items():
        weight = _monomial_value(mu, weights.__getitem__, _RF_ONE, powers)
        for m, c in _RationalCos.sum(polys).items():
            by_cos.setdefault(m, []).append(weight * c)
    return CosPolynomial({m: RationalFunction.sum(parts) for m, parts in by_cos.items()})


def gegenbauer_classical_lambda(n):
    """The classical general-lambda connection: t**n coefficient of
    exp(lambda * sum_k a_k t**k) as a CPolynomial over Q[lambda].  Equals the
    beta_k -> lambda image of gegenbauer_connection(n)."""
    lam = LambdaPolynomial.gen(1)
    return _weighted_exp(n, lambda k: lam, LambdaPolynomial.one())


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


def _log_coefficient_of(series_coeffs, ell, ring):
    series = TruncatedSeries(ring, series_coeffs, ell)
    return series.log().coeff(ell)


def gegenbauer_sum_rule(ell):
    """Both sides of the order-ell sum rule.

    lhs: t**ell coefficient of log(sum_n C_n^(lambda)(z; q) t**n), built from
    the explicit deformed polynomials.
    rhs: [lambda]_{q**ell} times the t**ell coefficient of the log of the
    classical (lambda = 1) series.  The two agree identically in Q(s, Lambda).
    """
    if ell < 1:
        raise ValueError("sum-rule order must be >= 1")
    deformed = [q_gegenbauer_direct(i) for i in range(ell + 1)]
    classical = [gegenbauer_classical(i) for i in range(ell + 1)]
    lhs = _log_coefficient_of(deformed, ell, COSPOLY_RING)
    rhs = _log_coefficient_of(classical, ell, COSPOLY_RING).scale(gegenbauer_weight(ell))
    return lhs, rhs


def sum_rule_explicit(ell):
    """The explicit low-order combination I_ell evaluated on the deformed
    polynomials (available for ell <= 5)."""
    if ell not in SUM_RULE_COMBINATIONS:
        raise ValueError(f"no explicit combination stored for ell = {ell}")
    parts = []
    for coeff, orders in SUM_RULE_COMBINATIONS[ell]:
        poly = CosPolynomial.one()
        for m in orders:
            poly = poly * q_gegenbauer_direct(m)
        parts.append(poly.scale(coeff))
    return CosPolynomial.sum(parts)
