"""Truncated formal power series in one variable t over a pluggable ring.

A TruncatedSeries keeps the coefficients of t**0 .. t**order as a dense
tuple.  The coefficient ring is described by a Ring witness carrying its
zero and one; coefficient objects themselves supply +, -, * (including
multiplication by int and Fraction scalars, which exp/log/pow need).

Arithmetic between two series requires equal order and ring; nothing is
silently re-truncated.

Every coefficient of a product, and of the exp, log and reciprocal
recurrences, is a sum of products, formed by ring_dot: over a SparsePoly
ring, SparsePoly.dot collects the monomial products of all pairs and sums
each monomial's coefficients once, so each coefficient is reduced once, not
once per product and again in the sum.
"""

from __future__ import annotations

from fractions import Fraction

from .field import _power


class OrderMismatch(ValueError):
    """Series combined at different truncation orders."""


class OrderExceeded(IndexError):
    """Coefficient index beyond the truncation order."""


class NonzeroConstantTerm(ValueError):
    """exp (or a q-exponential) needs a zero constant term."""


class ConstantTermNotOne(ValueError):
    """log needs constant term one."""


class NonInvertibleConstant(ValueError):
    """Reciprocal needs an invertible constant term."""


class Ring:
    """Zero/one witnesses for the coefficient ring of a series."""

    __slots__ = ("zero", "one")

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one


FRACTION_RING = Ring(Fraction(0), Fraction(1))


def ring_sum(terms, zero):
    """The sum of a list of like ring elements; zero when it is empty.  A
    type with a batched `sum` (RationalFunction, SparsePoly, TruncatedSeries)
    adds the whole list at once, reducing once; others fold with +."""
    batched = getattr(type(terms[0]), "sum", None) if terms else None
    if batched is None:
        return sum(terms, zero)
    return terms[0] if len(terms) == 1 else batched(terms)


def ring_dot(pairs, zero):
    """sum a * b over a list of pairs of a ring element a and a ring element
    or int b; zero when it is empty.  A type with a batched `dot`
    (SparsePoly) collects the monomial products of all pairs and sums each
    monomial once; others (RationalFunction, Fraction) sum the products."""
    batched = getattr(type(pairs[0][0]), "dot", None) if pairs else None
    if batched is None:
        return ring_sum([a * b for a, b in pairs], zero)
    return batched(pairs)


class TruncatedSeries:
    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, coeffs, order=None):
        coeffs = tuple(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        elif len(coeffs) < order + 1:
            coeffs = coeffs + (ring.zero,) * (order + 1 - len(coeffs))
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, ring, order):
        return cls(ring, (), order)

    @classmethod
    def one(cls, ring, order):
        return cls(ring, (ring.one,), order)

    @classmethod
    def monomial(cls, ring, coeff, k, order):
        """coeff * t**k, truncated at the given order."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        if k > order:
            return cls.zero(ring, order)
        return cls(ring, (ring.zero,) * k + (coeff,), order)

    # -- basics ----------------------------------------------------------------
    def coeff(self, n):
        if n < 0 or n > self.order:
            raise OrderExceeded(f"coefficient {n} of a series truncated at {self.order}")
        return self.coeffs[n]

    def is_zero(self):
        z = self.ring.zero
        return all(c == z for c in self.coeffs)

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order}")
        if self.ring is not other.ring:
            raise OrderMismatch("series over different coefficient rings")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries.sum([self, other])

    def __neg__(self):
        return TruncatedSeries(self.ring, tuple(-a for a in self.coeffs), self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            z = self.ring.zero
            n = self.order
            cols = [[] for _ in range(n + 1)]
            for i, a in enumerate(self.coeffs):
                if a != z:
                    for j, b in enumerate(other.coeffs[:n + 1 - i]):
                        if b != z:
                            cols[i + j].append((a, b))
            return TruncatedSeries(self.ring, [ring_dot(c, z) for c in cols], n)
        return self.scale(other)

    @staticmethod
    def sum(parts):
        """The sum of a nonempty list of series of one ring and order, each
        coefficient summed once."""
        first = parts[0]
        for p in parts:
            first._check(p)
        z = first.ring.zero
        coeffs = zip(*(p.coeffs for p in parts))
        return TruncatedSeries(first.ring, [ring_sum(list(c), z) for c in coeffs], first.order)

    def scale(self, scalar):
        """Multiply every coefficient by a ring scalar (int, Fraction, element)."""
        return TruncatedSeries(self.ring, tuple(c * scalar for c in self.coeffs), self.order)

    # -- exp / log / powers ----------------------------------------------------
    def exp(self):
        """exp(a) via n*b_n = sum_{j=1..n} j*a_j*b_{n-j}; needs a_0 = 0."""
        z, one = self.ring.zero, self.ring.one
        a = self.coeffs
        if a[0] != z:
            raise NonzeroConstantTerm("exp needs zero constant term")
        ja = [c * j for j, c in enumerate(a)]
        b = [one]
        for n in range(1, self.order + 1):
            pairs = [(ja[j], b[n - j]) for j in range(1, n + 1) if a[j] != z and b[n - j] != z]
            b.append(ring_dot(pairs, z) * Fraction(1, n))
        return TruncatedSeries(self.ring, b, self.order)

    def log(self):
        """log(a) via n*c_n = n*a_n - sum_{j<n} j*c_j*a_{n-j}; needs a_0 = 1."""
        z, one = self.ring.zero, self.ring.one
        a = self.coeffs
        if a[0] != one:
            raise ConstantTermNotOne("log needs constant term one")
        c, mjc = [z], [z]  # c_j and -j*c_j
        for n in range(1, self.order + 1):
            pairs = [(a[n], n)] + [(mjc[j], a[n - j])
                                   for j in range(1, n) if c[j] != z and a[n - j] != z]
            c.append(ring_dot(pairs, z) * Fraction(1, n))
            mjc.append(c[n] * -n)
        return TruncatedSeries(self.ring, c, self.order)

    def reciprocal(self):
        z = self.ring.zero
        a = self.coeffs
        try:
            r0 = self.ring.one / a[0]
        except Exception as exc:
            raise NonInvertibleConstant("constant term is not invertible") from exc
        r = [r0]
        for n in range(1, self.order + 1):
            pairs = [(a[j], r[n - j]) for j in range(1, n + 1) if a[j] != z and r[n - j] != z]
            r.append(-(r0 * ring_dot(pairs, z)))
        return TruncatedSeries(self.ring, r, self.order)

    def int_pow(self, e):
        """a**e for any integer e (reciprocal first when e < 0)."""
        if e < 0:
            return self.reciprocal().int_pow(-e)
        return _power(self, e, TruncatedSeries.one(self.ring, self.order))

    def __repr__(self):
        body = ", ".join(f"t^{i}: {c}" for i, c in enumerate(self.coeffs) if c != self.ring.zero)
        return f"TruncatedSeries(order={self.order}; {body or '0'})"
