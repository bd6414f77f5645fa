"""Exact arithmetic in the rational-function field Q(s, Lambda).

The two generators are

    s       with s**2 = q   (so half-integer powers of q are honest monomials),
    Lambda  standing for q**lambda, never expanded.

An IntPoly is a dense integer polynomial in (s, Lambda), stored as rows:

    rows[j] = [c_0, c_1, ...]   the coefficient of Lambda**j, a list of ints
                                 by ascending power of s

A row has no trailing zeros (a zero row is []), the last row is nonzero and
the zero polynomial has no rows, so equal polynomials have equal rows.  Rows
are never changed in place once built.  Coefficients are ints only.
Exponents are nonnegative; negative powers of s or Lambda live in the
denominator of a RationalFunction.  Term order is graded lexicographic on
(exp_s, exp_lam), which fixes leading coefficients and display order.

Multiplication.  A product with Lambda lays each factor's rows end to end,
W digits apart, W the s-length of a product row, and multiplies them as one
row in s (Kronecker substitution, Lambda -> s**W); the product rows never
overlap, so the result cut into rows of W is the product.  Small products
in s are schoolbook.  Larger ones (see _PACK_MUL_CUTOFF) are packed into
one Python int each by s -> 2**w, multiplied once and unpacked as balanced
base-2**w digits.  The width rule: w is the least multiple of 8 bits
with 2**(w-1) > min(nnz(a), nnz(b)) * max|a| * max|b|, a bound on every
product coefficient, so each coefficient is exactly one digit.  Packing and
unpacking are linear: each coefficient plus the bias 2**(w-1) is a w-bit
unsigned field, and the bias of all fields together is one integer.  Fields
of 1, 2, 4 or 8 bytes are converted in bulk, through an unsigned
array.array.  Other fields are packed one by one with int.to_bytes (strided
bulk packing of 3- to 20-byte fields measured slower), and unpacked in bulk
up to 8 bytes, after their bytes are copied by strided slices into 4- or
8-byte fields (_restride); wider ones one by one with int.from_bytes.
Every packed int is written by _pack of a digit list (rows of one width laid
end to end by _flatten) and read by _unpack_rows cut into rows of one width,
zero rows left unconverted, or by _digits as one row without trailing zeros;
no other module converts digits or counts them.  A packed int moves to
wider fields with no per-digit work: its biased bytes are copied the same
way (_widen).
Of the 28 121 digits converted either way in one frontier pass of the
benchmark (seed 3001), 11 778 have 1- or 2-byte fields, 14 305 3-, 5- or
6-byte fields and 2 038 11- or 13-byte fields.  Rows that are polynomials in
s**2 (q-polynomials, most of the traffic) are multiplied, divided and gcd'ed
as polynomials in s**2, at half the length.

Exact division lays both operands out the same way, W the dividend's longest
row, which bounds the divisor's rows and a quotient's, divides them once in
s, and returns the quotient cut into rows only if the divisor times it is
the dividend: laid out at W = 2, s - s Lambda is s - s**3, which 1 + s
divides.  In a row division a factor s**i of the divisor is a
shift plus a check that the dividend has it, and a one-term divisor leaves
an integer check.  Otherwise the row is divided by schoolbook long division
over Z: each step divides the top coefficient by the divisor's leading one
and stops with None on a remainder, and the quotient is returned only when
the remainder left at the end is zero, so A = B * Q holds for every
quotient returned.  If B divides A in Z[s] the quotient has integer
coefficients and each step finds its next one, so a true divisor never gives
None.  When A and B are polynomials in s**2 so is A / B (A(-s) = A(s) and
B(-s) = B(s) force Q(-s) = Q(s)), so they are divided in s**2.

A RationalFunction is a reduced fraction of two IntPolys: numerator and
denominator coprime (integer content included), denominator nonzero with
positive leading coefficient, zero stored as 0/1.  All operations return
canonical values, so equality is structural.

gcd strategy: every gcd also returns the cofactors a / g and b / g, and a
RationalFunction is reduced by those, so nothing is divided twice.  One
algorithm, GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989;
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, 7.7),
runs at both levels: in s for rows, and in Lambda over the row gcd.

For two rows in s: take out the common power of s and the integer content,
answer one-term and equal rows directly and recurse at half length on rows
in s**2.  A gcd of 1 with no common power of s and no common content, most
gcds, returns the caller's two rows as the cofactors, and a gcd of 1 at half
length returns the rows in s**2 unspread.  Otherwise evaluate both rows at
xi = 2**(8*nbytes) by packing.  nbytes is sized from the larger coefficient
of either row, so every coefficient is a digit and xi >= 2 * min(max|A|,
max|B|) + 2; then a candidate that divides both rows is their gcd.  The
candidate g is the primitive part of the balanced base-xi digits of h =
gcd(A(xi), B(xi)), and the cofactor f of A is the digits of A(xi) / h, so
g(xi) * f(xi) = A(xi) by construction.  When sum|g_i| * max|f_i| < xi/2,
every coefficient of g * f is below xi/2 in magnitude, as is every
coefficient of A; both are then the balanced base-xi digits of one integer,
so g * f = A and f is accepted with no product.  Otherwise f is accepted
when g * f == A.  A cofactor with a coefficient of xi/2 or more has wrong
digits and fails that check; it is then taken by exact division.  B's
cofactor is taken the same way.  A candidate that does not divide widens
xi by about a quarter of its bits, and the loop tries again.

The gcd of a Lambda-free operand with one of several Lambda rows is folded
over the rows (_rows_gcd_cof), starting from the Lambda-free row, and stops
once it reaches 1.  The fold divides first: only a row that the running gcd
does not divide runs a gcd, whose cofactor g_old / g_new rescales the
quotients already taken.  A denominator's gcd with the first Lambda row
mostly divides every later one, so a g of two or more coefficients that a
gcd returns is tried on the two or more rows left at once (_block_divexact).
The first g, the Lambda-free row itself, is not tried: it rarely divides the
next row.  The rows left are laid end to end, W digits apart (W the longest
row), packed with g at one digit width that holds every coefficient of both,
and divided by one divmod.  The quotient Q's balanced digits, cut into slots
of W, are the quotients when the remainder is 0, each slot has len(r) -
len(g) + 1 digits (none for a zero row) and sum|g_i| * max|Q_j| < xi/2.
Then g times each slot stays in its slot, and g * Q and the packed rows are
both the balanced digits of one integer, so they agree slot by slot, as for
the cofactors above.  The slot lengths matter: 1 + s divides 1 + s**W for
odd W but neither row 1.  Q needs no digit past the last slot, since |g(xi)|
>= 1 makes |Q| no larger than the packed rows.  When a check fails, the
per-row fold goes on with the first row left, so it stays as the fallback.

Two operands with several Lambda rows are split by the same fold into their
Lambda-contents (the row gcd of their rows) and primitive parts.  The
primitive parts are evaluated at Lambda = xi, one packed int per power of s,
with nbytes sized as for rows; the row gcd of the two values is read back as
balanced base-xi digits, one Lambda row per digit, and its Lambda-primitive
part is the candidate.  It is returned when it divides both primitive parts,
and xi widens as for rows when it does not.  The gcd is the candidate times
the row gcd of the two contents.

The widening loop ends at both levels.  Write A = G * A' and B = G * B' with
A' and B' coprime.  The gcd of A(xi) and B(xi) is G(xi) * h with h =
gcd(A'(xi), B'(xi)), and h divides res(A', B') != 0, since the resultant is
u * A' + v * B'.  That resultant is a fixed integer for rows and a fixed
polynomial in s at the Lambda level, so the coefficients of G * h are
bounded by res and G alone.  Once xi/2 exceeds them, the digits are those of
G * h, whose primitive part is G, and G divides both.  xi grows
geometrically with each try, so no try cap and no fallback are needed.

Sums.  RationalFunction.sum reduces a long sum once, not once per term: it
adds the numerators of equal denominators, merges the distinct fractions
pairwise in a balanced tree over lcms, n1/d1 + n2/d2 = (n1*(d2/g) +
n2*(d1/g)) / (d1*(d2/g)) with g = gcd(d1, d2) and its cofactors, and reduces
the result once.  Two terms are added by +, whose final gcd is against the
smaller g rather than the whole denominator.

Products by rational constants.  When one factor of a product is an int, a
Fraction or a constant RationalFunction p/q, the other is A/B with A, B
coprime and p, q coprime, so gcd(A*p, B*q) = gcd(content(A), q) *
gcd(p, content(B)).  Those two integer gcds give the canonical product with
no polynomial gcd.

q -> 1 limits.  A canonical value's numerator and denominator are coprime,
so they never both vanish at s = 1: the limit is num(1) / den(1), or a pole.

Text.  parse_laurent reads the q / q^{1/2} notation that render prints by one
grammar, all whitespace ignored (parse_poly and parse_rational call it):

    text  = term (sign term)*, the first term's sign optional
    term  = (unsigned integer | power) ('*' (signed integer | power))*
    power = (q | lam) ['^' (e | '{' e '}' | '(' e ')')], e = signed integer ['/2']

An integer is 1 to 4300 ASCII digits, whatever int()'s digit limit.  q^a is
s**(2a), q^{a/2} is s**a and lam^b is Lambda**b; lam takes no /2.  Equal
monomials add, and a zero sum is dropped.  Other text and an exponent above
_MAX_PARSED_EXP raise ParseError.  parse_rational also reads (num)/(den).
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from operator import add, index, neg, sub


class DivisionByZero(ZeroDivisionError):
    """Division by the zero rational function."""


class PoleAtOne(ArithmeticError):
    """The q -> 1 limit does not exist (denominator vanishes at s = 1)."""


class LambdaPresent(ValueError):
    """Operation requires a Lambda-free element."""


class NumericPole(ArithmeticError):
    """Denominator numerically vanishes at the evaluation point."""


# Packing pays off once a * b > cutoff * (a + b) for the numbers a and b of
# nonzero coefficients of the factors.  Measured on CPython 3.11, x86-64,
# coefficients of 4 to 300 bits.
_PACK_MUL_CUTOFF = 4


# ---------------------------------------------------------------------------
# rows: lists of ints, low -> high power of s, no trailing zeros, zero = []
# ---------------------------------------------------------------------------

def _unorm(c):
    """Drop the trailing zeros of a fresh list in place and return it."""
    while c and not c[-1]:
        c.pop()
    return c


def _uval(c):
    """Exponent of the largest power of s dividing the nonzero row c."""
    i = 0
    while not c[i]:
        i += 1
    return i


def _nnz(c):
    return len(c) - c.count(0)


def _is_even(c):
    """Whether the row is a polynomial in s**2."""
    return not any(c[1::2])


def _spread(c):
    """The row c(s**2) from the row c(s)."""
    out = [0] * (2 * len(c) - 1)
    out[::2] = c
    return out


def _maxabs(c):
    return max(max(c), -min(c))


def _pos_lead_list(c):
    return [-x for x in c] if c and c[-1] < 0 else c


def _power(base, e, one):
    """base**e for an int e >= 0 by repeated squaring; one is the unit and
    only e = 0 returns it.  The result starts as the power of base at the
    lowest set bit of e, so no product has the unit as an operand."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def _uadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    if len(a) == len(b):
        return _unorm(out)
    return out + a[len(b):]


# -- Kronecker packing -------------------------------------------------------

def _width(bits):
    """Bytes per digit holding any integer below 2**bits in magnitude."""
    return bits // 8 + 1


def _bias(nbytes, n):
    """The sum of the bias 2**(8*nbytes-1) over n digits of nbytes bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


# Unsigned array typecodes by item size (any code of that size will do), for
# digits converted in bulk, and the least item size holding each width.
_DIGIT_CODES = {array(code).itemsize: code for code in "QLIHB"}
_BULK = {n: min(w for w in _DIGIT_CODES if w >= n) for n in range(1, max(_DIGIT_CODES) + 1)}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(c, nbytes):
    """c evaluated at 2**(8*nbytes); every |c_i| < 2**(8*nbytes-1)."""
    return int.from_bytes(_biased_bytes(c, nbytes), "little") - _bias(nbytes, len(c))


def _biased_bytes(c, nbytes):
    """The little-endian bytes of the digits c plus the bias 2**(8*nbytes-1)."""
    half = 1 << (8 * nbytes - 1)
    if nbytes not in _DIGIT_CODES:
        return b"".join([(x + half).to_bytes(nbytes, "little") for x in c])
    digits = array(_DIGIT_CODES[nbytes], map(half.__add__, c))
    if _BIG_ENDIAN:
        digits.byteswap()
    return digits.tobytes()


def _widen(v, nbytes, wider):
    """The digits of v, nbytes bytes each, packed again at wider bytes a
    digit: each biased field is copied into the low bytes of a wider one,
    whose bias is then the old one."""
    n = v.bit_length() // (8 * nbytes) + 2
    data = _restride((v + _bias(nbytes, n)).to_bytes(nbytes * n, "little"), nbytes, wider)
    return int.from_bytes(data, "little") - int.from_bytes(
        (bytes(nbytes - 1) + b"\x80" + bytes(wider - nbytes)) * n, "little")


def _restride(data, nbytes, wider):
    """The nbytes-byte fields of data, each copied by strided slices into the
    low bytes of a wider field."""
    out = bytearray(wider * (len(data) // nbytes))
    for k in range(nbytes):
        out[k::wider] = data[k::nbytes]
    return out


def _digits(v, nbytes):
    """The balanced base-2**(8*nbytes) digits of v, low first, no trailing zeros."""
    return _unorm(_unpack_rows(v, nbytes)[0])


def _unpack_rows(v, nbytes, n=None, width=None):
    """The n balanced base-2**(8*nbytes) digits of v, low first (None:
    enough for any int as long), in rows of width digits (None: one row); a
    zero row is [] and is not converted."""
    n = n or v.bit_length() // (8 * nbytes) + 2
    width = width or n
    data = (v + _bias(nbytes, n)).to_bytes(nbytes * n, "little")
    size = nbytes * width
    zero = (bytes(nbytes - 1) + b"\x80") * width
    return [_unbiased(row, nbytes) if (row := data[i:i + size]) != zero else []
            for i in range(0, len(data), size)]


def _unbiased(data, nbytes):
    """The digits of little-endian bytes of digits plus the bias; fields of
    other widths up to 8 bytes are copied into wider ones for the array."""
    half = 1 << (8 * nbytes - 1)
    if nbytes not in _BULK:
        return [int.from_bytes(data[i:i + nbytes], "little") - half
                for i in range(0, len(data), nbytes)]
    wider = _BULK[nbytes]
    if wider != nbytes:
        data = _restride(data, nbytes, wider)
    digits = array(_DIGIT_CODES[wider], data)
    if _BIG_ENDIAN:
        digits.byteswap()
    return list(map(half.__rsub__, digits))


def _flatten(rows, width):
    """The rows (lists or tuples) as one digit list with width digits per
    Lambda power."""
    flat = []
    for r in rows[:-1]:
        flat += r
        flat += [0] * (width - len(r))
    flat += rows[-1]
    return flat


# -- products ------------------------------------------------------------------

def _umul(a, b):
    """Product of two rows."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la == 1:
        return list(map(a[0].__mul__, b))
    if lb == 1:
        return list(map(b[0].__mul__, a))
    if la * lb > _PACK_MUL_CUTOFF * (la + lb):
        if not a[0] or not b[0]:
            va, vb = _uval(a), _uval(b)
            return [0] * (va + vb) + _umul(a[va:], b[vb:])
        if _is_even(a) and _is_even(b):
            return _spread(_umul(a[::2], b[::2]))
        na, nb = _nnz(a), _nnz(b)
        if na * nb > _PACK_MUL_CUTOFF * (na + nb):
            nbytes = _width(_maxabs(a).bit_length() + _maxabs(b).bit_length() + min(na, nb).bit_length())
            return _unpack_rows(_pack(a, nbytes) * _pack(b, nbytes), nbytes, la + lb - 1)[0]
    if _nnz(a) > _nnz(b):
        a, b, lb = b, a, la
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = map(add, out[i:i + lb], map(x.__mul__, b))
    return out


def _rows_mul(a, b):
    """Product of two polynomials given as rows: both laid end to end at the
    s-length of a product row, multiplied as one row and cut back into rows."""
    if not a or not b:
        return []
    width = max(map(len, a)) + max(map(len, b)) - 1
    return _cut(_umul(_flatten(a, width), _flatten(b, width)), width, len(a) + len(b) - 1)


def _cut(flat, width, n):
    """The first n rows of width digits of the digit list flat."""
    return [_unorm(flat[i:i + width]) for i in range(0, n * width, width)]


# -- exact division ------------------------------------------------------------

def _udivexact(a, b):
    """Exact quotient a / b of rows, or None if b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if not a[0] or not b[0]:
        va, vb = _uval(a), _uval(b)
        if va < vb:
            return None
        q = _udivexact(a[va:], b[vb:])
        return None if q is None else [0] * (va - vb) + q
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return None
    lead = b[-1]
    if db == 0:
        if lead == 1:
            return a
        q = [x // lead for x in a]
        return q if list(map(lead.__mul__, q)) == a else None
    if a[-1] % lead or a[0] % b[0]:
        return None
    if _is_even(a) and _is_even(b):
        q = _udivexact(a[::2], b[::2])
        return None if q is None else _spread(q)
    r = list(a)
    q = [0] * n
    low = b[:-1]
    for i in range(n - 1, -1, -1):
        top = r[i + db]
        if top:
            f, m = divmod(top, lead)
            if m:
                return None
            q[i] = f
            r[i:i + db] = map(sub, r[i:i + db], map(f.__mul__, low))
    return None if any(r[:db]) else q


def _rows_divexact(a, b):
    """Exact quotient of polynomials given as rows, or None: both laid end to
    end at the length of a's longest row and divided as one row; the quotient
    cut back into rows is returned only when b times it is a."""
    width = max(map(len, a))
    q = _udivexact(_flatten(a, width), _flatten(b, width))
    if q is None:
        return None
    q = _cut(q, width, len(a) - len(b) + 1)
    return q if _rows_mul(b, q) == a else None


# -- univariate gcd ------------------------------------------------------------

def _scaled(c, k):
    return c if k == 1 else list(map(k.__mul__, c))


def _ugcd_heu(A, B):
    """(g, A / g, B / g) for primitive rows of two or more terms, g their gcd
    with positive leading coefficient: GCDHEU at xi = 2**(8*nbytes), widened
    until a candidate divides both."""
    nbytes = _width(max(_maxabs(A), _maxabs(B)).bit_length())
    while True:
        ea, eb = _pack(A, nbytes), _pack(B, nbytes)
        h = math.gcd(ea, eb)
        if h == 1:
            return [1], A, B
        g = _digits(h, nbytes)
        c = math.gcd(*g)
        if c != 1:
            g = [x // c for x in g]
            h //= c
        # g * f and A agree at xi; below xi/2 in every coefficient they are
        # both the balanced digits of A(xi), so equal
        half, size = 1 << (8 * nbytes - 1), sum(map(abs, g))
        fa = _digits(ea // h, nbytes)
        if size * _maxabs(fa) >= half and _umul(g, fa) != A:
            fa = _udivexact(A, g)
        if fa is not None:
            fb = _digits(eb // h, nbytes)
            if size * _maxabs(fb) >= half and _umul(g, fb) != B:
                fb = _udivexact(B, g)
            if fb is not None:
                return g, fa, fb
        nbytes += nbytes // 4 + 1


def _ugcd_cof(a, b):
    """(g, a / g, b / g) for nonzero rows: g the gcd over Z[s], integer content
    included, positive leading coefficient."""
    va, vb = _uval(a), _uval(b)
    v = min(va, vb)
    A, B = a[va:] if va else a, b[vb:] if vb else b
    ca, cb = math.gcd(*A), math.gcd(*B)
    cg = math.gcd(ca, cb)
    if ca != 1:
        A = [x // ca for x in A]
    if cb != 1:
        B = [x // cb for x in B]
    if len(A) == 1 or len(B) == 1:
        g, fa, fb = [1], A, B
    elif A == B:
        g = _pos_lead_list(A)
        fa = fb = [1 if g is A else -1]
    elif _is_even(A) and _is_even(B):
        g, fa, fb = _ugcd_cof(A[::2], B[::2])
        g, fa, fb = ([1], A, B) if g == [1] else map(_spread, (g, fa, fb))
    else:
        g, fa, fb = _ugcd_heu(A, B)
    if g == [1] and not v and cg == 1:
        return g, a, b
    return ([0] * v + _scaled(g, cg), [0] * (va - v) + _scaled(fa, ca // cg),
            [0] * (vb - v) + _scaled(fb, cb // cg))


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------

class IntPoly:
    """Dense integer polynomial in s and Lambda: one row in s per power of Lambda."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, terms=None):
        rows = []
        if terms:
            for (a, b), coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError("IntPoly coefficients must be integers, not "
                                    + type(coeff).__name__)
                if coeff:
                    if a < 0 or b < 0:
                        raise ValueError("IntPoly exponents must be nonnegative")
                    rows += [[] for _ in range(b + 1 - len(rows))]
                    row = rows[b]
                    row += [0] * (a + 1 - len(row))
                    row[a] = int(coeff)
        self._rows = rows
        self._hash = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return _INTPOLY_ZERO

    @classmethod
    def one(cls):
        return _INTPOLY_ONE

    @classmethod
    def const(cls, c):
        c = index(c)
        return _raw_poly([[c]] if c else [])

    @classmethod
    def monomial(cls, coeff, exp_s=0, exp_lam=0):
        return cls({(exp_s, exp_lam): coeff})

    @classmethod
    def s_pow(cls, e):
        return _raw_poly([[0] * e + [1]])

    @classmethod
    def lam_pow(cls, e):
        return _raw_poly([[]] * e + [[1]])

    # -- structure ---------------------------------------------------------
    def is_zero(self):
        return not self._rows

    def is_one(self):
        return self._rows == [[1]]

    def is_const(self):
        rows = self._rows
        return not rows or (len(rows) == 1 and len(rows[0]) == 1)

    def has_lam(self):
        return len(self._rows) > 1

    def is_monomial(self):
        return sum(map(_nnz, self._rows)) == 1

    def deg_s(self):
        return max(map(len, self._rows), default=1) - 1

    def deg_lam(self):
        return max(len(self._rows) - 1, 0)

    def sorted_terms(self):
        """Terms in graded-lex descending order: list of ((exp_s, exp_lam), coeff)."""
        terms = [((a, b), c) for b, row in enumerate(self._rows) for a, c in enumerate(row) if c]
        terms.sort(key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True)
        return terms

    def leading_key(self):
        if not self._rows:
            raise ValueError("zero polynomial has no leading term")
        _, a, b = max((len(r) - 1 + b, len(r) - 1, b) for b, r in enumerate(self._rows) if r)
        return a, b

    def leading_coeff(self):
        if not self._rows:
            return 0
        a, b = self.leading_key()
        return self._rows[b][a]

    def content(self):
        return math.gcd(*map(lambda r: math.gcd(*r), self._rows))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._rows, other._rows
        if len(a) < len(b):
            a, b = b, a
        out = [_uadd(x, y) for x, y in zip(a, b)]
        if len(a) == len(b):
            return _raw_poly(_unorm(out))
        return _raw_poly(out + a[len(b):])

    def __sub__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _raw_poly([list(map(neg, r)) for r in self._rows])

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _INTPOLY_ZERO
            return _raw_poly([list(map(other.__mul__, r)) for r in self._rows])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._rows, other._rows
        if b == [[1]]:  # rows are never changed in place, so sharing is safe
            return self
        if a == [[1]]:
            return other
        if len(a) == 1 and len(b) == 1:
            return _raw_poly([_umul(a[0], b[0])])
        return _raw_poly(_rows_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("IntPoly power must be nonnegative")
        return _power(self, e, _INTPOLY_ONE)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self._rows == other._rows
        if isinstance(other, int):
            return self._rows == ([[other]] if other else [])
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            rows = self._rows
            if self.is_const():
                self._hash = hash(rows[0][0] if rows else 0)
            else:
                self._hash = hash(tuple(map(tuple, rows)))
        return self._hash

    def __bool__(self):
        return bool(self._rows)

    # -- evaluation & substitution -----------------------------------------
    def eval_complex(self, s_value, lam_value=1.0):
        acc = 0j
        for b, row in enumerate(self._rows):
            for a, c in enumerate(row):
                if c:
                    acc += c * s_value**a * lam_value**b
        return acc

    # -- division ----------------------------------------------------------
    def divexact(self, d):
        """Exact quotient self / d, or None if d does not divide self."""
        if not d._rows:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._rows:
            return _INTPOLY_ZERO
        if d._rows == [[1]]:
            return self
        q = _rows_divexact(self._rows, d._rows)
        return None if q is None else _raw_poly(q)

    # -- text ----------------------------------------------------------------
    def __str__(self):
        from .render import text  # render imports this module
        return text(self)

    def __repr__(self):
        return f"IntPoly({self})"


def _raw_poly(rows):
    p = IntPoly.__new__(IntPoly)
    p._rows = rows
    p._hash = None
    return p


_INTPOLY_ZERO = _raw_poly([])
_INTPOLY_ONE = _raw_poly([[1]])


# ---------------------------------------------------------------------------
# polynomial gcd
# ---------------------------------------------------------------------------

def _rows_gcd_cof(rows):
    """(g, [r / g for r in rows]) for rows not all zero: g the gcd of the
    nonzero rows, positive leading coefficient, folded dividing first; after
    each gcd the rows left are tried by one block division (see the module
    docstring).  A gcd of [1] returns the rows themselves."""
    g, cof = None, []
    for i, r in enumerate(rows):
        if not r:
            f = r
        elif g is None:
            g = _pos_lead_list(r)
            f = [1 if g is r else -1]
        elif (f := _udivexact(r, g)) is None:
            g, shrink, f = _ugcd_cof(g, r)
            if g == [1]:
                return g, rows
            cof = [_umul(c, shrink) for c in cof]
            if len(g) > 1 and len(rows) - i > 2:
                block = _block_divexact(rows[i + 1:], g)
                if block is not None:
                    return g, cof + [f] + block
        if g == [1]:
            return g, rows
        cof.append(f)
    return g, cof


def _block_divexact(rows, g):
    """[r / g for r in rows] for g of two or more coefficients, by one
    division of packed ints (see the module docstring); None when that
    quotient is not certified, which does not mean that g fails to divide."""
    width = max(map(len, rows))
    if width < len(g):
        return None
    nbytes = _width(max(_maxabs(g), *map(_maxabs, filter(None, rows))).bit_length())
    quotient, rem = divmod(_pack(_flatten(rows, width), nbytes), _pack(g, nbytes))
    if rem:
        return None
    slots = [_unorm(s) for s in _unpack_rows(quotient, nbytes, len(rows) * width, width)]
    drop = len(g) - 1
    if any(len(s) != (len(r) - drop if r else 0) for r, s in zip(rows, slots)):
        return None
    top = max(map(_maxabs, filter(None, slots)), default=0)
    return slots if sum(map(abs, g)) * top < 1 << (8 * nbytes - 1) else None


def _lam_eval(rows, nbytes):
    """The rows at Lambda = 2**(8*nbytes), a row in s: one packed column
    per power of s."""
    return [_pack(col, nbytes) for col in zip_longest(*rows, fillvalue=0)]


def _gcd_lam_heu(a, b):
    """(g, a / g, b / g) for Lambda-primitive rows, each with several rows:
    GCDHEU in Lambda at xi = 2**(8*nbytes) over the row gcd, widened until a
    candidate divides both; the quotients that accept it are the cofactors."""
    nbytes = _width(max(max(map(_maxabs, filter(None, r))) for r in (a, b)).bit_length())
    while True:
        h = _ugcd_cof(_lam_eval(a, nbytes), _lam_eval(b, nbytes))[0]
        digits = [_digits(c, nbytes) for c in h]
        g = [_unorm(list(r)) for r in zip_longest(*digits, fillvalue=0)]
        if len(g) == 1:  # Lambda-degree 0: the primitive part is 1
            return [[1]], a, b
        _, g = _rows_gcd_cof(g)
        fa = _rows_divexact(a, g)
        fb = None if fa is None else _rows_divexact(b, g)
        if fb is not None:
            return g, fa, fb
        nbytes += nbytes // 4 + 1


def poly_gcd(a, b):
    """gcd in Z[s, Lambda], positive leading coefficient, content included."""
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        return -p if p.leading_coeff() < 0 else p
    return _gcd_cof(a, b)[0]


def _gcd_cof(a, b):
    """(g, a / g, b / g) for nonzero IntPolys, g = poly_gcd(a, b).  A
    Lambda-free operand's gcd with the other is folded over the other's rows."""
    ra, rb = a._rows, b._rows
    if ra == [[1]] or rb == [[1]]:
        return _INTPOLY_ONE, a, b
    if len(ra) == 1 and len(rb) == 1:
        g, fa, fb = _ugcd_cof(ra[0], rb[0])
        if g == [1]:
            return _INTPOLY_ONE, a, b
        return _raw_poly([g]), _raw_poly([fa]), _raw_poly([fb])
    if len(ra) == 1 or len(rb) == 1:
        free = len(ra) == 1  # the fold starts from the Lambda-free row
        g, cof = _rows_gcd_cof(ra + rb if free else rb + ra)
        if g == [1]:
            return _INTPOLY_ONE, a, b
        fa, fb = (cof[:1], cof[1:]) if free else (cof[1:], cof[:1])
        return _raw_poly([g]), _raw_poly(fa), _raw_poly(fb)
    ca, pa = _rows_gcd_cof(ra)
    cb, pb = _rows_gcd_cof(rb)
    cg, fa, fb = _ugcd_cof(ca, cb)
    pg, qa, qb = _gcd_lam_heu(pa, pb)
    g, fa, fb = (_raw_poly(p if c == [1] else _rows_mul([c], p))
                 for c, p in ((cg, pg), (fa, qa), (fb, qb)))
    return (-g, -fa, -fb) if g.leading_coeff() < 0 else (g, fa, fb)


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------

class RationalFunction:
    """Canonical element of Q(s, Lambda): coprime num/den, positive-lead den."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = _INTPOLY_ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num, self.den = _INTPOLY_ZERO, _INTPOLY_ONE
        else:
            _, num, den = _gcd_cof(num, den)
            if den.leading_coeff() < 0:
                num, den = -num, -den
            self.num, self.den = num, den
        self._hash = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls):
        return _RF_ZERO

    @classmethod
    def one(cls):
        return _RF_ONE

    @classmethod
    def from_int(cls, n):
        return _rf_raw(IntPoly.const(n), _INTPOLY_ONE)

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return _rf_raw(IntPoly.const(fr.numerator), IntPoly.const(fr.denominator))

    @classmethod
    def q(cls):
        return _rf_raw(IntPoly.s_pow(2), _INTPOLY_ONE)

    @classmethod
    def lam(cls):
        return _rf_raw(IntPoly.lam_pow(1), _INTPOLY_ONE)

    @classmethod
    def q_power(cls, e):
        """q**e for any integer e; q**(1/2)-steps via s_power."""
        return cls.s_power(2 * e)

    @classmethod
    def s_power(cls, e):
        """s**e for any integer e (s = q**(1/2))."""
        if e >= 0:
            return _rf_raw(IntPoly.s_pow(e), _INTPOLY_ONE)
        return _rf_raw(_INTPOLY_ONE, IntPoly.s_pow(-e))

    # -- structure -----------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def has_lam(self):
        return self.num.has_lam() or self.den.has_lam()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes like the equal int or Fraction
        if self._hash is None:
            if self.num.is_const() and self.den.is_const():
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        g, b1, d1 = _gcd_cof(b, d)
        if g.is_one():
            return _rf_raw(a * d + c * b, b * d)
        num = a * d1 + c * b1
        if num.is_zero():
            return _RF_ZERO
        _, num, g = _gcd_cof(num, g)
        return _rf_raw(num, g * b1 * d1)

    __radd__ = __add__

    @staticmethod
    def sum(terms):
        """The sum of the terms (RationalFunctions, ints or Fractions), reduced
        once: numerators over equal denominators are added, the distinct
        fractions merged pairwise over lcms, and only the result reduced."""
        terms = [t for t in map(_coerce_or_raise, terms) if t.num._rows]
        if len(terms) == 2:
            return terms[0] + terms[1]
        if len(terms) < 2:
            return terms[0] if terms else _RF_ZERO
        groups = {}
        for t in terms:
            n = groups.get(t.den)
            groups[t.den] = t.num if n is None else n + t.num
        pairs = [(n, d) for d, n in groups.items()]
        while len(pairs) > 1:
            merged = []
            for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2]):
                _, f1, f2 = _gcd_cof(d1, d2)
                merged.append((n1 * f2 + n2 * f1, d1 * f2))
            if len(pairs) % 2:
                merged.append(pairs[-1])
            pairs = merged
        return RationalFunction(*pairs[0])

    def __neg__(self):
        return _rf_raw(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return _times_const(self, other, 1)
        if isinstance(other, Fraction):
            return _times_const(self, other.numerator, other.denominator)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return _RF_ZERO
        if c.is_const() and d.is_const():
            return _times_const(self, c._rows[0][0], d._rows[0][0])
        if a.is_const() and b.is_const():
            return _times_const(other, a._rows[0][0], b._rows[0][0])
        _, a, d = _gcd_cof(a, d)
        _, c, b = _gcd_cof(c, b)
        return _rf_raw(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by the zero element")
        num, den = other.den, other.num
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return self * _rf_raw(num, den)

    def __pow__(self, e):
        if e == 0:
            return _RF_ONE
        if e < 0:
            if self.num.is_zero():
                raise DivisionByZero("negative power of the zero element")
            return (_RF_ONE / self) ** (-e)
        return _rf_raw(self.num**e, self.den**e)

    # -- limits & evaluation -----------------------------------------------
    def limit_q_to_1(self):
        """The exact value at s = 1, num(1) / den(1), as a Fraction: no
        factor s - 1 is left to cancel (see q -> 1 limits above).  Requires a
        Lambda-free element; raises PoleAtOne if den(1) = 0."""
        if self.has_lam():
            raise LambdaPresent("element contains q**lambda")
        dv = sum(self.den._rows[0])
        if dv == 0:
            raise PoleAtOne("denominator vanishes at q = 1")
        return Fraction(sum(self.num._rows[0]) if self.num._rows else 0, dv)

    def eval_numeric(self, s_value, lam_value=None):
        """Double-precision complex value at the given generator values."""
        if self.has_lam() and lam_value is None:
            raise LambdaPresent("element contains q**lambda; pass lam_value")
        lv = 1.0 if lam_value is None else complex(lam_value)
        sv = complex(s_value)
        dv = self.den.eval_complex(sv, lv)
        # relative to the sum of the denominator's term magnitudes, so a
        # monomial denominator at small |s| is not taken for a pole
        size = sum(abs(c) * abs(sv) ** a * abs(lv) ** b
                   for b, row in enumerate(self.den._rows) for a, c in enumerate(row) if c)
        if abs(dv) <= 1e-12 * size:
            raise NumericPole(f"denominator magnitude {abs(dv):.3e} is at most 1e-12 of "
                              f"its terms' magnitudes, {size:.3e}")
        return self.num.eval_complex(sv, lv) / dv

    def as_fraction(self):
        """The element as a Fraction; raises if not constant."""
        if not self.num.is_const() or not self.den.is_const():
            raise ValueError("element is not a rational constant")
        return Fraction(self.num.leading_coeff() if self.num else 0,
                        self.den.leading_coeff())

    # -- text ----------------------------------------------------------------
    def __str__(self):
        from .render import text  # render imports this module
        return text(self)

    def __repr__(self):
        return f"RationalFunction({self})"


def _rf_raw(num, den):
    r = RationalFunction.__new__(RationalFunction)
    r.num, r.den, r._hash = num, den, None
    return r


def _content_gcd(rows, g):
    """gcd of the int g and the coefficients of the rows."""
    for r in rows:
        if g == 1:
            break
        g = math.gcd(g, *r)
    return g


def _times_const(r, p, q):
    """r * p/q for coprime ints p and q > 0.  r = A/B is reduced and so is
    p/q, so the product's only common factors are gcd(content(A), q) and
    gcd(p, content(B)), divided out with no polynomial gcd."""
    num, den = r.num, r.den
    if not p or not num._rows:
        return _RF_ZERO
    g, h = _content_gcd(num._rows, q), _content_gcd(den._rows, p)
    p, q = p // h, q // g
    if g != 1 or p != 1:
        num = _raw_poly([[x // g * p for x in row] for row in num._rows])
    if h != 1 or q != 1:
        den = _raw_poly([[x // h * q for x in row] for row in den._rows])
    return _rf_raw(num, den)


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction.from_int(x)
    if isinstance(x, Fraction):
        return RationalFunction.from_fraction(x)
    return NotImplemented


def _coerce_or_raise(x):
    r = _coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as a RationalFunction")
    return r


_RF_ZERO = _rf_raw(_INTPOLY_ZERO, _INTPOLY_ONE)
_RF_ONE = _rf_raw(_INTPOLY_ONE, _INTPOLY_ONE)


# ---------------------------------------------------------------------------
# text parsing (q / q^{1/2} notation, as qpoly.render prints it)
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed polynomial / rational-function text."""


# The grammar of the module docstring's Text paragraph, in words: terms
# joined by signs; a term is an unsigned integer or a power, then '*' and a
# signed integer or a power, any number of times; a power is q or lam with an
# optional '^' exponent, a signed integer, optionally /2, bare or bracketed.
_INT = r"[0-9]{1,4300}"
_EXPONENT = rf"[+-]?{_INT}(?:/2)?"
_POWER = rf"(?:q|lam)(?:\^(?:{_EXPONENT}|\{{{_EXPONENT}\}}|\({_EXPONENT}\)))?"
_TERM = re.compile(rf"([+-]?)((?:{_INT}|{_POWER})(?:\*(?:[+-]?{_INT}|{_POWER}))*)")
# One factor of a term that _TERM matched.  The pattern is loose (it skips
# the '*' and the closing brackets) because _TERM has checked the term.
_FACTOR = re.compile(r"([+-]?[0-9]+)|(q|lam)(?:\^[{(]?([+-]?[0-9]+)(/2)?)?")


def parse_laurent(text):
    """Parse a sum of monomial terms into {(exp_s, exp_lam): coeff};
    exponents may be negative."""
    text, out, pos = "".join(text.split()), {}, 0
    end = len(text)
    while True:  # an empty text matches no term
        term = _TERM.match(text, pos)
        if term is None or (pos and not term[1]):  # a later term needs its sign
            raise ParseError(f"malformed polynomial text at {text[pos:pos + 20]!r}")
        coeff, es, el = -1 if term[1] == "-" else 1, 0, 0
        body = term[2]  # int() takes 640 digits under any digit limit, Decimal any number
        to_int = int if len(body) <= 640 else lambda digits: int(Decimal(digits))
        for integer, var, exp, half in _FACTOR.findall(body):
            if integer:
                coeff *= to_int(integer)
            elif var == "q":
                es += (to_int(exp) if half else 2 * to_int(exp)) if exp else 2
            elif half:
                raise ParseError("half-integer lam exponent")
            else:
                el += to_int(exp) if exp else 1
        out[es, el] = out.get((es, el), 0) + coeff
        pos = term.end()
        if pos == end:
            return {key: c for key, c in out.items() if c}


def parse_poly(text):
    """Parse canonical IntPoly text (nonnegative exponents only)."""
    terms = parse_laurent(text)
    for (es, el) in terms:
        if es < 0 or el < 0:
            raise ParseError("negative exponent in plain polynomial text")
    return _parsed_poly(terms)


# Largest exponent of s or Lambda accepted in text: rows are dense, so
# q^{10^9} would need gigabytes.
_MAX_PARSED_EXP = 1 << 20


def _parsed_poly(terms):
    for (es, el) in terms:
        if es > _MAX_PARSED_EXP or el > _MAX_PARSED_EXP:
            raise ParseError(f"exponent above {_MAX_PARSED_EXP} in polynomial text")
    return IntPoly(terms)


def parse_rational(text):
    """Parse RationalFunction text: plain sum, Laurent sum, or (num)/(den)."""
    text = "".join(text.split())
    if ")/(" in text and text.startswith("(") and text.endswith(")"):
        i = text.index(")/(")
        num, den = parse_poly(text[1:i]), parse_poly(text[i + 3:-1])
        if den.is_zero():
            raise ParseError("zero denominator")
        return RationalFunction(num, den)
    terms = parse_laurent(text)
    min_s = min((es for es, _ in terms), default=0)
    min_l = min((el for _, el in terms), default=0)
    shift_s = -min(min_s, 0)
    shift_l = -min(min_l, 0)
    num = _parsed_poly({(es + shift_s, el + shift_l): c for (es, el), c in terms.items()})
    den = _parsed_poly({(shift_s, shift_l): 1})
    return RationalFunction(num, den)
