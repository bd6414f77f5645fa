"""Partition enumeration and the three connection engines."""

import cmath
import collections
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from qpoly.field import IntPoly
from qpoly.field import RationalFunction as RF
from qpoly.families import (
    COSPOLY_RING,
    CosPolynomial,
    ZPolynomial,
    gegenbauer_classical,
    gegenbauer_weight,
    laguerre_classical,
    q_gegenbauer_direct,
    q_hermite,
    q_laguerre,
)
from qpoly.connection import (
    BetaPolynomial,
    ConnectionTerm,
    LambdaPolynomial,
    gegenbauer_classical_lambda,
    gegenbauer_connection,
    gegenbauer_connection_value,
    gegenbauer_sum_rule,
    gegenbauer_sum_rule_logs,
    hermite_connection,
    laguerre_connection,
    laguerre_partitions,
    partitions_of,
    sum_rule_explicit,
)
from qpoly.qkernel import q_binomial, quesne_c
from qpoly.series import TruncatedSeries
from qpoly.verify import (
    gegenbauer_displayed_connection,
    hermite5_reference,
    laguerre33_reference,
    run_suite,
)

from test_field import _at_lambda_one, _division_work


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------

def brute_partitions(n):
    """Independent enumeration: ascending parts lists."""
    def gen(m, minpart):
        if m == 0:
            yield ()
        for p in range(minpart, m + 1):
            for rest in gen(m - p, p):
                yield (p,) + rest
    return list(gen(n, 1))


def partition_count_dp(n):
    """Independent count via the coin-style recurrence."""
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for i in range(part, n + 1):
            dp[i] += dp[i - part]
    return dp[n]


def test_partitions_trivial():
    sols = partitions_of(0)
    assert len(sols) == 1 and sols[0].parts == ()


def test_partitions_counts():
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(10)) == 42


def test_partitions_vs_brute_force():
    for n in range(13):
        sols = partitions_of(n)
        assert len(sols) == partition_count_dp(n)
        got = {sol.parts for sol in sols}
        expected = set()
        for parts in brute_partitions(n):
            mult = {}
            for p in parts:
                mult[p] = mult.get(p, 0) + 1
            expected.add(tuple(sorted(mult.items())))
        assert got == expected
        assert all(sum(k * m for k, m in sol.parts) == n for sol in sols)


def test_partitions_equal_brute_force_in_order():
    # every multiset of parts summing to n, parts descending, lexicographically
    # descending, as ((k, n_k), ...) with k ascending: p(25) = 1958
    for n in range(26):
        expected = [tuple(sorted((k, parts.count(k)) for k in set(parts)))
                    for parts in sorted((p[::-1] for p in brute_partitions(n)), reverse=True)]
        assert [sol.parts for sol in partitions_of(n)] == expected
    assert len(expected) == 1958


def test_partitions_order_deterministic():
    # parts-descending lexicographic: [n] first, all-ones last
    sols = partitions_of(5)
    as_lists = []
    for sol in sols:
        parts = []
        for k, m in sorted(sol.parts, reverse=True):
            parts.extend([k] * m)
        as_lists.append(tuple(parts))
    assert as_lists == sorted(as_lists, reverse=True)
    assert as_lists[0] == (5,)
    assert as_lists[-1] == (1,) * 5


# ---------------------------------------------------------------------------
# Laguerre partition solutions
# ---------------------------------------------------------------------------

# first column of the contribution table at n = 3, k = 3, as
# (l, ((j, k_j), ...), ((j, l_j), ...))
TABLE2_SOLUTIONS = {
    (0, ((1, 3),), ()),
    (0, (), ((1, 3),)),
    (3, (), ()),
    (0, ((3, 1),), ()),
    (0, (), ((3, 1),)),
    (0, ((1, 1), (2, 1)), ()),
    (0, (), ((1, 1), (2, 1))),
    (0, ((1, 2),), ((1, 1),)),
    (0, ((1, 1),), ((1, 2),)),
    (1, ((1, 2),), ()),
    (2, ((1, 1),), ()),
    (1, (), ((1, 2),)),
    (2, (), ((1, 1),)),
    (0, ((2, 1),), ((1, 1),)),
    (1, ((2, 1),), ()),
    (1, (), ((2, 1),)),
    (0, ((1, 1),), ((2, 1),)),
    (1, ((1, 1),), ((1, 1),)),
}


def brute_laguerre_partitions(n, k):
    sols = set()
    js = list(range(1, k + 1))
    ranges = [range(k // j + 1) for j in js] * 2
    for combo in itertools.product(*ranges) if js else [()]:
        kv, lv = combo[: len(js)], combo[len(js):]
        used = sum(j * (kv[i] + lv[i]) for i, j in enumerate(js))
        ell = k - used
        if 0 <= ell <= n:
            sols.add((ell,
                      tuple((j, kv[i]) for i, j in enumerate(js) if kv[i]),
                      tuple((j, lv[i]) for i, j in enumerate(js) if lv[i])))
    return sols


def test_laguerre_partitions_table():
    sols = laguerre_partitions(3, 3)
    assert len(sols) == 18
    assert {(s.ell, s.kparts, s.lparts) for s in sols} == TABLE2_SOLUTIONS


def test_laguerre_partitions_degree_zero():
    sols = laguerre_partitions(5, 0)
    assert len(sols) == 1
    assert sols[0].ell == 0 and not sols[0].kparts and not sols[0].lparts


def test_laguerre_partitions_n0():
    assert all(s.ell == 0 for s in laguerre_partitions(0, 2))


def test_laguerre_partitions_vs_brute_force():
    for n in range(4):
        for k in range(5):
            got = {(s.ell, s.kparts, s.lparts) for s in laguerre_partitions(n, k)}
            assert got == brute_laguerre_partitions(n, k)
            assert all(s.ell + sum(j * v for j, v in s.kparts + s.lparts) == k
                       for s in laguerre_partitions(n, k))


# ---------------------------------------------------------------------------
# Hermite connection
# ---------------------------------------------------------------------------

def test_hermite_connection_degree_zero():
    expansion = hermite_connection(0)
    assert expansion.rescaled_total() == q_hermite(0)
    assert len(expansion.terms) == 1


def test_hermite_connection_matches_family():
    for n in [*range(9), 17, 20]:
        assert hermite_connection(n).rescaled_total() == q_hermite(n)


def test_hermite_connection_five():
    expansion = hermite_connection(5)
    assert len(expansion.terms) == 7
    assert expansion.rescaled_total() == hermite5_reference()


def test_hermite_total_is_term_sum():
    for n in (6, 9):
        expansion = hermite_connection(n)
        total = None
        for term in expansion.terms:
            total = term.value if total is None else total + term.value
        assert total == expansion.rescaled_total()


def test_hermite_u_v_integer_forms_match_quesne_c():
    # (b, a) stands for b (1 - x)**(k-1) q**(k-a) / [a]_x with x = q**-2
    from qpoly.connection import _hermite_u, _hermite_v
    from qpoly.qkernel import q_number, quesne_c

    q, x = RF.q(), RF.q_power(-2)
    for k in range(1, 13):
        sign = 1 if k % 2 else -1
        forms = {}
        for name, (b, a) in (("u", _hermite_u(k)), ("v", _hermite_v(k))):
            forms[name] = (1 - x) ** (k - 1) * RF.q_power(k - a) / q_number(a, -2) * b
        assert forms["u"] == quesne_c(k, -2) * (sign * 2**k)
        assert forms["v"] == quesne_c(k, -4) * (q * 2 / (1 + q**2)) ** k * sign


def _divide_q_number(row, a):
    """row / [a] for an x-row: row (1 - x) over 1 - x**a by qkernel's stride
    sums; ArithmeticError if [a] does not divide it."""
    from qpoly.qkernel import _divide_one_minus, _times_one_minus

    return _divide_one_minus(_times_one_minus(row, 1), a)


def test_divide_q_number_is_exact_or_raises():
    rng = random.Random(17)
    for _ in range(200):
        a = rng.randint(1, 7)
        quotient = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        quotient[-1] = quotient[-1] or 1
        row = [sum(quotient[i - r] for r in range(a) if 0 <= i - r < len(quotient))
               for i in range(len(quotient) + a - 1)]  # quotient * [a]_x
        assert _divide_q_number(row, a) == quotient
        if a > 1:
            broken = list(row)
            broken[rng.randrange(len(row))] += rng.choice((-1, 1))  # plus a monomial
            with pytest.raises(ArithmeticError):
                _divide_q_number(broken, a)
    assert _divide_q_number([1, 2, 1], 2) == [1, 1]  # (1 + x)**2 / [2]
    with pytest.raises(ArithmeticError):
        _divide_q_number([1, 2, 1, 1], 2)


def _hermite_mu_keys(n):
    """The keys mu of the Hermite row terms, enumerated independently: per
    part (k, m), d parts k and (m - d)/2 parts 2k for d = m, m - 2, ...; the
    parts above 1, largest first."""
    keys = set()
    for sol in partitions_of(n):
        choices = [[(k,) * d + (2 * k,) * ((m - d) // 2) for d in range(m % 2, m + 1, 2)]
                   for k, m in sol.parts]
        for combo in itertools.product(*choices):
            keys.add(tuple(sorted((a for part in combo for a in part if a > 1), reverse=True)))
    return keys


def _count_packed_divisions(monkeypatch):
    """Patch the quotient kernel's divmod, one per packed division step, and
    return the list that gathers each step's divisor."""
    import qpoly.connection as connection

    divisors = []

    def counted(v, d):
        divisors.append(d)
        return divmod(v, d)

    monkeypatch.setattr(connection, "divmod", counted, raising=False)
    return divisors


def test_hermite_builds_each_quotient_once(monkeypatch):
    divisors = _count_packed_divisions(monkeypatch)
    n = 16
    expansion = hermite_connection.__wrapped__(n)
    monkeypatch.undo()
    prefixes = {mu[:i] for mu in _hermite_mu_keys(n) for i in range(1, len(mu) + 1)}
    assert len(divisors) == len(prefixes) == 230
    assert 1 not in divisors  # no division by the packed [1]
    assert expansion.rescaled_total() == q_hermite(n)


def test_quotient_kernel_raises_on_a_nonzero_remainder():
    from qpoly.connection import _quotient_sums

    # [3]! / [2] = [3], which [2] does not divide
    with pytest.raises(ArithmeticError):
        _quotient_sums(3, {(2, 2): {(0, 0): 1}})
    assert _quotient_sums(3, {(2,): {(0, 0): 1}, (3,): {(0, 1): 2}}) == {0: [3, 1, -1]}
    # with an order m per key, the sum is also divided by [3]!/[m]!: [3]!/[2]
    # over [3] is 1, and [3]!/[3] = [2]! is no multiple of [3]
    assert _quotient_sums(3, {(2,): {(2, 0): 1}}, lambda m: m) == {2: [1]}
    with pytest.raises(ArithmeticError):
        _quotient_sums(3, {(3,): {(2, 0): 1}}, lambda m: m)


def test_quotient_kernel_reads_each_key_to_its_top_digit():
    from qpoly.connection import _quotient_sums

    # [3]! = [2][3], so [3]! + (1 - x)[3] = 2[3]: its x**3 terms cancel, and
    # [3]! - 2[3] + (1 - x)[3] = 0: every term cancels
    uses = {(): {("top", 0): 1, ("zero", 0): 1}, (2,): {("top", 1): 1, ("zero", 0): -2, ("zero", 1): 1}}
    assert _quotient_sums(3, uses) == {"top": [2, 2, 2]}


def _quotient_sums_by_powers(n, uses, order=None):
    # the quotient kernel with each (key, E) sum multiplied by its own (1 -
    # xi)**E, as before the Horner pass, and each Q_mu divided out of [n]!
    # part by part with no prefix walk; the widths are the kernel's
    from qpoly.field import _digits, _pack, _width
    from qpoly.qkernel import _q_factorial_row

    top, bound = math.factorial(n), {}
    for mu, entries in uses.items():
        for (key, e), c in entries.items():
            bound[key] = bound.get(key, 0) + (abs(c) * (top // math.prod(mu)) << e)
    nbytes = _width(max(top, *bound.values()).bit_length())
    xi = 1 << (8 * nbytes)

    def exact(v, parts):
        for a in parts:
            v, remainder = divmod(v, ((1 << (8 * nbytes * a)) - 1) // (xi - 1))
            if remainder:
                raise ArithmeticError(f"[{a}] does not divide the row")
        return v

    sums = {}
    for mu in sorted(uses):  # the kernel's walk order, so its keys come in the same order
        packed = exact(_pack(_q_factorial_row(n), nbytes), mu)
        for entry, c in uses[mu].items():
            sums[entry] = sums.get(entry, 0) + c * packed
    totals = {}
    for (key, e), v in sums.items():
        totals[key] = totals.get(key, 0) + v * (1 - xi) ** e
    if order is not None:
        totals = {key: exact(v, range(n, order(key), -1)) for key, v in totals.items()}
    return {key: _digits(v, nbytes) for key, v in totals.items() if v}


def _random_uses(rng):
    # (n, uses, orders): a few keys, each with its own m <= n (its order) and
    # entries at exponents with gaps; mu runs over parts above 1, largest
    # first, summing to at most m.  One key sums to 0 now and then, by Q_mu
    # = [2] Q_mu' = (2 - (1 - x)) Q_mu' for mu' = mu and a part 2.
    n = rng.randint(2, 11)
    uses, orders = {}, {}
    for key in range(rng.randint(1, 4)):
        m = orders[key] = rng.randint(2, n)
        powers = rng.sample(range(9), rng.randint(1, 4))
        for _ in range(rng.randint(1, 6)):
            mu, rest = [], rng.randint(0, m)
            while rest >= 2 and rng.random() < 0.8:
                mu.append(rng.randint(2, rest))
                rest -= mu[-1]
            mu = tuple(sorted(mu, reverse=True))
            c = rng.choice([1, -1]) * rng.choice([1, rng.randint(1, 99), rng.randint(1, 10**12)])
            uses.setdefault(mu, {})[key, rng.choice(powers)] = c
    mu = rng.choice(list(uses))
    if sum(mu) + 2 <= n and rng.random() < 0.5:
        e, c, orders["zero"] = rng.randrange(9), rng.randint(1, 9), n
        uses[mu]["zero", e] = c
        uses.setdefault(tuple(sorted(mu + (2,), reverse=True)), {}).update({("zero", e): -2 * c, ("zero", e + 1): c})
    return n, uses, orders


def _kernel_mismatches(seed, count):
    """(index, order used) of each of `count` seeded random uses where the
    quotient kernel and _quotient_sums_by_powers differ in a key, a row or
    the order of the keys, or either raises, with and without order."""
    from qpoly.connection import _quotient_sums

    rng, bad = random.Random(seed), []
    for index in range(count):
        n, uses, orders = _random_uses(rng)
        for order in (None, orders.__getitem__):
            try:
                if list(_quotient_sums(n, uses, order).items()) != list(
                        _quotient_sums_by_powers(n, uses, order).items()):
                    bad.append((index, order is not None))
            except Exception as exc:
                bad.append((index, order is not None, repr(exc)))
    return bad


def test_quotient_kernel_matches_the_per_exponent_powers():
    assert _kernel_mismatches(44, 500) == []


def test_prefix_walk_steps_each_prefix_once():
    from qpoly.connection import _prefix_walk

    keys = [(3, 1), (2, 2, 1), (), (3,), (2, 1), (2, 2, 1, 1), (1,)]
    steps = []

    def step(value, part):
        steps.append(value + (part,))
        return value + (part,)

    assert list(_prefix_walk(keys, (), step)) == [(key, key) for key in sorted(keys)]
    assert sorted(steps) == sorted({key[:i] for key in keys for i in range(1, len(key) + 1)})
    steps.clear()
    # the empty key is the root, with no step (n = 0 of every engine)
    assert list(_prefix_walk({(): None}, "root", step)) == [((), "root")]
    assert steps == []


def _prefixes(keys):
    return {key[:i] for key in keys for i in range(1, len(key) + 1)}


def test_product_callers_build_each_block_and_prefix_once(monkeypatch):
    # every product over the parts of a key goes through _products: each
    # distinct part's block is built once, each distinct prefix is stepped
    # once in the prefix walk, and only prefixes of two or more parts take a
    # product, none with the unit
    import qpoly.connection as connection

    _clear_caches()
    walk, products = connection._prefix_walk, connection._products
    walks, calls = [], []

    def counted_walk(keys, root, step):
        steps = []
        walks.append(steps)
        return walk(keys, root, lambda value, part: steps.append(part) or step(value, part))

    def counted_products(keys, block, times, unit):
        keys, built, taken, first = list(keys), [], [], len(walks)

        def counted_times(a, b):
            taken.append(a is unit or b is unit)
            return times(a, b)

        out = products(keys, lambda *part: built.append(part) or block(*part), counted_times, unit)
        (steps,) = walks[first:]
        calls.append((keys, built, steps, taken))
        return out

    monkeypatch.setattr(connection, "_prefix_walk", counted_walk)
    monkeypatch.setattr(connection, "_products", counted_products)
    aux = {1: 2, 2: -1, 3: 3}
    hermite_connection(12).terms
    laguerre_connection(8, 8, aux).terms
    gegenbauer_connection_value(gegenbauer_connection(10))
    weights = {k: gegenbauer_weight(k) for k in range(1, 11)}
    total = gegenbauer_connection(10).total
    values = [c.substitute(weights.__getitem__, RF.one()) for _, c in total.sorted_terms()]
    monkeypatch.undo()
    sizes = []
    for keys, built, steps, taken in calls:
        assert sorted(built) == sorted({part for key in keys for part in key})
        prefixes = _prefixes(keys)
        assert sorted(steps) == sorted(p[-1] for p in prefixes)
        assert taken == [False] * sum(len(p) > 1 for p in prefixes)
        sizes.append((len(built), len(steps)))
    assert len(calls) == 5 + len(values)  # Hermite total and rows, Laguerre rows, two in the value route
    assert sizes[:5] == [(34, 132), (34, 132), (20, 20 + 46), (26, 71), (26, 71)]
    assert values == [_substitute_factor_by_factor(c, weights) for _, c in total.sorted_terms()]


def _substitute_factor_by_factor(coeff, weights):
    # each monomial's weights multiplied from the unit, one factor at a time
    terms = []
    for mono, c in coeff._terms.items():
        value = RF.one()
        for g, e in mono:
            for _ in range(e):
                value = value * weights[g]
        terms.append(value * c)
    return RF.sum(terms)


def _hermite_tables_by_partition(n):
    # the per-partition loop the prefix walk replaced: each partition's
    # choices multiplied from the unit row
    from qpoly.connection import _hermite_u, _hermite_v
    from qpoly.families import hermite_classical

    tables = []
    for sol in partitions_of(n):
        row = [(0, (), 1, 1)]
        for k, m in sol.parts:
            (bu, au), (bv, av) = _hermite_u(k), _hermite_v(k)
            options = []
            for d, h in hermite_classical(m)._terms.items():
                e = (m - d) // 2
                c = h.as_fraction() / (math.factorial(m) * 2**d) * bu**d * bv**e
                options.append((k * d, (au,) * d + (av,) * e, c.numerator, c.denominator))
            row = [(j + kd, mu + parts, a * ca, b * cb)
                   for j, mu, a, b in row for kd, parts, ca, cb in options]
        # each term as (j, count key, E, a, b): the count of part p > 1 of mu
        # in field p, n's bit length wide, and E = n - t - |mu| from mu and j
        table = []
        for j, mu, a, b in row:
            g, parts = math.gcd(a, b), [p for p in mu if p > 1]
            key = sum(1 << n.bit_length() * p for p in parts)
            table.append((j, key, sum(parts) - len(parts) - (n - j) // 2, a // g, b // g))
        tables.append(table)
    return tables


def test_hermite_tables_match_the_per_partition_loop():
    from qpoly.connection import _hermite_tables, _parts

    for n in range(19):
        tables = _hermite_tables(n)
        assert tables == _hermite_tables_by_partition(n), n
        for key in {key for table in tables for _, key, _, _, _ in table}:
            parts = _parts(key, n)  # the kernel's mu: parts above 1, largest first
            assert list(parts) == sorted(parts, reverse=True) and min(parts, default=2) > 1, (n, key)
            assert sum(1 << n.bit_length() * p for p in parts) == key, (n, key)


def test_prefix_walk_visits_the_partitions_in_reverse():
    # _hermite_tables returns the walk's tables reversed, in partitions_of order
    from qpoly.connection import _multiplicities

    for n in range(40):
        keys = list(_multiplicities(n, n))
        assert sorted(keys) == keys[::-1], n


def test_gegenbauer_connection_builds_each_prefix_once(monkeypatch):
    # one product P * A_k per distinct prefix of the partitions of n, parts
    # largest first, and no coefficient of any lower order
    import qpoly.connection as connection

    walk = connection._prefix_walk
    steps = []

    def counted(keys, root, step):
        return walk(keys, root, lambda value, part: steps.append(part) or step(value, part))

    monkeypatch.setattr(connection, "_prefix_walk", counted)
    n = 12
    expansion = gegenbauer_connection.__wrapped__(n)
    monkeypatch.undo()
    keys = {tuple(k for k, m in reversed(sol.parts) for _ in range(m)) for sol in partitions_of(n)}
    assert len(steps) == len({mu[:i] for mu in keys for i in range(1, len(mu) + 1)}) == 271
    assert gegenbauer_connection_value(expansion) == q_gegenbauer_direct(n)


@pytest.mark.parametrize("n", [6, 9])
def test_gegenbauer_value_builds_each_quotient_once(n, monkeypatch):
    # the weights' quotients come from the same kernel as Hermite's: one
    # packed division per distinct prefix of the parts above 1 of a partition
    # of n (every partition is a weight monomial), and no bivariate divexact
    def forbidden(self, d):
        raise AssertionError("IntPoly.divexact called")

    expansion = gegenbauer_connection(n)
    divisors = _count_packed_divisions(monkeypatch)
    monkeypatch.setattr(IntPoly, "divexact", forbidden)
    value = gegenbauer_connection_value(expansion)
    monkeypatch.undo()
    keys = {tuple(sorted((k for k, m in sol.parts if k > 1 for _ in range(m)), reverse=True))
            for sol in partitions_of(n)}
    assert len(divisors) == len({mu[:i] for mu in keys for i in range(1, len(mu) + 1)})
    assert 1 not in divisors
    assert value == q_gegenbauer_direct(n)


@pytest.mark.parametrize("engine", ["hermite", "laguerre", "gegenbauer"])
def test_cached_expansion_holds_no_rows(engine):
    # every engine builds its rows on each read of `terms`: none outlives it
    expansion = {"hermite": lambda: hermite_connection(6),
                 "laguerre": lambda: laguerre_connection(4, 4, {1: 2, 2: -1}),
                 "gegenbauer": lambda: gegenbauer_connection(6)}[engine]()
    row = weakref.ref(expansion.terms[0])
    gc.collect()
    assert row() is None
    assert expansion.terms == expansion.terms


def test_gegenbauer_value_reads_no_rows(monkeypatch):
    # the value route reads the expansion's total, never its rows
    from qpoly.connection import ConnectionExpansion

    def forbidden(self):
        raise AssertionError("ConnectionExpansion.terms read")

    expansion = gegenbauer_connection(7)
    monkeypatch.setattr(ConnectionExpansion, "terms", property(forbidden))
    assert gegenbauer_connection_value(expansion) == q_gegenbauer_direct(7)


def test_gegenbauer_total_denominators_have_lcm_n_factorial():
    # the value route scales by n!: each coefficient is an integer times the
    # count of a cycle type over n!, and C_1**n's at beta_1**n is 1/n!
    for n in range(13):
        total = gegenbauer_connection(n).total
        denominators = [c.denominator for beta in total._terms.values() for c in beta._terms.values()]
        assert math.lcm(*denominators) == math.factorial(n), n


def test_cached_hermite_expansion_holds_no_tables():
    # its rows rebuild the term tables on each read: the closure holds only n
    expansion = hermite_connection(8)
    assert [cell.cell_contents for cell in expansion.make_terms.__closure__] == [8]
    assert sum((t.value for t in expansion.terms), ZPolynomial.zero()) == expansion.total


def test_hermite_total_takes_no_rational_function_arithmetic(monkeypatch):
    import qpoly.connection as connection

    calls, rows = [], []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__truediv__"):
        original = getattr(RF, name)
        monkeypatch.setattr(RF, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    original_sum = RF.sum
    monkeypatch.setattr(RF, "sum", staticmethod(lambda terms: calls.append("sum") or original_sum(terms)))
    monkeypatch.setattr(connection, "ConnectionTerm",
                        lambda *args: rows.append(args) or ConnectionTerm(*args))
    expansion = hermite_connection.__wrapped__(16)
    total = expansion.rescaled_total()
    assert calls == [] and rows == []  # the rows are built only when read
    monkeypatch.undo()
    assert total == q_hermite(16)
    assert len(expansion.terms) == len(partitions_of(16))


def test_hermite_kernel_digit_widths(monkeypatch):
    # each choice of a part is reduced once, in _hermite_tables' choices, and
    # each key's sum is scaled by the lcm of its denominators: the kernel's
    # digits stay at these widths
    import qpoly.connection as connection

    seen, digits = [], connection._digits
    monkeypatch.setattr(connection, "_digits", lambda v, nbytes: seen.append(nbytes) or digits(v, nbytes))

    def widths(read):
        seen.clear()
        read()
        return set(seen)

    assert widths(lambda: hermite_connection.__wrapped__(16)) == {13}
    assert widths(lambda: hermite_connection.__wrapped__(24)) == {23}
    expansion = hermite_connection.__wrapped__(16)
    assert widths(lambda: expansion.terms) == {9}


def test_hermite_rows_take_one_kernel_call(monkeypatch):
    # every row of one read of `terms` comes from one _quotient_sums call,
    # which builds [n]! once (one call per partition would be p(12) = 77)
    import qpoly.connection as connection

    expansion = hermite_connection.__wrapped__(12)
    calls = []
    for name in ("_quotient_sums", "_q_factorial_row"):
        original = getattr(connection, name)
        monkeypatch.setattr(connection, name,
                            lambda n, *args, _f=original, _n=name: calls.append((_n, n)) or _f(n, *args))
    terms = expansion.terms
    monkeypatch.undo()
    assert calls == [("_quotient_sums", 12), ("_q_factorial_row", 12)]
    assert len(terms) == len(partitions_of(12)) == 77
    assert sum((t.value for t in terms), ZPolynomial.zero()) == expansion.total


def test_hermite_sum_invariant_under_order():
    expansion = hermite_connection(7)
    values = [t.value for t in expansion.terms]
    rng = random.Random(3)
    for _ in range(3):
        rng.shuffle(values)
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        assert acc == expansion.total


# numeric oracle for the contribution-table rows: complex evaluation of the
# prefactors and classical Hermite factors with the radical-bearing parameters
def _float_qnum(n, base):
    return (1 - base**n) / (1 - base)


def _float_qfact(n, base):
    r = 1.0
    for i in range(1, n + 1):
        r *= _float_qnum(i, base)
    return r


def _float_quesne_c(k, base):
    return (1 - base) ** (k - 1) / (k * _float_qnum(k, base))


def _float_hermite(n, x):
    return sum((-1) ** l * math.factorial(n) * (2 * x) ** (n - 2 * l)
               / (math.factorial(l) * math.factorial(n - 2 * l))
               for l in range(n // 2 + 1))


def hermite_row_oracle(solution, n, q, z):
    base2, base4 = q**-2, q**-4
    imag = complex(0, 1)
    total = (_float_qfact(n, base2) * (2 / (q**2 * (1 + base2))) ** (n / 2)
             * imag ** (n + sum(m for _, m in solution.parts)))
    for k, m in solution.parts:
        ck4 = complex(_float_quesne_c(k, base4))
        zeta = (imag ** (k + 1) * (2 * q * (1 + base2)) ** (k / 2)
                * _float_quesne_c(k, base2) / (2 * cmath.sqrt(ck4)) * z**k)
        total *= cmath.sqrt(ck4) ** m * _float_hermite(m, zeta) / math.factorial(m)
    return total


@pytest.mark.parametrize("n", [5, 8, 10])
def test_hermite_rows_match_numeric_oracle(n):
    # the rows and the total come from one kernel call shape; this complex
    # evaluation of the classical products shares no code with it
    q, z = 0.7, 1.3
    expansion = hermite_connection(n)
    for term in expansion.terms:
        exact = term.value.eval_numeric(z, math.sqrt(q))
        oracle = hermite_row_oracle(term.descriptor, n, q, z)
        assert abs(exact - oracle) <= 1e-9 * abs(oracle)


def test_hermite_values_take_no_polynomial_gcd(monkeypatch):
    # each z-power of the total and of a row is built in lowest terms from
    # its integer contents and its power of s, as q_hermite is
    import qpoly.field as field

    def forbidden(*args):
        raise AssertionError("polynomial gcd called")

    expected = [q_hermite.__wrapped__(n) for n in range(13)]
    monkeypatch.setattr(field, "_gcd_cof", forbidden)
    monkeypatch.setattr(field, "_ugcd_heu", forbidden)
    q, z = 0.7, 1.3
    for n, direct in enumerate(expected):
        expansion = hermite_connection.__wrapped__(n)
        assert expansion.total == direct, n
        for term in expansion.terms:
            exact = term.value.eval_numeric(z, math.sqrt(q))
            oracle = hermite_row_oracle(term.descriptor, n, q, z)
            assert abs(exact - oracle) <= 1e-9 * abs(oracle), (n, term.descriptor)


# ---------------------------------------------------------------------------
# Laguerre connection
# ---------------------------------------------------------------------------

def test_laguerre_connection_33():
    # the total takes no aux; the rows take it, and sum to the same polynomial
    for aux in ({}, {1: 2, 2: 1, 3: 3}, {1: -3, 2: 0, 3: 2}, {1: 1, 2: -1, 3: -2}):
        expansion = laguerre_connection(3, 3, aux)
        assert expansion.rescaled_total() == laguerre33_reference()
        assert ZPolynomial.sum([t.value for t in expansion.terms]) == laguerre33_reference(), aux


def test_gauge_checks_read_the_rows(monkeypatch):
    # the total takes no auxiliary integer, so only the rows can show a wrong
    # one: rows weighted by binom(+n_j, l_j) for binom(-n_j, l_j) fail the
    # gauge checks, and nothing else
    import qpoly.connection as connection

    assert run_suite("laguerre", 3).passed
    binomial = connection._int_binomial
    monkeypatch.setattr(connection, "_int_binomial", lambda a, b: binomial(-a, b))
    failed = [c.check_id for c in run_suite("laguerre", 3).checks if not c.passed]
    assert failed and all(check.startswith("connection-gauge-n") for check in failed)


def test_laguerre_connection_degree_zero():
    for n in (0, 2, 4):
        expansion = laguerre_connection(n, 0)
        assert len(expansion.terms) == 1
        assert expansion.rescaled_total() == q_laguerre(n, 0)


def test_laguerre_gauge_independence():
    rng = random.Random(77)
    for n in range(6):
        for k in range(6):
            target = q_laguerre(n, k)
            auxes = [{}] + [{j: rng.randint(-3, 3) for j in range(1, k + 1)} for _ in range(3)]
            for aux in auxes:
                expansion = laguerre_connection(n, k, aux)
                assert expansion.rescaled_total() == target, (n, k, aux)
                assert ZPolynomial.sum([t.value for t in expansion.terms]) == target, (n, k, aux)


def test_laguerre_terms_sum_to_total():
    # the total is summed over Z and the rows are classical products scaled
    # by their prefactors: two routes from the same factors
    rng = random.Random(8)
    for n, aux in ((3, {1: 1, 2: 2, 3: -1}), (6, {j: rng.randint(-3, 3) for j in range(1, 7)}),
                   (8, {j: rng.randint(-3, 3) for j in range(1, 9)})):
        expansion = laguerre_connection(n, n, aux)
        total = None
        for term in expansion.terms:
            total = term.value if total is None else total + term.value
        assert total == expansion.total, (n, aux)


def test_laguerre_terms_sum_to_total_off_the_diagonal():
    # the same two routes for n < k and n > k, where the prefactor's power
    # of q and the binomials [n over l] for l <= min(n, k) are not those of n = k
    rng = random.Random(9)
    for n in range(7):
        for k in range(7):
            if n != k:
                aux = {j: rng.randint(-3, 3) for j in range(1, k + 1)}
                expansion = laguerre_connection(n, k, aux)
                total = None
                for term in expansion.terms:
                    total = term.value if total is None else total + term.value
                assert total == expansion.total, (n, k)


@pytest.mark.parametrize("value", [Fraction(1, 2), 2.5, Fraction(2)])
def test_laguerre_aux_that_is_not_an_int_raises_type_error(value):
    # a half-integer aux used to give a total other than q_laguerre(3, 3)
    with pytest.raises(TypeError):
        laguerre_connection(3, 3, {1: value})


@pytest.mark.parametrize("n", [10, 12])
def test_laguerre_total_matches_family_at_high_degree(n):
    rng = random.Random(100 + n)
    aux = {j: rng.randint(-3, 3) for j in range(1, n + 1)}
    assert laguerre_connection(n, n, aux).total == q_laguerre(n, n)


def _laguerre_numerators(n, k, fact):
    """Per z**D, the numerator over D! [k]! of the Laguerre total, summed from
    its t-series with each Q_mu = [k]!/prod [a] divided out of the row fact =
    [k]! by stride sums, and the s-power 2 min p_l: no quotient kernel and no
    cyclotomic row."""
    from qpoly.connection import _laguerre_series
    from qpoly.field import _uadd, _umul
    from qpoly.qkernel import _times_one_minus, _times_q_number

    binomials = [[1]]
    for ell in range(1, min(n, k) + 1):  # [n over l] = [n over l - 1] [n - l + 1] / [l]
        binomials.append(_divide_q_number(_times_q_number(binomials[-1], n - ell + 1), ell))
    shift = (n - k) * (n - k + 1) // 2
    powers = [(n - ell) * (n - ell + 1) // 2 - shift for ell in range(len(binomials))]
    low, quotients, nums = min(powers), {}, {}
    for ell, terms in enumerate(_laguerre_series(k)[k::-1][:len(binomials)]):
        zpow = k - ell  # every term of t**w is at z**w
        for mu, c in terms.items():
            if mu not in quotients:
                row = fact
                for a in mu:
                    row = _divide_q_number(row, a)
                quotients[mu] = row
            row = [c * x for x in quotients[mu]]
            for _ in range(sum(mu) - len(mu)):  # (1 - q)**E
                row = _times_one_minus(row, 1)
            row = [0] * (powers[ell] - low) + _umul(binomials[ell], row)
            nums[zpow] = _uadd(nums.get(zpow, []), row)
    return nums, 2 * low


def _over(num, den, s_power):
    """s**s_power num(q) / den(q) for q-rows, reduced by the generic gcd."""
    return RF(IntPoly({(2 * i + max(s_power, 0), 0): c for i, c in enumerate(num)}),
              IntPoly({(2 * i - min(s_power, 0), 0): c for i, c in enumerate(den)}))


def _laguerre_reduction_mismatches(max_nk):
    """(n, k, D) for each z**D and n, k <= max_nk where the Laguerre total
    (reduced over D! [D]!) and its numerator over D! [k]! reduced by the
    generic gcd differ in ==, in hash or in a numerator or denominator row.
    [k]! is a product of window sums."""
    from qpoly.qkernel import _times_q_number

    facts = [[1]]
    for a in range(1, max_nk + 1):
        facts.append(_times_q_number(facts[-1], a))
    bad = []
    for n in range(max_nk + 1):
        for k in range(max_nk + 1):
            total = laguerre_connection(n, k).total._terms
            nums, s_power = _laguerre_numerators(n, k, facts[k])
            ref = {zpow: _over(num, [math.factorial(zpow) * x for x in facts[k]], s_power)
                   for zpow, num in nums.items() if any(num)}
            for zpow in sorted(total.keys() | ref.keys()):
                a, b = total.get(zpow), ref.get(zpow)
                if (a is None or b is None or a != b or hash(a) != hash(b)
                        or (a.num._rows, a.den._rows) != (b.num._rows, b.den._rows)):
                    bad.append((n, k, zpow))
    return bad


def test_laguerre_total_matches_its_gcd_reduced_numerators_over_d_and_k_factorial():
    assert _laguerre_reduction_mismatches(8) == []


def test_laguerre_numerator_off_by_one_unit_is_not_divisible_by_the_factorial_ratio():
    # [k]!/[D]! divides each z**D numerator over D! [k]!, and the quotient over
    # D! [D]! is the total's coefficient; one unit more at any power is no
    # multiple of [k]!/[D]! for D < k, and the stride division says so, as
    # does the quotient kernel for one more term [k]!/[k] at z**D
    from qpoly.connection import _laguerre_series, _quotient_sums
    from qpoly.qkernel import _q_factorial_row

    n = k = 6
    total = laguerre_connection(n, k).total._terms
    nums, s_power = _laguerre_numerators(n, k, list(_q_factorial_row(k)))
    rng = random.Random(6)
    for zpow in range(1, k):
        num = nums[zpow]
        for a in range(zpow + 1, k + 1):
            num = _divide_q_number(num, a)
        assert _over(num, [math.factorial(zpow) * x for x in _q_factorial_row(zpow)], s_power) == total[zpow]
        changed = list(nums[zpow])
        changed[rng.randrange(len(changed))] += 1
        with pytest.raises(ArithmeticError):
            for a in range(zpow + 1, k + 1):
                changed = _divide_q_number(changed, a)
    uses = {}  # the kernel's entries in the total, keyed by the z-power D
    for zpow, terms in enumerate(_laguerre_series(k)):
        for mu, c in terms.items():
            uses.setdefault(mu, {})[zpow, sum(mu) - len(mu)] = c
    assert len(_quotient_sums(k, uses, lambda zpow: zpow)) == k + 1
    for zpow in range(k):
        more = dict(uses.get((k,), {}))
        more[zpow, 0] = more.get((zpow, 0), 0) + 1
        with pytest.raises(ArithmeticError):
            _quotient_sums(k, {**uses, (k,): more}, lambda zpow: zpow)


# ---------------------------------------------------------------------------
# Gegenbauer connection
# ---------------------------------------------------------------------------

def beta_mono(*pairs):
    return tuple(pairs)


def test_gegenbauer_connection_n1():
    terms = dict(gegenbauer_connection(1).total.sorted_terms())
    assert terms == {((1, 1),): BetaPolynomial.gen(1)}


def test_gegenbauer_connection_n2():
    terms = dict(gegenbauer_connection(2).total.sorted_terms())
    b1, b2 = BetaPolynomial.gen(1), BetaPolynomial.gen(2)
    half = Fraction(1, 2)
    assert terms == {
        ((2, 1),): b2,
        ((1, 2),): (b1 * b1 - b2) * half,
    }


def test_gegenbauer_connection_n5_key_coefficients():
    terms = dict(gegenbauer_connection(5).total.sorted_terms())
    assert terms[((5, 1),)] == BetaPolynomial.gen(5)
    expected_c15 = BetaPolynomial({
        beta_mono((5, 1)): Fraction(24, 120),
        beta_mono((1, 1), (4, 1)): Fraction(-30, 120),
        beta_mono((2, 1), (3, 1)): Fraction(-20, 120),
        beta_mono((1, 2), (3, 1)): Fraction(20, 120),
        beta_mono((1, 1), (2, 2)): Fraction(15, 120),
        beta_mono((1, 3), (2, 1)): Fraction(-10, 120),
        beta_mono((1, 5)): Fraction(1, 120),
    })
    assert terms[((1, 5),)] == expected_c15


def test_gegenbauer_connection_displayed_forms():
    for n in range(6):
        assert gegenbauer_connection(n).total == gegenbauer_displayed_connection(n)


def test_gegenbauer_connection_reproduces_direct():
    for n in range(9):
        value = gegenbauer_connection_value(gegenbauer_connection(n))
        assert value == q_gegenbauer_direct(n)


def _series_exp_connection(n):
    # the exponential of sum_k beta_k a_k t**k by TruncatedSeries.exp over
    # CPolynomial[BetaPolynomial], with a_k from TruncatedSeries.log
    from qpoly.connection import CPolynomial
    from qpoly.series import Ring, TruncatedSeries

    fractions = Ring(CPolynomial.zero(), CPolynomial.constant(Fraction(1)))
    classical = TruncatedSeries(fractions, [fractions.one] + [
        CPolynomial({((m, 1),): Fraction(1)}) for m in range(1, n + 1)], n)
    logs = [classical.log().coeff(k) for k in range(1, n + 1)]
    ring = Ring(CPolynomial.zero(), CPolynomial.constant(BetaPolynomial.one()))
    arg = TruncatedSeries(ring, [ring.zero] + [a.scale(BetaPolynomial.gen(k))
                                               for k, a in enumerate(logs, 1)], n)
    return logs, arg.exp().coeff(n)


def test_gegenbauer_connection_matches_series_exp(monkeypatch):
    import qpoly.connection as connection
    from qpoly.series import TruncatedSeries

    references = [_series_exp_connection(n) for n in range(10)]

    def forbidden(*args):
        raise AssertionError("the connection must not take a series exponential")

    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    monkeypatch.setattr(TruncatedSeries, "log", forbidden)
    for n, (logs, total) in enumerate(references):
        assert connection.classical_log_coefficients.__wrapped__(n) == tuple(logs)
        expansion = gegenbauer_connection.__wrapped__(n)
        assert expansion.total == total
        assert [(t.descriptor, t.coefficient) for t in expansion.terms] == total.sorted_terms()
        assert all(type(c) is Fraction for t in expansion.terms for c in t.coefficient._terms.values())


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 255, 256])
def test_count_keys_round_trip_at_field_width_edges(n):
    # field m, n.bit_length() bits wide, holds the count of part m (the
    # exponent of C_m); a count of n fills its field, so a field one bit
    # narrower carries it into a neighbour
    from qpoly.connection import _monomial, _parts

    w = n.bit_length()
    for mono in ((), ((1, n),), ((1, n), (n + 1, 1)), ((1, 1), (2, n), (3, 1)), ((2, 1), (3, n), (5, n))):
        key = sum(e << w * m for m, e in mono)
        assert _monomial(key, n) == mono, (n, mono)
        assert _parts(key, n) == tuple(m for m, e in reversed(mono) for _ in range(e)), (n, mono)


def test_gegenbauer_value_beyond_verify_sizes(monkeypatch):
    # the gegenbauer suite stops at n = 8; at n = 16 the packed sums need
    # 9-byte digits, wider than any array typecode
    import qpoly.connection as connection

    widths = {}
    digits = connection._digits

    for n in (10, 11, 16):
        def recorded(v, nbytes, n=n):
            widths.setdefault(n, set()).add(nbytes)
            return digits(v, nbytes)

        expansion = gegenbauer_connection(n)
        monkeypatch.setattr(connection, "_digits", recorded)
        assert gegenbauer_connection_value(expansion) == q_gegenbauer_direct(n)
    assert min(widths[16]) > 8


def test_gegenbauer_value_computes_each_weight_once(monkeypatch):
    import qpoly.connection as connection

    calls = []

    def counted(k):
        calls.append(k)
        return gegenbauer_weight(k)

    monkeypatch.setattr(connection, "gegenbauer_weight", counted)
    expansion = gegenbauer_connection(6)
    assert gegenbauer_connection_value(expansion) == q_gegenbauer_direct(6)
    assert len(calls) <= 6


@pytest.mark.parametrize("n", [6, 9])
def test_gegenbauer_value_builds_each_factor_once(n, monkeypatch):
    # one classical row U_m**e per distinct (m, e) and one (1 - Lambda**k)**e
    # per distinct (k, e) of the weight parts
    import qpoly.connection as connection

    expansion = gegenbauer_connection(n)
    expected = q_gegenbauer_direct(n)
    powers = []
    for kind, name in (("row", "_classical_power"), ("lambda", "_lambda_factor")):
        block = getattr(connection, name)
        monkeypatch.setattr(connection, name,
                            lambda k, e, kind=kind, block=block: powers.append((kind, k, e)) or block(k, e))
    value = gegenbauer_connection_value(expansion)
    monkeypatch.undo()
    assert value == expected
    factor_parts = {part for term in expansion.terms for part in term.descriptor}
    weight_parts = {part for term in expansion.terms
                    for mu in term.coefficient.support() for part in mu}
    assert sorted(powers) == sorted([("row", m, e) for m, e in factor_parts]
                                    + [("lambda", k, e) for k, e in weight_parts])


def test_gegenbauer_value_blocks_are_int_rows_of_the_powers():
    # U_m**e in x and (1 - Lambda**k)**e in Lambda, against IntPoly powers
    from qpoly.connection import _classical_power, _lambda_factor

    for k in range(1, 7):
        for e in range(1, 5):
            row = IntPoly({(i, 0): 1 for i in range(k + 1)}) ** e
            assert _classical_power(k, e) == row._rows[0]
            lam = IntPoly({(0, 0): 1, (0, k): -1}) ** e
            assert _lambda_factor(k, e) == [r[0] if r else 0 for r in lam._rows]


def _term_by_term_value(expansion):
    # each row's coefficient substituted into Q(s, Lambda), times its
    # classical product, and the rows summed
    weights = {k: gegenbauer_weight(k) for k in range(1, expansion.n + 1)}
    parts = []
    for term in expansion.terms:
        weight = term.coefficient.substitute(weights.__getitem__, RF.one())
        poly = CosPolynomial.one()
        for m, e in term.descriptor:
            poly = poly * gegenbauer_classical(m) ** e
        parts.append(poly.scale(weight))
    return CosPolynomial.sum(parts)


@pytest.mark.parametrize("n", range(9))
def test_gegenbauer_value_matches_term_by_term_substitution(n, monkeypatch):
    expansion = gegenbauer_connection(n)
    expected = _term_by_term_value(expansion)
    substituted = []

    def counted(self, value_of, one_value):
        substituted.append(self)
        return BetaPolynomial.substitute(self, value_of, one_value)

    # the value route sums per weight monomial, not row by row
    monkeypatch.setattr(BetaPolynomial, "substitute", counted)
    value = gegenbauer_connection_value(expansion)
    assert substituted == []
    assert value == expected


def test_laguerre_builds_each_binomial_row_and_factor_once(monkeypatch):
    # one q-binomial row per l, shared by the total and by every read of the
    # rows, and one L_{k_j}^{(n_j - k_j)}(z) per distinct (j, k_j) on each
    # read of the rows (the total takes integer weights instead)
    import qpoly.connection as connection

    reads, factors = [], []
    pascal_row = connection._q_pascal_row

    def counted_row(n, pochhammer):
        reads.append((n, pochhammer))
        return pascal_row(n, pochhammer)

    def counted_classical(idx):
        factors.append((idx.k, idx.alpha))
        return laguerre_classical(idx)

    monkeypatch.setattr(connection, "_q_pascal_row", counted_row)
    monkeypatch.setattr(connection, "laguerre_classical", counted_classical)
    n, k, aux = 5, 6, {1: 2, 2: -1, 3: 3}
    expansion = laguerre_connection(n, k, aux)
    assert expansion.rescaled_total() == q_laguerre(n, k)
    assert expansion.terms == expansion.terms
    q = RF.q()
    assert reads == [(n, False)]
    for ell in range(min(n, k) + 1):
        assert sum((c * q**i for i, c in enumerate(pascal_row(n, False)[ell])), RF.zero()) == q_binomial(n, ell, 1)
    parts = {part for sol in laguerre_partitions(n, k) for part in sol.kparts}
    assert sorted(factors) == sorted(2 * [(kj, aux.get(j, 0) - kj) for j, kj in parts])


def test_laguerre_rows_build_each_prefix_product_once(monkeypatch):
    # the total takes no ZPolynomial product; each read of the rows makes 46
    # prefix products and none inside a factor: each factor is read off the
    # coefficients of L_{k_j}, with no power of its argument
    products = []
    mul = ZPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ZPolynomial, "__mul__", counted)
    expansion = laguerre_connection(8, 8, {1: 2, 2: -1, 3: 3})
    assert products == []
    terms = expansion.terms
    one = ZPolynomial.one()
    assert len(products) == 46
    assert len({(a, b) for a, b in products}) == 46
    assert not any(a == one or b == one for a, b in products)
    monkeypatch.undo()
    assert expansion.rescaled_total() == q_laguerre(8, 8)
    assert expansion.total == ZPolynomial.sum([t.value for t in terms])


def test_laguerre_total_takes_no_rational_function_arithmetic(monkeypatch):
    import qpoly.connection as connection

    calls, rows = [], []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__truediv__"):
        original = getattr(RF, name)
        monkeypatch.setattr(RF, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    original_sum = RF.sum
    monkeypatch.setattr(RF, "sum", staticmethod(lambda terms: calls.append("sum") or original_sum(terms)))
    mul = ZPolynomial.__mul__
    monkeypatch.setattr(ZPolynomial, "__mul__", lambda a, b: calls.append("product") or mul(a, b))
    monkeypatch.setattr(connection, "ConnectionTerm",
                        lambda *args: rows.append(args) or ConnectionTerm(*args))
    expansion = laguerre_connection(8, 8, {1: 2, 2: -1, 3: 3})
    total = expansion.rescaled_total()
    assert calls == [] and rows == []  # the rows are built only when read
    monkeypatch.undo()
    assert total == q_laguerre(8, 8)
    assert len(expansion.terms) == len(laguerre_partitions(8, 8))


def test_laguerre_total_takes_integer_choice_weights(monkeypatch):
    # the total reads no classical Laguerre polynomial: each cycle weight is
    # an int formed from factorials, and no aux changes it
    import qpoly.connection as connection

    def forbidden(*args):
        raise AssertionError("the total read a classical Laguerre polynomial")

    monkeypatch.setattr(connection, "laguerre_classical", forbidden)
    for aux in ({}, {1: 2, 2: -1, 3: 3}, {1: -3, 2: 4, 4: -2}):
        for n in range(7):
            for k in range(7):
                assert laguerre_connection(n, k, aux).total == q_laguerre(n, k), (n, k, aux)


def test_gegenbauer_reductions_run_few_heuristic_gcds(monkeypatch):
    # every cos-index reduction finds its gcd on the first Lambda row and
    # divides the later rows by it (32 GCDHEU runs each when every row ran one)
    import qpoly.field as field
    from qpoly.families import q_gegenbauer_genfun

    calls = []
    gcd_heu = field._ugcd_heu
    monkeypatch.setattr(field, "_ugcd_heu", lambda a, b: calls.append(1) or gcd_heu(a, b))
    genfun = q_gegenbauer_genfun(8)
    assert len(calls) <= 5
    calls.clear()
    value = gegenbauer_connection_value(gegenbauer_connection.__wrapped__(8))
    assert len(calls) <= 5
    monkeypatch.undo()
    assert genfun == value == q_gegenbauer_direct(8)


def test_gegenbauer_term_order_matches_partition_order():
    expansion = gegenbauer_connection(5)
    descriptors = [term.descriptor for term in expansion.terms]
    expected = [tuple(sorted(sol.parts)) for sol in partitions_of(5)]
    assert descriptors == expected


def _to_lambda(coeff):
    """beta_k -> lambda for every k."""
    lam = LambdaPolynomial.gen(1)
    return coeff.substitute(lambda g: lam, LambdaPolynomial.one())


def test_substitute_beta_examples():
    b1, b2 = BetaPolynomial.gen(1), BetaPolynomial.gen(2)
    assert b1.substitute(gegenbauer_weight, RF.one()) == gegenbauer_weight(1)
    lam = LambdaPolynomial.gen(1)
    assert _to_lambda(b2 - b1 * b1) == lam - lam * lam


def test_lambda_one_collapse():
    # at Lambda -> q every weight [lambda]_{q^k} is 1: the n=2 connection has
    # coefficient 1 on C2 and 0 on C1^2
    terms = dict(gegenbauer_connection(2).total.sorted_terms())
    c2_val = _at_lambda_one(terms[((2, 1),)].substitute(gegenbauer_weight, RF.one()))
    c11_val = _at_lambda_one(terms[((1, 2),)].substitute(gegenbauer_weight, RF.one()))
    assert c2_val == RF.one()
    assert c11_val.is_zero()


def test_gegenbauer_classical_lambda_route():
    for n in range(6):
        via_connection = gegenbauer_connection(n).total.map_coeffs(_to_lambda)
        assert via_connection == gegenbauer_classical_lambda(n)


def _series_classical_lambda(n):
    """The t**n coefficient of (1 + S)**lambda, S = sum_m C_m t**m, by the
    binomial series sum_j binom(lambda, j) S**j summed as truncated series of
    CPolynomials: no partition enumeration, so a reference for the
    multinomial form of gegenbauer_classical_lambda."""
    from qpoly.connection import CPolynomial
    from qpoly.qkernel import _power_sum
    from qpoly.series import Ring

    lam = LambdaPolynomial.gen(1)
    ring = Ring(CPolynomial.zero(), CPolynomial.constant(1))
    s = TruncatedSeries(ring, [ring.zero] + [CPolynomial({((m, 1),): 1}) for m in range(1, n + 1)], n)
    binomials = [LambdaPolynomial.one(), lam]  # binom(lambda, j)
    for j in range(2, n + 1):
        binomials.append(binomials[-1] * (lam - (j - 1)) * Fraction(1, j))
    return _power_sum(s, binomials.__getitem__).coeff(n)


def _classical_lambda_mismatches(max_n):
    """The n <= max_n at which gegenbauer_classical_lambda and the series
    reference differ."""
    return [n for n in range(max_n + 1) if gegenbauer_classical_lambda(n) != _series_classical_lambda(n)]


def test_gegenbauer_classical_lambda_matches_the_binomial_series():
    assert _classical_lambda_mismatches(10) == []


def test_gegenbauer_classical_lambda_takes_no_log_or_exp(monkeypatch):
    import qpoly.connection as connection
    from qpoly.series import TruncatedSeries

    expected = [gegenbauer_connection(n).total.map_coeffs(_to_lambda) for n in range(9)]

    def forbidden(*args):
        raise AssertionError("the classical-lambda route must not use the log route")

    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    monkeypatch.setattr(TruncatedSeries, "log", forbidden)
    monkeypatch.setattr(connection, "classical_log_coefficients", forbidden)
    assert [gegenbauer_classical_lambda(n) for n in range(9)] == expected


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------

def test_sum_rule_order_one():
    lhs, rhs = gegenbauer_sum_rule(1)
    assert lhs == q_gegenbauer_direct(1)
    assert lhs == rhs


def test_sum_rule_order_two():
    from qpoly.families import CosPolynomial
    lhs, rhs = gegenbauer_sum_rule(2)
    assert lhs == CosPolynomial({2: gegenbauer_weight(2)})
    assert lhs == rhs


@pytest.mark.parametrize("ell", range(1, 17))
def test_sum_rules_exact(ell):
    lhs, rhs = gegenbauer_sum_rule(ell)
    assert lhs == rhs


@pytest.mark.parametrize("ell", range(1, 6))
def test_sum_rules_explicit_combinations(ell):
    lhs, _ = gegenbauer_sum_rule(ell)
    assert lhs == sum_rule_explicit(ell)


def _log_by_series_log(order):
    # the reference route: TruncatedSeries.log of the series of the explicit
    # polynomials over CosPolynomial[RationalFunction]
    return TruncatedSeries(COSPOLY_RING, [q_gegenbauer_direct(i) for i in range(order + 1)], order).log()


def test_sum_rule_log_over_z_matches_series_log():
    deformed, _ = gegenbauer_sum_rule_logs(10)
    assert deformed.coeffs == _log_by_series_log(10).coeffs


def test_sum_rule_logs_take_no_series_log(monkeypatch):
    import qpoly.connection as connection

    def forbidden(*args):
        raise AssertionError("series exp or log or CosPolynomial product called")

    expected = _log_by_series_log(9).coeffs[1:]
    monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
    monkeypatch.setattr(TruncatedSeries, "log", forbidden)
    gegenbauer_sum_rule_logs(9)
    monkeypatch.setattr(CosPolynomial, "dot", classmethod(forbidden))
    coefficients = connection._log_coefficients(9, range(1, 10))
    monkeypatch.undo()
    assert tuple(coefficients) == expected


def test_series_log_of_the_classical_series_is_the_closed_form():
    # log sum_n U_n(cos theta) t**n = -log(1 - 2 t cos theta + t**2) = sum_l
    # 2 cos(l theta) t**l / l: TruncatedSeries.log against the closed form
    # the sum rules read
    import qpoly.connection as connection

    log = TruncatedSeries(COSPOLY_RING, [gegenbauer_classical(n) for n in range(21)], 20).log()
    closed = [CosPolynomial({ell: Fraction(2, ell)}) for ell in range(1, 21)]
    assert list(log.coeffs) == [CosPolynomial.zero()] + closed
    assert connection._classical_log(20).coeffs == log.coeffs


def test_direct_cells_over_q_pochhammer_are_the_explicit_polynomials():
    # G_i packed from the Pochhammer blocks reads back as the explicit
    # products [i over l]_q (Lambda;q)_l (Lambda;q)_{i-l} at w**(i-2l) and
    # w**-(i-2l); reduced by the generic gcd they equal the closed form, which
    # is assembled in lowest terms with no gcd, so its coprimality is checked.
    # The packing is the test's own: the w-slots of degree i are i - l and l
    from qpoly.families import _cos_value, _frame, _unpack_cells
    from qpoly.field import _flatten, _pack, _rows_mul
    from qpoly.qkernel import _lambda_pochhammer_row, _q_pascal_row, _q_pochhammer_row

    order, nbytes = 12, 4
    lam = [_lambda_pochhammer_row(ell) for ell in range(order + 1)]
    qs, ls = _frame(order)
    blocks = [_pack(_flatten(rows, qs), nbytes) for rows in lam]
    for i in range(order + 1):
        expected = {}
        for ell, binom in enumerate(_q_pascal_row(i, False)[:i // 2 + 1]):
            expected[i - 2 * ell] = expected[2 * ell - i] = _rows_mul([binom], _rows_mul(lam[ell], lam[i - ell]))
        packed, slot = 0, 8 * nbytes * qs * ls
        for ell, binom in enumerate(_q_pascal_row(i, False)[:i // 2 + 1]):
            cell = _pack(binom, nbytes) * blocks[ell] * blocks[i - ell]
            packed += cell << (slot * (i - ell))
            if 2 * ell != i:
                packed += cell << (slot * ell)
        cells = _unpack_cells(packed, i, order, nbytes)
        assert cells == expected
        assert _cos_value(cells, _q_pochhammer_row(i)) == q_gegenbauer_direct(i)


def test_log_coefficients_reduce_only_the_degrees_read(monkeypatch):
    import qpoly.connection as connection
    import qpoly.families as families

    full = connection._log_coefficients(8, range(1, 9))
    reduced = []
    cos_value = families._cos_value
    monkeypatch.setattr(families, "_cos_value", lambda *args: reduced.append(args) or cos_value(*args))
    assert connection._log_coefficients(8, (8, 3)) == [full[7], full[2]]
    assert len(reduced) == 2
    reduced.clear()
    lhs, rhs = gegenbauer_sum_rule(8)
    assert lhs == full[7] == rhs and len(reduced) == 1


def _clear_caches():
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith("qpoly."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_verify_suites_take_no_sparse_product_with_the_unit(monkeypatch):
    # the sum-rule products start from real factors, not from the unit (the
    # classical-lambda route multiplies LambdaPolynomials, no SparsePoly)
    from qpoly.families import SparsePoly
    from qpoly.verify import run_suite

    _clear_caches()
    products, with_unit = [], []
    times = SparsePoly.__mul__

    def counted(a, b):
        if type(b) is type(a):
            products.append(type(a))
            if a == a.one() or b == b.one():
                with_unit.append(type(a))
        return times(a, b)

    monkeypatch.setattr(SparsePoly, "__mul__", counted)
    assert run_suite("all").passed
    assert {cls.__name__ for cls in products} >= {"CosPolynomial", "LambdaPolynomial"}
    assert with_unit == []


def test_verify_suites_take_no_series_product_with_the_unit(monkeypatch):
    # power sums start their running power at the argument; the verify
    # suites' one-term arguments take no series product at all, so the
    # q-exponentials also run on the two-term argument t + Lambda t**3
    from qpoly.qkernel import q_exp_product_form, q_exp_sum, quesne_series
    from qpoly.series import Ring, TruncatedSeries
    from qpoly.verify import run_suite

    _clear_caches()
    products, with_unit = [], []
    times = TruncatedSeries.__mul__

    def counted(a, b):
        if isinstance(b, TruncatedSeries):
            products.append(a.ring)
            one = TruncatedSeries.one(a.ring, a.order)
            if a == one or b == one:
                with_unit.append(a.order)
        return times(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    assert run_suite("all").passed
    arg = TruncatedSeries(Ring(RF.zero(), RF.one()), [RF.zero(), RF.one(), RF.zero(), RF.lam()], 8)
    for base in (1, -2, -4):
        for kind in ("e", "E"):
            q_exp_sum(kind, arg, base)
            q_exp_product_form(kind, arg, base)
        quesne_series(arg, base)
    assert len(products) > 100
    assert with_unit == []


def test_hermite_blocks_read_the_classical_polynomial(monkeypatch):
    # each block H_m(zeta) tau**m / m! is read off the classical H_m(z), not
    # from a second copy of its coefficient formula
    import qpoly.connection as connection

    _clear_caches()
    degrees = []
    classical = connection.hermite_classical

    def counted(m):
        degrees.append(m)
        return classical(m)

    monkeypatch.setattr(connection, "hermite_classical", counted)
    assert hermite_connection(8).rescaled_total() == q_hermite(8)
    assert set(degrees) == {1, 2, 3, 4, 5, 6, 8}  # the multiplicities in partitions of 8


def test_laguerre_and_limits_share_one_quesne_c_entry_per_k():
    quesne_c.cache_clear()
    laguerre_connection(4, 4, {1: 1, 2: -1}).terms
    run_suite("limits", 4)
    assert quesne_c.cache_info().currsize == 6  # k = 1..6, one spelling each


def test_whole_result_caches_are_bounded():
    # each argument is asked for once per call, so a bound rebuilds nothing
    # within a call and keeps a long-lived process's memory bounded
    from qpoly.connection import classical_log_coefficients

    for cache in (partitions_of, classical_log_coefficients, gegenbauer_classical):
        assert cache.cache_info().maxsize == 16, cache


def _kernel_work(read):
    """Per _quotient_sums call made by read(): (prefix-walk divisions, keys
    returned, digit width in bytes, c Q_mu products the kernel takes)."""
    import qpoly.connection as connection

    calls = []
    sums, walk, pack = connection._quotient_sums, connection._prefix_walk, connection._pack

    def counted_sums(n, uses, order=None):
        work = {"divisions": 0, "products": 0}

        class Counted(int):  # a walked Q_mu: counts each product taken with it
            def __mul__(self, other):
                work["products"] += 1
                return int(self) * other

            __rmul__ = __mul__

        def counted_walk(keys, root, step):
            def counted_step(v, a):
                work["divisions"] += 1
                return step(v, a)
            return ((key, Counted(v)) for key, v in walk(keys, root, counted_step))

        def counted_pack(c, nbytes):
            work["nbytes"] = nbytes
            return pack(c, nbytes)

        connection._prefix_walk, connection._pack = counted_walk, counted_pack
        try:
            result = sums(n, uses, order)
        finally:
            connection._prefix_walk, connection._pack = walk, pack
        calls.append((work["divisions"], len(result), work["nbytes"], work["products"]))
        return result

    connection._quotient_sums = counted_sums
    try:
        read()
    finally:
        connection._quotient_sums = sums
    return calls


def _ratio_work(read):
    """Over read(): qkernel._ratio's calls per reduction path (empty rows;
    coprime; an int den after its power of v, the content gcd; else the
    polynomial gcd field._gcd_cof), and field._gcd_cof calls made outside
    _ratio, RationalFunction's own."""
    import sys

    import qpoly.field as field
    import qpoly.qkernel as qkernel

    work = dict.fromkeys(("empty", "coprime", "content", "gcd", "own"), 0)
    ratio, gcd_cof, inside = qkernel._ratio, field._gcd_cof, []

    def counted_ratio(rows, den, *args, coprime=False):
        path = ("empty" if not rows else "coprime" if coprime
                else "content" if len(den) - next(i for i, c in enumerate(den) if c) == 1 else "gcd")
        work[path] += 1
        inside.append(path)
        try:
            return ratio(rows, den, *args, coprime=coprime)
        finally:
            inside.pop()

    def counted_gcd_cof(a, b):
        work["own"] += not inside
        return gcd_cof(a, b)

    modules = [m for name, m in sys.modules.items() if name.startswith("qpoly.") and getattr(m, "_ratio", None) is ratio]
    for module in modules:
        module._ratio = counted_ratio
    field._gcd_cof = counted_gcd_cof
    try:
        read()
    finally:
        for module in modules:
            module._ratio = ratio
        field._gcd_cof = gcd_cof
    return work


def _divided_power_work(read):
    """Per qkernel._divided_powers call made by families over read(): (G
    packed, digit width in bytes, bytes of every packed G)."""
    import qpoly.families as families

    calls, divided = [], families._divided_powers

    def counted(*args, **kwargs):
        packed, nbytes, out = divided(*args, **kwargs)
        calls.append((len(packed), nbytes, sum((abs(g).bit_length() + 7) // 8 for g in packed)))
        return packed, nbytes, out

    families._divided_powers = counted
    try:
        read()
    finally:
        families._divided_powers = divided
    return calls


def test_exact_work_counts():
    # the work of the quotient kernel, the Laguerre t-series, exact row
    # division, _ratio's reductions and the q-divided-power kernel on fixed
    # inputs: a change of any count is a change of the algorithm, to be made
    # on purpose
    from qpoly.connection import _laguerre_series
    from qpoly.families import q_gegenbauer_genfun

    _clear_caches()
    assert _kernel_work(lambda: hermite_connection.__wrapped__(16).total) == [(230, 9, 13, 859)]
    assert _kernel_work(lambda: hermite_connection.__wrapped__(24).total) == [(1574, 13, 23, 8111)]
    assert _kernel_work(lambda: laguerre_connection(16, 16, {1: 2, 2: -1, 3: 3}).total) == [(230, 17, 13, 915)]
    assert _kernel_work(lambda: gegenbauer_connection_value(gegenbauer_connection(12))) == [(76, 91, 8, 4556)]
    # one entry per partition of each t-power w: c is (-1)**cycles times the
    # number of permutations of w of cycle type mu (1s implied)
    series = _laguerre_series(16)
    assert [len(terms) for terms in series] == [partition_count_dp(w) for w in range(17)]
    for w, terms in enumerate(series):
        for mu, c in terms.items():
            cycle_type = collections.Counter(mu + (1,) * (w - sum(mu)))
            count = math.factorial(w) // math.prod(j**m * math.factorial(m) for j, m in cycle_type.items())
            assert c == (-1) ** sum(cycle_type.values()) * count, (w, mu)
    _clear_caches()
    # (packed tries, certified quotients, fallbacks) of exact row division
    assert _division_work(lambda: gegenbauer_connection_value(gegenbauer_connection(12))) == (71, 71, 0)
    assert _division_work(lambda: q_gegenbauer_direct(12)) == (0, 0, 0)
    _clear_caches()
    assert _division_work(lambda: q_gegenbauer_genfun(16)) == (126, 126, 0)
    _clear_caches()
    assert _ratio_work(lambda: run_suite("all")) == {"empty": 0, "coprime": 316, "content": 147, "gcd": 189, "own": 706}
    _clear_caches()
    assert _divided_power_work(lambda: q_gegenbauer_genfun(16)) == [(17, 5, 1484441)]
    _clear_caches()
    assert _divided_power_work(lambda: gegenbauer_sum_rule(16)) == [(17, 3, 51409)]
