"""The CI checks of two exact routes beyond Tier-1's sizes, run by name.

    python tests/checks.py [NAME ...]

A check returns its mismatches; run prints the first ten and the wall time,
and exits 1 on a mismatch or an exception.  Named checks run in this process;
with no names each runs in a fresh one, so caches and peak RSS are its own.
A check imports only what it uses: the sweep bounds its peak RSS.
"""

import pathlib
import sys
import time
import traceback
from importlib import import_module as load

ROOT = pathlib.Path(__file__).resolve().parent.parent


def laguerre_row_sums():
    import random
    from qpoly.connection import laguerre_connection
    from qpoly.families import ZPolynomial, q_laguerre
    rng, bad = random.Random(47), []
    for n, k in ((10, 10), (12, 9), (7, 11)):
        for _ in range(3):
            aux = {j: rng.randint(-3, 3) for j in range(1, k + 1)}
            if ZPolynomial.sum([t.value for t in laguerre_connection(n, k, aux).terms]) != q_laguerre(n, k):
                bad.append((n, k, aux))
    return bad


def division_fuzz():
    field, bad = load("test_field"), []
    work = field._division_work(lambda: bad.extend(field._division_mismatches(1, 30000)
                                                   + field._fold_mismatches(1, 30000)))
    print("packed tries, certified, fallbacks:", work)
    return bad


def widest_digits():
    from qpoly.connection import gegenbauer_sum_rule
    from qpoly.families import q_gegenbauer_direct, q_gegenbauer_genfun
    lhs, rhs = gegenbauer_sum_rule(22)
    return ["genfun"] * (q_gegenbauer_genfun(22) != q_gegenbauer_direct(22)) + ["sum rule"] * (lhs != rhs)


def eval_connect():
    # beyond the digest pool (n <= 8): each eval family in text, LaTeX and JSON read back by the parser; at
    # n = 18 the Hermite rows of one kernel call, at 12 the Laguerre rows of the prefix walk
    import contextlib
    import io
    from qpoly.cli import main
    from qpoly.render import parse_polynomial_json
    families = ["hermite --n 10", "gegenbauer --n 10", "classical-hermite --n 10", "classical-gegenbauer --n 10",
                "laguerre --n 10 --k 10", "classical-laguerre --n 10 --k 10"]
    requests = [f"eval {r}{f}" for r in families for f in ("", " --format latex", " --format json")] + [
        "connect hermite --n 10", "connect gegenbauer --n 10",
        "connect laguerre --n 10 --k 10 --aux 2,-1,3 --q-sample 7/10 --format json",
        "connect hermite --n 18", "connect laguerre --n 12 --k 12 --aux 2,-1,3"]
    bad = []
    for request in requests:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = main(request.split())
        if status or request.startswith("eval") and request.endswith("json") and (
                parse_polynomial_json(out.getvalue())[1]["total_check"] != "pass"):
            bad.append(request)
    return bad


def sweep():
    import resource
    from qpoly.connection import hermite_connection, laguerre_connection
    from qpoly.families import q_hermite, q_laguerre
    start = time.perf_counter()
    for n in range(1, 61):
        q_hermite(n)
    for n in range(17):
        for k in range(17):
            q_laguerre(n, k)
            laguerre_connection(n, k, {1: 2, 2: -1, 3: 3}).total
        hermite_connection(n).total
    wall, rss = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall {wall:.2f} s, peak RSS {rss:.1f} MB")
    return ["above 10 s or 90 MB"] if wall > 10 or rss > 90 else []


def parser_fuzz():
    fuzz = load("test_parse_fuzz")
    return (fuzz._edit_fuzz_failures(fuzz.parse_rational, fuzz._rational_text, fuzz._is_rf, 3026, 50000)
            + fuzz._edit_fuzz_failures(fuzz.parse_polynomial_json, fuzz._json_text, fuzz._is_polynomial_and_meta,
                                       3027, 10000))


CHECKS = {
    "closed_forms": lambda: load("test_qkernel")._closed_form_mismatches(30, 16, 30),
    "laguerre_totals": lambda: load("test_connection")._laguerre_reduction_mismatches(14),
    "laguerre_row_sums": laguerre_row_sums,
    "hermite_tables": lambda: [n for n in range(25) if load("qpoly.connection")._hermite_tables(n)
                               != load("test_connection")._hermite_tables_by_partition(n)],
    "kernel_fuzz": lambda: load("test_connection")._kernel_mismatches(1, 20000),
    "division_fuzz": division_fuzz,
    "bivariate_fuzz": lambda: load("test_field")._mul_div_mismatches(1, 5000),
    "classical_lambda": lambda: load("test_connection")._classical_lambda_mismatches(14),
    "widest_digits": widest_digits,
    "eval_connect": eval_connect,
    "sweep": sweep,
    "parser_fuzz": parser_fuzz,
}


def run(name):
    """Run one check: 1 on a mismatch or an exception, else 0."""
    start = time.perf_counter()
    try:
        bad = CHECKS[name]()
    except Exception as exc:  # noqa: BLE001 - a check that raises fails, with its traceback on stderr
        traceback.print_exc()
        bad = [exc]
    for item in bad[:10]:
        print(repr(item))
    print(f"{name}: {len(bad)} mismatches, {time.perf_counter() - start:.2f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(1, str(ROOT / "src"))
    if sys.argv[1:]:
        sys.exit(int(any([run(name) for name in sys.argv[1:]])))
    import subprocess
    flags = [f"-W{w}" for w in sys.warnoptions]
    sys.exit(int(any([subprocess.run([sys.executable, *flags, __file__, name]).returncode for name in CHECKS])))
