"""A catalogue of source mutants and the tests that must fail on each.

Each entry names a module of src/qpoly, an exact snippet that occurs in it
once, the snippet's replacement, and the pytest node ids expected to fail on
the mutant.  The runner copies src/ to a temporary directory, applies one
entry there and runs its tests in a pytest subprocess on the copy.  Run every
entry with

    python tests/mutants.py

Each entry is reported as killed (a named test failed), survived (every
named test passed) or stale (its snippet is not in the module exactly once,
a named test is gone, or pytest could not run them); the exit status is 1
unless every entry is killed.  Tier-1 runs only the staleness check
(test_mutants.py).  Only pytest and the standard library are used.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/qpoly
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    # the Laguerre total: z**D meets the prefactor term l = k - D alone
    Mutant("laguerre-binomial-index", "connection.py",
           "_umul(binomials[k - zpow], rows[zpow])", "_umul(binomials[zpow], rows[zpow])",
           ("tests/test_connection.py::test_laguerre_total_takes_integer_choice_weights",
            "tests/test_connection.py::test_laguerre_terms_sum_to_total_off_the_diagonal")),
    Mutant("laguerre-s-power-index", "connection.py",
           "1, 2 * powers[k - zpow])", "1, 2 * powers[zpow])",
           ("tests/test_connection.py::test_laguerre_connection_33",
            "tests/test_connection.py::test_laguerre_total_takes_integer_choice_weights")),
    Mutant("laguerre-z-power-range", "connection.py",
           "least = k + 1 - len(binomials)", "least = k + 2 - len(binomials)",
           ("tests/test_connection.py::test_laguerre_connection_degree_zero",
            "tests/test_connection.py::test_laguerre_total_takes_integer_choice_weights")),
    Mutant("laguerre-cycle-weight-sign", "connection.py",
           "cycle = [(-1) ** m * math.factorial(j * m)", "cycle = [(-1) ** (j * m) * math.factorial(j * m)",
           ("tests/test_connection.py::test_laguerre_total_takes_integer_choice_weights",
            "tests/test_connection.py::test_exact_work_counts")),
    # the classical-lambda connection by the multinomial theorem
    Mutant("lambda-multinomial-count-dropped", "connection.py",
           "Fraction(1, math.prod(math.factorial(f) for _, f in parts))", "Fraction(1)",
           ("tests/test_connection.py::test_gegenbauer_classical_lambda_matches_the_binomial_series",
            "tests/test_connection.py::test_gegenbauer_classical_lambda_route")),
    Mutant("lambda-factor-exponent", "connection.py",
           "reduce(_times_one_minus, [k] * e, [1])", "reduce(_times_one_minus, [k] * (e + 1), [1])",
           ("tests/test_connection.py::test_gegenbauer_value_blocks_are_int_rows_of_the_powers",
            "tests/test_connection.py::test_gegenbauer_connection_reproduces_direct")),
    # the quotient kernel
    Mutant("kernel-least-power-dropped", "connection.py",
           "sums[key] = acc * (1 - xi) ** least", "sums[key] = acc",
           ("tests/test_connection.py::test_quotient_kernel_matches_the_per_exponent_powers",
            "tests/test_connection.py::test_hermite_total_is_term_sum")),
    Mutant("kernel-digit-one-byte-wider", "connection.py",
           "nbytes = _width(max(top, *bound.values()).bit_length())",
           "nbytes = _width(max(top, *bound.values()).bit_length()) + 1",
           ("tests/test_connection.py::test_hermite_kernel_digit_widths",
            "tests/test_connection.py::test_exact_work_counts")),
    Mutant("kernel-horner-stop", "connection.py",
           "range(max(by_power), least - 1, -1)", "range(max(by_power), least, -1)",
           ("tests/test_connection.py::test_hermite_connection_degree_zero",)),
    # the Hermite part choices reduce each a/b
    Mutant("hermite-choice-gcd-dropped", "connection.py",
           "g, key = math.gcd(a, c), ", "g, key = 1, ",
           ("tests/test_connection.py::test_hermite_kernel_digit_widths",
            "tests/test_connection.py::test_exact_work_counts")),
    # the Lambda level: a quotient of rows laid end to end is checked by its product
    Mutant("rows-divexact-product-check-dropped", "field.py",
           "return q if _rows_mul(b, q) == a else None", "return q",
           ("tests/test_field.py::test_divexact_edge_cases",)),
    # packed digits move to wider fields with the old bias subtracted
    Mutant("widen-bias", "field.py",
           'bytes(nbytes - 1) + b"\\x80" + bytes(wider - nbytes)', 'bytes(nbytes - 1) + b"\\x81" + bytes(wider - nbytes)',
           ("tests/test_field.py::test_pack_unpack_round_trip_every_width",
            "tests/test_connection.py::test_sum_rules_exact[4]")),
    # the one certificate of packed quotients, GCDHEU's cofactors and packed
    # exact division's: digits are a quotient only when sum|b| * max|q| < xi/2
    Mutant("certificate-bound-at-xi", "field.py",
           "_maxabs(q) < 1 << (8 * nbytes - 1) else None", "_maxabs(q) < 1 << (8 * nbytes) else None",
           ("tests/test_field.py::test_exact_division_cases",
            "tests/test_field.py::test_heuristic_gcd_cofactors_with_and_without_the_size_bound")),
    Mutant("certificate-size-dropped", "field.py",
           "return q if sum(map(abs, b)) * _maxabs(q) <", "return q if _maxabs(q) <",
           ("tests/test_field.py::test_exact_division_cases",
            "tests/test_field.py::test_heuristic_gcd_cofactors_with_and_without_the_size_bound")),
    Mutant("certificate-max-for-sum", "field.py",
           "return q if sum(map(abs, b)) * _maxabs(q) <", "return q if _maxabs(b) * _maxabs(q) <",
           ("tests/test_field.py::test_exact_division_cases",
            "tests/test_field.py::test_heuristic_gcd_cofactors_with_and_without_the_size_bound")),
    # packed exact division: a remainder means no quotient, and digits wider
    # than the cap are divided by schoolbook
    Mutant("udivexact-remainder-ignored", "field.py",
           "        if rem:\n            return None\n", "",
           ("tests/test_field.py::test_exact_division_cases",
            "tests/test_field.py::test_exact_division_matches_schoolbook")),
    Mutant("udivexact-packs-any-width", "field.py",
           ")) <= _PACK_DIV_BYTES:", ")) > 0:",
           ("tests/test_field.py::test_sparse_bivariate_division_wider_than_the_cap_is_schoolbook",)),
    # the exp of the q-divided-power kernel packs at the width its bound needs
    Mutant("exp-digit-width-one-byte-short", "qkernel.py",
           "wider = _width(need.bit_length())\n", "wider = _width(need.bit_length()) - (not log)\n",
           ("tests/test_qkernel.py::test_exp_digit_widths", "tests/test_connection.py::test_exact_work_counts")),
    # the Gegenbauer cells: cos(j theta) is twice the w**j coefficient, j > 0
    Mutant("gegenbauer-cos-doubling-dropped", "families.py",
           "rows if not e else [[2 * x for x in r] for r in rows]", "rows",
           ("tests/test_families.py::test_q_gegenbauer_dual_route",
            "tests/test_families.py::test_gegenbauer_genfun_over_z_matches_series_exp")),
]


def _test_names(path):
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def stale_reason(mutant, src=ROOT / "src"):
    """Why the entry no longer applies to src, or None."""
    module = src / "qpoly" / mutant.module
    count = module.read_text().count(mutant.snippet) if module.is_file() else 0
    if count != 1:
        return f"snippet occurs {count} times in {mutant.module}"
    for node in mutant.tests:
        path, _, name = node.partition("::")
        if not (ROOT / path).is_file() or name.split("[")[0] not in _test_names(ROOT / path):
            return f"no test {node}"
    return None


def run(mutant, src=ROOT / "src"):
    """(status, detail): "stale", "killed" or "survived"."""
    reason = stale_reason(mutant, src)
    if reason:
        return "stale", reason
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        module = copy / "qpoly" / mutant.module
        module.write_text(module.read_text().replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0:
        return "survived", summary[0]
    if proc.returncode == 1:
        return "killed", summary[0]
    return "stale", f"pytest exited {proc.returncode}: {summary[0]}"


def main(catalogue=MUTANTS):
    start, statuses = time.perf_counter(), []
    for mutant in catalogue:
        began = time.perf_counter()
        status, detail = run(mutant)
        statuses.append(status)
        print(f"{status:8} {mutant.name} ({time.perf_counter() - began:.1f} s): {detail}", flush=True)
    print(f"{statuses.count('killed')} of {len(catalogue)} killed, {statuses.count('survived')} survived, "
          f"{statuses.count('stale')} stale, in {time.perf_counter() - start:.1f} s")
    return 0 if statuses.count("killed") == len(catalogue) else 1


if __name__ == "__main__":
    sys.exit(main())
