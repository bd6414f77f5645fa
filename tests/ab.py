"""A/B timing of library calls: a base revision against the working tree.

    python tests/ab.py REV [--rounds N] [module:expression ...]

REV's src/ is exported with git archive into a temporary directory; a
directory that holds a src/ may be given in place of REV.  Each round runs
every call in a fresh process per side, base and working tree in alternating
order.  A process imports the module with its side's src/ first on the path
(tests/ next, so test helpers can be called), then times REPEATS evaluations
of the expression in the module's namespace, every lru_cache of qpoly
cleared before each, and reports their median and the sha256 of the last
value's repr.

Per call it prints both sides' medians with their quartiles over the rounds,
the median of the paired ratios (working tree over base), the rounds the
working tree was faster, and whether both sides' outputs hash equal.  The
exit status is 1 if any call's outputs differ.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPEATS = 5  # timed evaluations per process
DEFAULT_CALLS = [
    "qpoly.connection:gegenbauer_sum_rule(8)",
    "qpoly.connection:gegenbauer_sum_rule(10)",
    "qpoly.connection:gegenbauer_sum_rule(16)",
    "qpoly.connection:gegenbauer_sum_rule(22)",
    "qpoly.families:q_gegenbauer_genfun(10)",
    "qpoly.connection:gegenbauer_connection_value(gegenbauer_connection(9))",
]

WORKER = """
import hashlib, importlib, json, statistics, sys, time
module, expression, repeats = sys.argv[1], sys.argv[2], int(sys.argv[3])
namespace = vars(importlib.import_module(module))
code = compile(expression, "<call>", "eval")
times = []
for _ in range(repeats):
    for name, mod in list(sys.modules.items()):
        if name.startswith("qpoly"):
            for fn in list(vars(mod).values()):
                if hasattr(fn, "cache_info"):
                    fn.cache_clear()
    start = time.perf_counter()
    value = eval(code, namespace)
    times.append(time.perf_counter() - start)
print(json.dumps([statistics.median(times), hashlib.sha256(repr(value).encode()).hexdigest()]))
"""


def export(rev, tmp):
    """The src/ of rev: a directory holding one, or git archive of a revision."""
    if (pathlib.Path(rev) / "src").is_dir():
        return pathlib.Path(rev) / "src"
    data = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(tmp, filter="data")
    return pathlib.Path(tmp) / "src"


def measure(src, call):
    """(median seconds, output hash) of one fresh process."""
    module, _, expression = call.partition(":")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", WORKER, module, expression, str(REPEATS)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{call} failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="a git revision, or a directory holding a src/")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("calls", nargs="*", metavar="module:expression", default=DEFAULT_CALLS)
    args = parser.parse_intermixed_args(argv)
    mismatch = False
    with tempfile.TemporaryDirectory() as tmp:
        sides = (export(args.rev, tmp), ROOT / "src")
        print(f"base {args.rev}, {args.rounds} rounds, median of {REPEATS} calls a process; ms, q1-q3")
        for call in args.calls:
            times, hashes = ([], []), set()
            for r in range(args.rounds):
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    seconds, digest = measure(sides[side], call)
                    times[side].append(seconds)
                    hashes.add(digest)
            ratios = [b / a for a, b in zip(*times)]
            wins = sum(b < a for a, b in zip(*times))
            base, change = ([f"{1e3 * x:.2f}" for x in quartiles(t)] for t in times)
            equal = len(hashes) == 1
            mismatch |= not equal
            print(f"{call}\n  base {base[1]} ({base[0]}-{base[2]})  change {change[1]} ({change[0]}-{change[2]})"
                  f"  ratio {statistics.median(ratios):.3f}  faster {wins}/{args.rounds}"
                  f"  outputs {'equal' if equal else 'DIFFER'}", flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
