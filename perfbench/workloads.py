"""Requests for the three benchmark workloads.

Each workload is a function `(mods, rng, smoke, index) -> list[Request]` that
builds pass number `index`: a fixed mix of requests whose order (and, where
the program allows it, free inputs such as the Laguerre auxiliary integers)
come from the seeded `rng`.  A run is a fixed whole number of passes, so every run sees the same
mix, and every version of the program does the same work.
`pool` lists every request a pass can contain, for recording digests.

A request's `call()` returns `(output, verdict)`: `output` is a string (CLI
stdout) or a polynomial, whose canonical text is digested outside the timed
region; `verdict` is the program's own dual-route check.  Functions are
looked up through the module at call time, so a traced run sees the wrapped
ones.  No request passes a truncation order.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

# The suites and CLI families as they stand when the digests were recorded;
# a suite or family added later is not part of this benchmark.
SUITES = ("qexp", "hermite", "laguerre", "gegenbauer", "sumrules", "limits")
EVAL_FAMILIES = ("hermite", "laguerre", "gegenbauer",
                 "classical-hermite", "classical-laguerre", "classical-gegenbauer")
CONNECT_FAMILIES = ("hermite", "laguerre", "gegenbauer")
FORMATS = ("text", "latex", "json")


@dataclass(frozen=True)
class Request:
    key: str
    call: Callable


# ---------------------------------------------------------------------------
# frontier: the Baseline's degree frontier, one engine call plus its oracle
# ---------------------------------------------------------------------------

def frontier_pass(mods, rng, smoke, index):
    con, fam = mods["connection"], mods["families"]
    hermite_ns, gegenbauer_ns = ((3, 4), (2, 3)) if smoke else ((14, 16), (8, 9))
    genfun_n, laguerre_n = (3, 3) if smoke else (10, 8)
    aux = {j: rng.randint(-3, 3) for j in range(1, laguerre_n + 1)}

    def hermite(n):
        total = con.hermite_connection(n).rescaled_total()
        return total, total == fam.q_hermite(n)

    def gegenbauer(n):
        value = con.gegenbauer_connection_value(con.gegenbauer_connection(n))
        return value, value == fam.q_gegenbauer_direct(n)

    def genfun(n):
        value = fam.q_gegenbauer_genfun(n)
        return value, value == fam.q_gegenbauer_direct(n)

    def sum_rule(ell):
        lhs, rhs = con.gegenbauer_sum_rule(ell)
        return lhs, lhs == rhs

    def laguerre(n):
        # the total does not depend on aux, so its digest does not either
        total = con.laguerre_connection(n, n, aux).rescaled_total()
        return total, total == fam.q_laguerre(n, n)

    reqs = [Request(f"frontier hermite_connection {n}", lambda n=n: hermite(n)) for n in hermite_ns]
    reqs += [Request(f"frontier gegenbauer_connection_value {n}", lambda n=n: gegenbauer(n))
             for n in gegenbauer_ns]
    reqs += [Request(f"frontier q_gegenbauer_genfun {genfun_n}", lambda: genfun(genfun_n)),
             Request(f"frontier gegenbauer_sum_rule {genfun_n}", lambda: sum_rule(genfun_n)),
             Request(f"frontier laguerre_connection {laguerre_n} {laguerre_n}",
                     lambda: laguerre(laguerre_n))]
    rng.shuffle(reqs)
    return reqs


def frontier_pool(mods, smoke):
    return frontier_pass(mods, random.Random(0), smoke, 0)


# ---------------------------------------------------------------------------
# cli-session: qpoly.cli.main in-process, default options, cold caches
# ---------------------------------------------------------------------------

def _argv(command, family, fmt, n, k=None):
    argv = [command, family, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    return argv + ["--format", fmt]


def cli_request(mods, argv):
    readback = argv[-1] == "json" and not (argv[0] == "connect" and argv[1] == "gegenbauer")

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(list(argv))
        text = out.getvalue()
        ok = code == 0
        if readback:
            _, meta = mods["render"].parse_polynomial_json(text)
            ok = ok and meta.get("total_check") == "pass" and meta.get("n") == int(argv[3])
        return text, ok

    return Request("cli " + " ".join(argv), call)


def _cli_strata():
    return ([("eval", f) for f in EVAL_FAMILIES] + [("connect", f) for f in CONNECT_FAMILIES])


def cli_pass(mods, rng, smoke, index):
    """Each (command, family, n) once.  The format and the Laguerre k cycle
    with the pass index, so every run has the same mix; the order-12
    `eval gegenbauer`, about 2.5 s a call whatever n is, comes once, with n
    and format drawn."""
    ns = range(3 if smoke else 9)
    reqs = [cli_request(mods, _argv("eval", "gegenbauer", rng.choice(FORMATS), rng.choice(ns)))]
    for j, (command, family) in enumerate(_cli_strata()):
        if (command, family) == ("eval", "gegenbauer"):
            continue
        for n in ns:
            k = (n + j + index) % (n + 1) if "laguerre" in family else None
            fmt = FORMATS[(n + j + index) % len(FORMATS)]
            reqs.append(cli_request(mods, _argv(command, family, fmt, n, k)))
    rng.shuffle(reqs)
    return reqs


def cli_pool(mods, smoke):
    ns = range(3 if smoke else 9)
    reqs = []
    for command, family in _cli_strata():
        for fmt in FORMATS:
            for n in ns:
                for k in (range(n + 1) if "laguerre" in family else (None,)):
                    reqs.append(cli_request(mods, _argv(command, family, fmt, n, k)))
    return reqs


# ---------------------------------------------------------------------------
# verify-all: run_suite(name) for each suite; caches live for one pass
# ---------------------------------------------------------------------------

def _suite_request(mods, name, smoke):
    max_n = 2 if smoke else None

    def call():
        report = mods["verify"].run_suite(name, max_n)
        text = "\n".join(f"{c.check_id} {c.passed}" for c in report.checks)
        return text, report.passed

    return Request(f"verify {name}" + (f" max_n={max_n}" if smoke else ""), call)


def verify_pass(mods, rng, smoke, index):
    reqs = [_suite_request(mods, name, smoke) for name in SUITES]
    rng.shuffle(reqs)
    return reqs


def verify_pool(mods, smoke):
    return [_suite_request(mods, name, smoke) for name in SUITES]


# name -> (pass function, pool, caches cleared before each "request" or
# "pass", passes in a 30-second run).  The pass counts keep each run near 30 s
# on the 2-core x86-64 VM where the benchmark was defined (frontier 9 s a pass,
# cli-session 6 s, verify-all 5 s) and give the tail at least ten samples
# beyond it in the same group of requests on every run.
WORKLOADS = {
    "frontier": (frontier_pass, frontier_pool, "request", 4),
    "cli-session": (cli_pass, cli_pool, "request", 4),
    "verify-all": (verify_pass, verify_pool, "pass", 4),
}
