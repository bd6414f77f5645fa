"""Command-line interface.

    qpoly eval <family> --n N [--k K] [--format text|latex|json]
    qpoly connect <family> --n N [--k K] [--aux a1,a2,...] [--format ...]
    qpoly verify [--suite NAME] [--max-n N] [--format text|json] [--report PATH]

Families for eval: hermite, laguerre, gegenbauer and their classical-*
counterparts.  Exit codes: 0 success, 1 verification failure, 2 usage error.
Each eval and connect request computes its identity by two independent
routes, prints the primary one and exits 1, in every format, when the two
differ; connect laguerre with --aux also exits 1 when the rows it prints do
not sum to the direct construction.  --q-sample adds a floating-point
cross-check of the two routes at the given rational q, a usage error where
doubles cannot hold it; JSON output carries it as the document's
numeric_check object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import render
from .families import (
    LaguerreIndex,
    ZPolynomial,
    gegenbauer_classical,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from .connection import (
    CPolynomial,
    gegenbauer_connection,
    gegenbauer_connection_value,
    hermite_connection,
    laguerre_connection,
)
from .field import NumericPole
from .verify import (
    SUITE_NAMES,
    chebyshev_recurrence,
    hermite_genfun_classical,
    laguerre_genfun_classical,
    run_suite,
)

CONNECT_FAMILIES = ("hermite", "laguerre", "gegenbauer")

# numeric cross-check sample points: the variable of each basis, and lambda
_SAMPLES = {"z": 1.3, "cos": 0.9}
_LAMBDA_SAMPLE = 2.5


def _build_parser():
    """The top-level parser and the subcommand parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="qpoly",
        description="Exact q-orthogonal polynomials and their nonlinear "
                    "connection formulae in terms of classical polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "latex", "json"), default="text")
    common.add_argument("--q-sample", dest="q_sample", default=None, metavar="RATIONAL",
                        help="floating-point cross-check at this q (e.g. 7/10)")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="construct one polynomial exactly")
    p_eval.add_argument("family", choices=EVAL_FAMILIES)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=None,
                        help="degree index for the Laguerre families")

    p_conn = sub.add_parser("connect", parents=[common],
                            help="expand a deformed polynomial over classical products")
    p_conn.add_argument("family", choices=CONNECT_FAMILIES)
    p_conn.add_argument("--n", type=int, required=True)
    p_conn.add_argument("--k", type=int, default=None)
    p_conn.add_argument("--aux", default=None,
                        help="comma-separated auxiliary integers n_1,n_2,... (Laguerre)")

    p_ver = sub.add_parser("verify", help="run the identity-verification suites")
    p_ver.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--report", default=None, metavar="PATH",
                       help="also write the report (JSON) to this path")
    return parser, {"eval": p_eval, "connect": p_conn, "verify": p_ver}


def _parse_q_sample(text, parser):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--q-sample needs a rational number, got {text!r}")
    if value <= 0 or value == 1:
        parser.error("--q-sample must be positive and different from 1")
    return value


# ---------------------------------------------------------------------------
# eval and connect: two routes, a body per format, one emitter
# ---------------------------------------------------------------------------
#
# A request builder returns (primary, independent, body, *more): the two
# routes of the command's identity, body(format, check), the text and LaTeX
# lines or the JSON document, given whether the routes agree, and any values
# that must equal the independent route too (the rows' sum, with --aux).

# eval: the two routes of each family, from n and k
_EVAL_ROUTES = {
    "hermite": lambda n, k: (q_hermite(n), hermite_connection(n).total),
    "laguerre": lambda n, k: (q_laguerre(n, k), laguerre_connection(n, k).total),
    "gegenbauer": lambda n, k: (q_gegenbauer_direct(n), q_gegenbauer_genfun(n)),
    "classical-hermite": lambda n, k: (hermite_classical(n), hermite_genfun_classical(n)),
    "classical-laguerre": lambda n, k: (laguerre_classical(LaguerreIndex(k, n - k)),
                                        laguerre_genfun_classical(n, k)),
    "classical-gegenbauer": lambda n, k: (gegenbauer_classical(n), chebyshev_recurrence(n)),
}
EVAL_FAMILIES = tuple(_EVAL_ROUTES)

# how a polynomial prints in each format; JSON carries text
_STYLES = {"text": render.text, "latex": render.latex, "json": render.text}


def _verdict(check):
    return "pass" if check else "fail"


def _eval_request(args, aux):
    poly, other = _EVAL_ROUTES[args.family](args.n, args.k)

    def body(fmt, check):
        if fmt == "json":
            return render.polynomial_json_dict(poly, args.family, args.n, args.k, total_check=check)
        return [_STYLES[fmt](poly)]
    return poly, other, body


def _connect_gegenbauer_request(args, aux):
    """The C-monomial expansion, its value against the explicit form."""
    expansion = gegenbauer_connection(args.n)
    value = gegenbauer_connection_value(expansion)

    def body(fmt, check):
        total = _STYLES[fmt](expansion.total)
        if fmt == "latex":
            return [total]
        # a product of classical factors C_m, "1" for none, and its coefficient
        rows = [(render.text(CPolynomial({t.descriptor: 1})), render.text(t.coefficient))
                for t in expansion.terms]
        if fmt == "json":
            return {"family": "gegenbauer", "n": args.n,
                    "terms": [{"monomial": m, "coefficient": c} for m, c in rows],
                    "total": total, "total_check": _verdict(check)}
        return ([f"{m:12s}  {c}" for m, c in rows]
                + [f"total: {total}", f"check against explicit form: {_verdict(check)}"])
    return value, q_gegenbauer_direct(args.n), body


def _factor_texts(family, solution, aux):
    """The classical factors of one Hermite or Laguerre row, as text."""
    if family == "hermite":
        return [f"H{m}(zeta{k})" for k, m in solution.parts]
    return [f"L{kj}^({aux.get(j, 0) - kj})(" + ("z" if j == 1 else f"c{j}(q)*z^{j}") + ")"
            for j, kj in solution.kparts]


def _connect_rows_request(args, aux):
    """The Hermite or Laguerre partition rows, their total against the
    direct construction, and with --aux the rows' sum too."""
    if args.family == "hermite":
        expansion, target = hermite_connection(args.n), q_hermite(args.n)
    else:
        expansion, target = laguerre_connection(args.n, args.k, aux), q_laguerre(args.n, args.k)
    terms, total = expansion.terms, expansion.total

    def body(fmt, check):
        emit = _STYLES[fmt]
        rows = [(t.descriptor, emit(t.value)) for t in terms]
        if fmt == "json":
            doc = render.polynomial_json_dict(total, args.family, args.n, args.k, total_check=check)
            doc["terms"] = [{"solution": sol.label(),
                             "factors": _factor_texts(args.family, sol, aux), "value": value}
                            for sol, value in rows]
            if aux:
                doc["aux"] = {str(j): v for j, v in sorted(aux.items())}
            return doc
        if fmt == "latex":
            return ([line for sol, value in rows for line in (f"% {sol.label()}", value + r" \\")]
                    + ["% total", emit(total)])
        labels = [sol.label() for sol, _ in rows]
        width = max(map(len, labels))
        return ([f"{label:<{width}}  |  {value}" for label, (_, value) in zip(labels, rows)]
                + [f"total: {emit(total)}", f"check against direct construction: {_verdict(check)}"])
    more = [ZPolynomial.sum([t.value for t in terms])] if aux else []
    return (total, target, body, *more)


def _numeric_check(poly, other, q_sample, parser):
    """(primary, independent, relative diff): both routes as doubles at
    q_sample.  A check that doubles cannot hold, through overflow, underflow
    or cancellation, is a usage error."""
    try:
        qv = float(q_sample)
        a, b = (p.eval_numeric(_SAMPLES[p.basis], math.sqrt(qv), qv**_LAMBDA_SAMPLE)
                for p in (poly, other))
        diff = abs(a - b) / max(abs(a), abs(b), 1.0)
    except (OverflowError, NumericPole):
        diff = math.nan
    if not math.isfinite(diff):
        parser.error("--q-sample: the numeric check cannot be evaluated in doubles at this q")
    return a, b, diff


def _check_args(args, parser):
    """The --n, --k and --aux checks of eval and connect: the Laguerre
    families need --k, the others take none, and only connect laguerre
    takes --aux.  Returns the auxiliary integers by order."""
    if args.n < 0:
        parser.error("--n must be >= 0")
    if "laguerre" in args.family:
        if args.k is None:
            parser.error(f"family {args.family} needs --k")
        if args.k < 0:
            parser.error("--k must be >= 0")
    elif args.k is not None:
        parser.error(f"family {args.family} takes no --k")
    aux = getattr(args, "aux", None)
    if aux is None:
        return {}
    if args.family != "laguerre":
        parser.error(f"family {args.family} takes no --aux")
    try:
        values = [int(x) for x in aux.split(",")]
    except ValueError:
        parser.error(f"--aux needs comma-separated integers, got {aux!r}")
    return {j + 1: v for j, v in enumerate(values)}


def _run_request(args, parser, out):
    """Build the request's two routes, compare them, add the --q-sample
    cross-check, print the body in its format and return 1 when the routes
    differ.  Every usage error comes before the first line printed."""
    aux = _check_args(args, parser)
    if args.command == "eval":
        build = _eval_request
    elif args.family == "gegenbauer":
        build = _connect_gegenbauer_request
    else:
        build = _connect_rows_request
    primary, independent, body, *more = build(args, aux)
    check = all(value == independent for value in (primary, *more))
    doc = body(args.format, check)
    if args.q_sample is not None:
        a, b, diff = _numeric_check(primary, independent, args.q_sample, parser)
        if args.format == "json":
            doc["numeric_check"] = {"q": str(args.q_sample), "primary": [a.real, a.imag],
                                    "independent": [b.real, b.imag], "relative_diff": diff}
        else:
            # LaTeX carries the check as comments, as it does its row labels
            mark = "% " if args.format == "latex" else ""
            doc += [mark + line for line in (
                f"numeric cross-check at q = {args.q_sample} "
                f"(z = {_SAMPLES['z']}, theta = {_SAMPLES['cos']}, lambda = {_LAMBDA_SAMPLE}):",
                f"  primary route:     {a}",
                f"  independent route: {b}",
                f"  relative diff:     {diff:.3e}")]
    print(json.dumps(doc, indent=2) if args.format == "json" else "\n".join(doc), file=out)
    return 0 if check else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, parser, out):
    if args.max_n is not None and args.max_n < 0:
        parser.error("--max-n must be >= 0")
    report = run_suite(args.suite, args.max_n)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(report.format_text(), file=out)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"qpoly verify: cannot write the report to {args.report}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


# Built once per process: parsing keeps no state in the parsers.
_PARSER, _COMMANDS = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # usage errors found after parsing print the subcommand's usage line
    sub = _COMMANDS[args.command]
    if getattr(args, "q_sample", None) is not None:
        args.q_sample = _parse_q_sample(args.q_sample, sub)
    out = sys.stdout
    try:
        if args.command == "verify":
            return _cmd_verify(args, sub, out)
        return _run_request(args, sub, out)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
