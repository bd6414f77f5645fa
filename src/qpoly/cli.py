"""Command-line interface.

    qpoly eval <family> --n N [--k K] [--format text|latex|json]
    qpoly connect <family> --n N [--k K] [--aux a1,a2,...] [--format ...]
    qpoly verify [--suite NAME] [--max-n N] [--format text|json] [--report PATH]

Families for eval: hermite, laguerre, gegenbauer and their classical-*
counterparts.  Exit codes: 0 success, 1 verification failure, 2 usage error.
--q-sample adds a floating-point cross-check of the command's dual-route
identity at the given rational q, a usage error where doubles cannot hold it;
JSON output carries it as the document's numeric_check object.
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

EVAL_FAMILIES = ("hermite", "laguerre", "gegenbauer",
                 "classical-hermite", "classical-laguerre", "classical-gegenbauer")
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
# eval
# ---------------------------------------------------------------------------

def _eval_polynomial(family, n, k):
    """Returns (polynomial, independent-route polynomial)."""
    if family == "hermite":
        return q_hermite(n), hermite_connection(n).rescaled_total()
    if family == "laguerre":
        return q_laguerre(n, k), laguerre_connection(n, k).rescaled_total()
    if family == "gegenbauer":
        return q_gegenbauer_direct(n), q_gegenbauer_genfun(n)
    if family == "classical-hermite":
        return hermite_classical(n), hermite_genfun_classical(n)
    if family == "classical-laguerre":
        return laguerre_classical(LaguerreIndex(k, n - k)), laguerre_genfun_classical(n, k)
    if family == "classical-gegenbauer":
        return gegenbauer_classical(n), chebyshev_recurrence(n)
    raise ValueError(family)


def _numeric_check(poly, other, q_sample, parser):
    """(primary, independent, relative diff): both routes as doubles at
    q_sample, None without one.  A check that doubles cannot hold, through
    overflow, underflow or cancellation, is a usage error."""
    if q_sample is None:
        return None
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


def _print_json(doc, check, q_sample, out):
    """Print the JSON document, with the numeric cross-check in it if any."""
    if check is not None:
        a, b, diff = check
        doc["numeric_check"] = {"q": str(q_sample), "primary": [a.real, a.imag],
                                "independent": [b.real, b.imag], "relative_diff": diff}
    print(json.dumps(doc, indent=2), file=out)


def _print_numeric_check(check, q_sample, out):
    a, b, diff = check
    print(f"numeric cross-check at q = {q_sample} "
          f"(z = {_SAMPLES['z']}, theta = {_SAMPLES['cos']}, lambda = {_LAMBDA_SAMPLE}):",
          file=out)
    print(f"  primary route:     {a}", file=out)
    print(f"  independent route: {b}", file=out)
    print(f"  relative diff:     {diff:.3e}", file=out)


def _check_n_k(args, parser):
    """The --n and --k checks of eval and connect: the Laguerre families need
    --k, the others take none."""
    if args.n < 0:
        parser.error("--n must be >= 0")
    if "laguerre" in args.family:
        if args.k is None:
            parser.error(f"family {args.family} needs --k")
        if args.k < 0:
            parser.error("--k must be >= 0")
    elif args.k is not None:
        parser.error(f"family {args.family} takes no --k")


def _cmd_eval(args, parser, out):
    family = args.family
    _check_n_k(args, parser)
    poly, other = _eval_polynomial(family, args.n, args.k)
    numeric = _numeric_check(poly, other, args.q_sample, parser)
    if args.format == "json":
        doc = render.polynomial_json_dict(poly, family, args.n, args.k, total_check=(poly == other))
        _print_json(doc, numeric, args.q_sample, out)
        return 0
    print(render.latex(poly) if args.format == "latex" else render.text(poly), file=out)
    if numeric is not None:
        _print_numeric_check(numeric, args.q_sample, out)
    return 0


# ---------------------------------------------------------------------------
# connect
# ---------------------------------------------------------------------------

def _parse_aux(text, parser):
    if text is None:
        return {}
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        parser.error(f"--aux needs comma-separated integers, got {text!r}")
    return {j + 1: v for j, v in enumerate(values)}


def _connect_table(expansion, fmt):
    """Rows of (label, rendered value) mirroring the contribution tables."""
    emit = render.text if fmt == "text" else render.latex
    return [(term.descriptor.label(), emit(expansion.rescaled_term_value(term)))
            for term in expansion.terms]


def _factor_texts(family, solution, aux):
    """The classical factors of one Hermite or Laguerre row, as text."""
    if family == "hermite":
        return [f"H{m}(zeta{k})" for k, m in solution.parts]
    return [f"L{kj}^({aux.get(j, 0) - kj})(" + ("z" if j == 1 else f"c{j}(q)*z^{j}") + ")"
            for j, kj in solution.kparts]


def _c_monomial(mono):
    """A product of classical factors C_m as text, "1" for none."""
    return render.text(CPolynomial({mono: 1}))


def _cmd_connect(args, parser, out):
    family = args.family
    _check_n_k(args, parser)
    if family != "laguerre" and args.aux is not None:
        parser.error(f"family {family} takes no --aux")
    aux = _parse_aux(args.aux, parser)

    if family == "gegenbauer":
        expansion = gegenbauer_connection(args.n)
        value = gegenbauer_connection_value(expansion)
        direct = q_gegenbauer_direct(args.n)
        check = value == direct
        numeric = _numeric_check(value, direct, args.q_sample, parser)
        if args.format == "json":
            doc = {
                "family": family, "n": args.n,
                "terms": [
                    {"monomial": _c_monomial(t.descriptor),
                     "coefficient": render.text(t.coefficient)}
                    for t in expansion.terms
                ],
                "total": render.text(expansion.total),
                "total_check": "pass" if check else "fail",
            }
            _print_json(doc, numeric, args.q_sample, out)
            return 0 if check else 1
        if args.format == "latex":
            print(render.latex(expansion.total), file=out)
        else:
            for term in expansion.terms:
                print(f"{_c_monomial(term.descriptor):12s}  {render.text(term.coefficient)}",
                      file=out)
            print(f"total: {render.text(expansion.total)}", file=out)
            print(f"check against explicit form: {'pass' if check else 'fail'}", file=out)
        if numeric is not None:
            _print_numeric_check(numeric, args.q_sample, out)
        return 0 if check else 1

    if family == "hermite":
        expansion = hermite_connection(args.n)
        target = q_hermite(args.n)
    else:
        expansion = laguerre_connection(args.n, args.k, aux)
        target = q_laguerre(args.n, args.k)
    total = expansion.rescaled_total()
    check = total == target
    numeric = _numeric_check(total, target, args.q_sample, parser)

    if args.format == "json":
        doc = render.polynomial_json_dict(total, family, args.n, args.k, total_check=check)
        doc["terms"] = [
            {"solution": t.descriptor.label(),
             "factors": _factor_texts(family, t.descriptor, aux),
             "value": render.text(expansion.rescaled_term_value(t))}
            for t in expansion.terms
        ]
        if aux:
            doc["aux"] = {str(j): v for j, v in sorted(aux.items())}
        _print_json(doc, numeric, args.q_sample, out)
        return 0 if check else 1
    if args.format == "latex":
        for label, rendered in _connect_table(expansion, "latex"):
            print(f"% {label}", file=out)
            print(rendered + r" \\", file=out)
        print("% total", file=out)
        print(render.latex(total), file=out)
    else:
        rows = _connect_table(expansion, "text")
        width = max(len(label) for label, _ in rows)
        for label, rendered in rows:
            print(f"{label:<{width}}  |  {rendered}", file=out)
        print(f"total: {render.text(total)}", file=out)
        print(f"check against direct construction: {'pass' if check else 'fail'}", file=out)
    if numeric is not None:
        _print_numeric_check(numeric, args.q_sample, out)
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
        if args.command == "eval":
            return _cmd_eval(args, sub, out)
        if args.command == "connect":
            return _cmd_connect(args, sub, out)
        return _cmd_verify(args, sub, out)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
