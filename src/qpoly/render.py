"""Text, LaTeX and JSON rendering for engine outputs, plus the JSON parser.

Conventions (shared with field.format_*):

  * the term layout (field._render) and the q-monomials with their
    denominator fold (field._q_monomial, field._rational_text) are defined
    once in field, in a text and a LaTeX style;
  * s is never shown; everything prints in q and q^{1/2};
  * the generator Lambda (= q**lambda) prints as `lam` in text/JSON and as
    q^{\\lambda} in LaTeX;
  * the abstract weights beta_k print as `b1, b2, ...` in text and as
    [\\lambda]_{q^{k}} in LaTeX;
  * JSON polynomial schema:
        {"family": ..., "n": ..., ("k": ...,)
         "coefficients": [{"basis": "z"|"cos", "degree_or_m": d,
                           "num": "<poly>", "den": "<poly>"}],
         "total_check": "pass"|"fail"}
    and parse_polynomial_json() round-trips it bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .field import (
    _LATEX_STYLE,
    ParseError,
    RationalFunction,
    _number,
    _poly_text,
    _rational_text,
    _render,
    format_poly,
    format_rational,
    parse_poly,
)
from .families import CosPolynomial, ZPolynomial


# ---------------------------------------------------------------------------
# coefficients and monomials over the shared term layout (field._render)
# ---------------------------------------------------------------------------

def _signed(text, left="(", right=")"):
    """coeff_fn result for a rendered coefficient: a composite goes in
    parentheses, a bare leading minus is lifted out."""
    if " + " in text or " - " in text:
        return left + text + right, False
    if text.startswith("-"):
        return text[1:], True
    return text, False


def _factors(factor_fn, sep):
    """basis_fn for ((generator, exponent), ...) monomials."""
    return lambda mono: sep.join(factor_fn(g, e) for g, e in mono) or None


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------

def _text_coeff(rf):
    return _signed(format_rational(rf))


def text_zpoly(poly):
    return _render(poly.sorted_terms(), _text_coeff,
                   lambda d: None if d == 0 else ("z" if d == 1 else f"z^{d}"), "*")


def text_cospoly(poly):
    return _render(poly.sorted_terms(), _text_coeff,
                   lambda m: None if m == 0 else ("cos(theta)" if m == 1 else f"cos({m}*theta)"),
                   "*")


def text_beta(poly):
    return _render(poly.sorted_terms(), _number(),
                   _factors(lambda k, e: f"b{k}" if e == 1 else f"b{k}^{e}", "*"), "*")


def text_lambda_poly(poly):
    return _render(poly.sorted_terms(), _number(),
                   _factors(lambda _g, e: "lambda" if e == 1 else f"lambda^{e}", "*"), "*")


def text_cmono(mono):
    if not mono:
        return "1"
    return "*".join(f"C{m}^{e}" if e > 1 else f"C{m}" for m, e in sorted(mono, reverse=True))


def text_cpoly(poly, coeff_text=None):
    """CPolynomial text; coefficient ring rendered by coeff_text (default:
    beta text for BetaPolynomial, fractions otherwise)."""
    return _render(poly.sorted_terms(), coeff_text or _default_coeff_text,
                   lambda m: text_cmono(m) if m else None, "*")


def _default_coeff_text(c):
    from .connection import BetaPolynomial, LambdaPolynomial
    if isinstance(c, BetaPolynomial):
        return _signed(text_beta(c))
    if isinstance(c, LambdaPolynomial):
        return _signed(text_lambda_poly(c))
    return _signed(str(c))


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def latex_poly(p):
    return _poly_text(p.sorted_terms(), _LATEX_STYLE)


def latex_rational(r):
    """Monomial denominators with unit coefficient fold into negative
    exponents (so 1/s**45 renders as q^{-45/2}); otherwise \\frac."""
    return _rational_text(r, _LATEX_STYLE)


def _latex_signed(text):
    return _signed(text, r"\left(", r"\right)")


def _latex_coeff(rf):
    text = latex_rational(rf)
    return (text, False) if text.startswith(r"\frac") else _latex_signed(text)


def latex_zpoly(poly):
    return _render(poly.sorted_terms(), _latex_coeff,
                   lambda d: None if d == 0 else ("z" if d == 1 else "z^{%d}" % d), r"\,")


def latex_cospoly(poly):
    return _render(poly.sorted_terms(), _latex_coeff,
                   lambda m: None if m == 0 else (r"\cos\theta" if m == 1 else r"\cos %d\theta" % m),
                   r"\,")


def latex_beta_gen(k, e=1):
    base = r"[\lambda]_{q}" if k == 1 else r"[\lambda]_{q^{%d}}" % k
    if e == 1:
        return base
    return base + "^{%d}" % e


def latex_beta(poly):
    return _render(poly.sorted_terms(), _number(_latex_fraction),
                   _factors(latex_beta_gen, r"\,"), r"\,")


def _latex_fraction(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return r"\frac{%d}{%d}" % (fr.numerator, fr.denominator)


def latex_cmono(mono):
    if not mono:
        return "1"
    return r"\,".join(
        "C_{%d}^{%d}(z)" % (m, e) if e > 1 else "C_{%d}(z)" % m
        for m, e in sorted(mono, reverse=True))


def latex_cpoly(poly):
    return _render(
        poly.sorted_terms(),
        lambda c: _latex_signed(latex_beta(c) if hasattr(c, "sorted_terms") else _latex_fraction(c)),
        lambda m: latex_cmono(m) if m else None, r"\,")


def latex_qbinom(n, k):
    return r"\Big[{%d \atop %d}\Big]_{q}" % (n, k)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def polynomial_json_dict(poly, family, n, k=None, total_check=None):
    if isinstance(poly, ZPolynomial):
        basis = "z"
    elif isinstance(poly, CosPolynomial):
        basis = "cos"
    else:
        raise TypeError(f"no JSON polynomial schema for {type(poly).__name__}")
    doc = {"family": family, "n": n}
    if k is not None:
        doc["k"] = k
    doc["basis"] = basis  # top-level copy; keeps empty polynomials unambiguous
    doc["coefficients"] = [
        {"basis": basis, "degree_or_m": d,
         "num": format_poly(rf.num), "den": format_poly(rf.den)}
        for d, rf in poly.sorted_terms()
    ]
    if total_check is not None:
        doc["total_check"] = "pass" if total_check else "fail"
    return doc


def render_polynomial_json(poly, family, n, k=None, total_check=None):
    return json.dumps(polynomial_json_dict(poly, family, n, k, total_check), indent=2)


def parse_polynomial_json(text):
    """Inverse of render_polynomial_json: returns (polynomial, meta).

    Raises ParseError on anything that is not such a document.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("coefficients", []), list):
        raise ParseError("expected an object with a list of coefficients")
    coeffs = {}
    basis = doc.get("basis")
    for entry in doc.get("coefficients", []):
        try:
            basis, degree = entry["basis"], entry["degree_or_m"]
            num, den = parse_poly(entry["num"]), parse_poly(entry["den"])
        except (KeyError, TypeError, AttributeError):
            raise ParseError(f"malformed coefficient entry {entry!r}") from None
        if type(degree) is not int or degree < 0:
            raise ParseError(f"degree_or_m must be an integer >= 0, got {degree!r}")
        if den.is_zero():
            raise ParseError("zero denominator")
        coeffs[degree] = RationalFunction(num, den)
    cls = CosPolynomial if basis == "cos" else ZPolynomial
    meta = {key: doc[key] for key in ("family", "n", "k", "total_check") if key in doc}
    return cls(coeffs), meta
