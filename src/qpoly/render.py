"""Text, LaTeX and JSON rendering for engine outputs, plus the JSON parser.

Every SparsePoly prints through one text() and one latex().  Its class names
its basis (SparsePoly.basis), and _BASES maps the basis to a text and a LaTeX
rule for one monomial; a coefficient prints by its kind: a RationalFunction,
a nested SparsePoly (in parentheses when it has several terms) or a number.

Conventions (shared with field.format_*):

  * the term layout (field._render) and the q-monomials with their
    denominator fold (field._q_monomial, field._rational_text) are defined
    once in field, in a text and a LaTeX style;
  * s is never shown; everything prints in q and q^{1/2};
  * the generator Lambda (= q**lambda) prints as `lam` in text/JSON and as
    q^{\\lambda} in LaTeX;
  * the abstract weights beta_k print as `b1, b2, ...` in text and as
    [\\lambda]_{q^{k}} in LaTeX, the classical factors as `C1, C2, ...` and
    C_{m}(z);
  * JSON polynomial schema, for ZPolynomial ("z") and CosPolynomial ("cos"):
        {"family": ..., "n": ..., ("k": ...,) "basis": "z"|"cos",
         "coefficients": [{"basis": <the same>, "degree_or_m": d,
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
    _rational_text,
    _render,
    format_poly,
    format_rational,
    parse_poly,
)
from .families import CosPolynomial, SparsePoly, ZPolynomial


# ---------------------------------------------------------------------------
# monomial rules per basis, coefficient rules per kind, over field._render
# ---------------------------------------------------------------------------

def _power(one, many):
    """Monomial rule for an exponent m of one variable; None for m = 0."""
    return lambda m: None if m == 0 else (one if m == 1 else many % m)


def _factors(factor, sep, descending=False):
    """Monomial rule for ((generator, exponent), ...): factor(g, e) of each,
    joined by sep, generators ascending unless descending; None for ()."""
    return lambda mono: sep.join(factor(g, e) for g, e in sorted(mono, reverse=descending)) or None


def _latex_beta(k, e):
    base = r"[\lambda]_{q}" if k == 1 else r"[\lambda]_{q^{%d}}" % k
    return base if e == 1 else base + "^{%d}" % e


# SparsePoly.basis -> (text rule, LaTeX rule); a rule prints one monomial
_BASES = {
    "z": (_power("z", "z^%d"), _power("z", "z^{%d}")),
    "cos": (_power("cos(theta)", "cos(%d*theta)"), _power(r"\cos\theta", r"\cos %d\theta")),
    "b_k": (_factors(lambda k, e: f"b{k}" if e == 1 else f"b{k}^{e}", "*"),
            _factors(_latex_beta, r"\,")),
    "lambda": (_factors(lambda _, e: "lambda" if e == 1 else f"lambda^{e}", "*"),
               _factors(lambda _, e: r"\lambda" if e == 1 else r"\lambda^{%d}" % e, r"\,")),
    "C_m": (_factors(lambda m, e: f"C{m}" if e == 1 else f"C{m}^{e}", "*", descending=True),
            _factors(lambda m, e: "C_{%d}(z)" % m if e == 1 else "C_{%d}^{%d}(z)" % (m, e),
                     r"\,", descending=True)),
}


def _signed(text, left="(", right=")"):
    """A rendered coefficient as (text, negative): a composite goes in
    parentheses, a bare leading minus is lifted out."""
    if " + " in text or " - " in text:
        return left + text + right, False
    if text.startswith("-"):
        return text[1:], True
    return text, False


def _latex_fraction(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return r"\frac{%d}{%d}" % (fr.numerator, fr.denominator)


_text_number = _number()
_latex_number = _number(_latex_fraction)


def _text_coeff(c):
    """A RationalFunction, a nested SparsePoly or a number, in text."""
    if isinstance(c, RationalFunction):
        return _signed(format_rational(c))
    if isinstance(c, SparsePoly):
        return _signed(text(c))
    return _text_number(c)


def _latex_coeff(c):
    """A RationalFunction, a nested SparsePoly or a number, in LaTeX."""
    if isinstance(c, RationalFunction):
        out = latex_rational(c)
        return (out, False) if out.startswith(r"\frac") else _signed(out, r"\left(", r"\right)")
    if isinstance(c, SparsePoly):
        return _signed(latex(c), r"\left(", r"\right)")
    return _latex_number(c)


def text(poly):
    """Any SparsePoly in text, highest monomial first."""
    return _render(poly.sorted_terms(), _text_coeff, _BASES[poly.basis][0], "*")


def latex(poly):
    """Any SparsePoly in LaTeX, highest monomial first."""
    return _render(poly.sorted_terms(), _latex_coeff, _BASES[poly.basis][1], r"\,")


def latex_rational(r):
    """Monomial denominators with unit coefficient fold into negative
    exponents (so 1/s**45 renders as q^{-45/2}); otherwise \\frac."""
    return _rational_text(r, _LATEX_STYLE)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

# the classes with a JSON schema, by basis
_JSON_CLASSES = {cls.basis: cls for cls in (ZPolynomial, CosPolynomial)}


def polynomial_json_dict(poly, family, n, k=None, total_check=None):
    basis = getattr(poly, "basis", None)
    if _JSON_CLASSES.get(basis) is not type(poly):
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
            entry_basis, degree = entry["basis"], entry["degree_or_m"]
            num, den = parse_poly(entry["num"]), parse_poly(entry["den"])
        except (KeyError, TypeError, AttributeError):
            raise ParseError(f"malformed coefficient entry {entry!r}") from None
        if basis is None:
            basis = entry_basis
        if entry_basis != basis:
            raise ParseError(f"an entry in basis {entry_basis!r} in a {basis!r} polynomial")
        if type(degree) is not int or degree < 0:
            raise ParseError(f"degree_or_m must be an integer >= 0, got {degree!r}")
        if degree in coeffs:
            raise ParseError(f"degree_or_m {degree} appears twice")
        if den.is_zero():
            raise ParseError("zero denominator")
        coeffs[degree] = RationalFunction(num, den)
    if basis is None:
        basis = "z"  # no basis anywhere: an empty document reads as a zero in z
    if type(basis) is not str or basis not in _JSON_CLASSES:
        raise ParseError(f"unknown basis {basis!r}")
    meta = {key: doc[key] for key in ("family", "n", "k", "total_check") if key in doc}
    return _JSON_CLASSES[basis](coeffs), meta
