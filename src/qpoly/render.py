"""Text, LaTeX and JSON rendering for every value, plus the JSON parser.

text() and latex() print any IntPoly, RationalFunction or SparsePoly through
one emitter and one style record per format.  A value prints as a signed sum
of (monomial, coefficient) terms, highest first.  _BASES maps the monomial
kind (a SparsePoly's basis, "q" for IntPoly) to a text and a LaTeX rule for
one monomial; a coefficient prints by its kind: an integer of an IntPoly, a
RationalFunction, a nested SparsePoly (in parentheses when it has several
terms) or a number.

Conventions:

  * s is never shown; everything prints in q and q^{1/2};
  * a RationalFunction whose denominator is one monomial with coefficient 1
    folds it into negative exponents (1/s**45 prints as q^{-45/2}); any
    other prints as the style's fraction, (num)/(den) or \\frac{num}{den};
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
from collections import namedtuple
from fractions import Fraction

from .field import IntPoly, ParseError, RationalFunction, parse_poly
from .families import CosPolynomial, SparsePoly, ZPolynomial


# ---------------------------------------------------------------------------
# monomial rules per kind, one style per format, one emitter
# ---------------------------------------------------------------------------

def _power(one, many):
    """Monomial rule for an exponent m of one variable; None for m = 0."""
    return lambda m: None if m == 0 else (one if m == 1 else many % m)


def _factors(factor, sep, descending=False):
    """Monomial rule for ((generator, exponent), ...): factor(g, e) of each,
    joined by sep, generators ascending unless descending; None for ()."""
    return lambda mono: sep.join(factor(g, e) for g, e in sorted(mono, reverse=descending)) or None


def _q_power(sep, lam, lam_inverse, lam_many):
    """Monomial rule for s**exp_s * Lambda**exp_lam, key (exp_s, exp_lam);
    an odd exp_s prints as a half-integer power of q, and Lambda**1 and
    Lambda**-1 as lam and lam_inverse."""
    def rule(key):
        exp_s, exp_lam = key
        factors = []
        if exp_s % 2:
            factors.append("q^{%d/2}" % exp_s)
        elif exp_s:
            factors.append("q" if exp_s == 2 else "q^{%d}" % (exp_s // 2))
        if exp_lam:
            factors.append({1: lam, -1: lam_inverse}.get(exp_lam) or lam_many % exp_lam)
        return sep.join(factors) or None
    return rule


def _latex_beta(k, e):
    base = r"[\lambda]_{q}" if k == 1 else r"[\lambda]_{q^{%d}}" % k
    return base if e == 1 else base + "^{%d}" % e


# monomial kind -> (text rule, LaTeX rule); a rule prints one monomial
_BASES = {
    "q": (_q_power("*", "lam", "lam^{-1}", "lam^{%d}"),
          _q_power(r"\,", r"q^{\lambda}", r"q^{-\lambda}", r"q^{%d\lambda}")),
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


def _latex_fraction(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return r"\frac{%d}{%d}" % (fr.numerator, fr.denominator)


# A format: the separator between a coefficient and its monomial, the
# fraction of two polynomials, the magnitude of a number, the parentheses
# around a composite coefficient and the index of its rule in _BASES.
_Style = namedtuple("_Style", "sep fraction number left right rule")
_TEXT = _Style("*", "(%s)/(%s)", str, "(", ")", 0)
_LATEX = _Style(r"\,", r"\frac{%s}{%s}", _latex_fraction, r"\left(", r"\right)", 1)


def _coeff(c, style):
    """A coefficient as (text, negative): a number by magnitude and sign; a
    polynomial or rational function in parentheses when composite, else with
    a leading minus lifted out, but a LaTeX fraction of two polynomials
    stands bare."""
    if type(c) is int:  # every IntPoly coefficient: no Fraction formatting
        return str(abs(c)), c < 0
    if not isinstance(c, (RationalFunction, SparsePoly)):
        return style.number(abs(c)), c < 0
    out = _emit(c, style)
    if " + " in out or " - " in out:
        if isinstance(c, RationalFunction) and out.startswith(r"\frac"):
            return out, False
        return style.left + out + style.right, False
    if out.startswith("-"):
        return out[1:], True
    return out, False


def _layout(terms, basis, style):
    """Signed sum of (monomial, coefficient) terms, "0" for none: the one term
    layout.  basis(m) gives the monomial text, None for the unit.  A
    coefficient "1" in front of a monomial is dropped."""
    out = []
    for m, c in terms:
        text, negative = _coeff(c, style)
        mono = basis(m)
        if mono is not None:
            text = mono if text == "1" else text + style.sep + mono
        if out:
            out.append((" - " if negative else " + ") + text)
        else:
            out.append("-" + text if negative else text)
    return "".join(out) or "0"


def _emit(x, style):
    """An IntPoly, a RationalFunction or a SparsePoly in a style."""
    if isinstance(x, SparsePoly):
        return _layout(x.sorted_terms(), _BASES[x.basis][style.rule], style)
    if isinstance(x, IntPoly):
        terms = x.sorted_terms()
    elif x.den.is_monomial() and x.den.leading_coeff() == 1:
        (ds, dl), _ = x.den.sorted_terms()[0]
        terms = [((es - ds, el - dl), c) for (es, el), c in x.num.sorted_terms()]
    else:
        return style.fraction % (_emit(x.num, style), _emit(x.den, style))
    return _layout(terms, _BASES["q"][style.rule], style)


def text(x):
    """Any IntPoly, RationalFunction or SparsePoly in text."""
    return _emit(x, _TEXT)


def latex(x):
    """Any IntPoly, RationalFunction or SparsePoly in LaTeX."""
    return _emit(x, _LATEX)


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
         "num": _emit(rf.num, _TEXT), "den": _emit(rf.den, _TEXT)}
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
    if not isinstance(doc, dict) or not isinstance(doc.get("coefficients"), list):
        raise ParseError("expected an object with a list of coefficients")
    basis = doc.get("basis")
    if type(basis) is not str or basis not in _JSON_CLASSES:
        raise ParseError(f"unknown basis {basis!r}")
    coeffs = {}
    for entry in doc["coefficients"]:
        try:
            entry_basis, degree = entry["basis"], entry["degree_or_m"]
            num, den = parse_poly(entry["num"]), parse_poly(entry["den"])
        except (KeyError, TypeError, AttributeError):
            raise ParseError(f"malformed coefficient entry {entry!r}") from None
        if entry_basis != basis:
            raise ParseError(f"an entry in basis {entry_basis!r} in a {basis!r} polynomial")
        if type(degree) is not int or degree < 0:
            raise ParseError(f"degree_or_m must be an integer >= 0, got {degree!r}")
        if degree in coeffs:
            raise ParseError(f"degree_or_m {degree} appears twice")
        if den.is_zero():
            raise ParseError("zero denominator")
        coeffs[degree] = RationalFunction(num, den)
    meta = {key: doc[key] for key in ("family", "n", "k", "total_check") if key in doc}
    return _JSON_CLASSES[basis](coeffs), meta
