"""Text, LaTeX and JSON rendering for engine outputs, plus the JSON parser.

Conventions (shared with field.format_*):

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

from .field import ParseError, RationalFunction, format_poly, format_rational, parse_poly
from .families import CosPolynomial, ZPolynomial


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------

def _is_composite(text):
    return " + " in text or " - " in text


def _coeff_and_sign(rf):
    """Render a coefficient; returns (text, negative) with a bare leading
    sign lifted out of single-term renderings."""
    text = format_rational(rf)
    if _is_composite(text):
        return f"({text})", False
    if text.startswith("-"):
        return text[1:], True
    return text, False


def _text_basis_poly(items, basis_fn):
    """items: [(index, RationalFunction)] descending; basis_fn(index) -> str or None."""
    if not items:
        return "0"
    chunks = []
    for i, (k, rf) in enumerate(items):
        coeff, negative = _coeff_and_sign(rf)
        basis = basis_fn(k)
        if basis is None:
            body = coeff
        elif coeff == "1":
            body = basis
        else:
            body = f"{coeff}*{basis}"
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def text_zpoly(poly):
    items = sorted(poly.items(), reverse=True)
    return _text_basis_poly(items, lambda d: None if d == 0 else ("z" if d == 1 else f"z^{d}"))


def text_cospoly(poly):
    items = sorted(poly.items(), reverse=True)
    return _text_basis_poly(
        items, lambda m: None if m == 0 else ("cos(theta)" if m == 1 else f"cos({m}*theta)"))


def _text_abstract(poly, gen_fn):
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for i, (mono, c) in enumerate(terms):
        factors = [gen_fn(g, e) for g, e in mono]
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        negative = c < 0
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def text_beta(poly):
    return _text_abstract(poly, lambda k, e: f"b{k}" if e == 1 else f"b{k}^{e}")


def text_lambda_poly(poly):
    return _text_abstract(poly, lambda _g, e: "lambda" if e == 1 else f"lambda^{e}")


def text_cmono(mono):
    if not mono:
        return "1"
    return "*".join(f"C{m}^{e}" if e > 1 else f"C{m}" for m, e in sorted(mono, reverse=True))


def text_cpoly(poly, coeff_text=None):
    """CPolynomial text; coefficient ring rendered by coeff_text (default:
    beta text for BetaPolynomial, fractions otherwise)."""
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    if coeff_text is None:
        coeff_text = _default_coeff_text
    chunks = []
    for i, (mono, c) in enumerate(terms):
        text, negative = coeff_text(c)
        mono_text = text_cmono(mono)
        if mono_text == "1":
            body = text
        elif text == "1":
            body = mono_text
        else:
            body = f"{text}*{mono_text}"
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def _default_coeff_text(c):
    from .connection import BetaPolynomial, LambdaPolynomial
    if isinstance(c, BetaPolynomial):
        text = text_beta(c)
    elif isinstance(c, LambdaPolynomial):
        text = text_lambda_poly(c)
    else:
        text = str(c)
    if _is_composite(text):
        return f"({text})", False
    if text.startswith("-"):
        return text[1:], True
    return text, False


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def _latex_q_power(exp_s):
    if exp_s % 2 == 0:
        half = exp_s // 2
        return "q" if half == 1 else "q^{%d}" % half
    return "q^{%d/2}" % exp_s


def _latex_lam_power(exp_lam):
    if exp_lam == 1:
        return r"q^{\lambda}"
    return r"q^{%d\lambda}" % exp_lam


def _latex_poly_terms(terms):
    chunks = []
    for i, ((es, el), c) in enumerate(terms):
        factors = []
        if es:
            factors.append(_latex_q_power(es))
        if el:
            factors.append(_latex_lam_power(el))
        if not factors:
            body = str(abs(c))
        else:
            body = r"\,".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}\\," + body
        negative = c < 0
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def latex_poly(p):
    if p.is_zero():
        return "0"
    return _latex_poly_terms(p.sorted_terms())


def latex_rational(r):
    """Monomial denominators with unit coefficient fold into negative
    exponents (so 1/s**45 renders as q^{-45/2}); otherwise \\frac."""
    if r.den.is_one():
        return latex_poly(r.num)
    if r.den.is_monomial() and r.den.leading_coeff() == 1:
        (ds, dl), _ = r.den.sorted_terms()[0]
        shifted = [((k[0] - ds, k[1] - dl), c) for k, c in r.num.sorted_terms()]
        return _latex_poly_terms(shifted)
    return r"\frac{%s}{%s}" % (latex_poly(r.num), latex_poly(r.den))


def _latex_basis_poly(items, basis_fn):
    if not items:
        return "0"
    chunks = []
    for i, (k, rf) in enumerate(items):
        text = latex_rational(rf)
        negative = False
        if text.startswith(r"\frac"):
            pass  # already grouped
        elif " + " in text or " - " in text:
            text = r"\left(" + text + r"\right)"
        elif text.startswith("-"):
            text, negative = text[1:], True
        basis = basis_fn(k)
        if basis is None:
            body = text
        elif text == "1":
            body = basis
        else:
            body = f"{text}\\,{basis}"
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def latex_zpoly(poly):
    items = sorted(poly.items(), reverse=True)
    return _latex_basis_poly(items, lambda d: None if d == 0 else ("z" if d == 1 else "z^{%d}" % d))


def latex_cospoly(poly):
    items = sorted(poly.items(), reverse=True)
    return _latex_basis_poly(
        items, lambda m: None if m == 0 else (r"\cos\theta" if m == 1 else r"\cos %d\theta" % m))


def latex_beta_gen(k, e=1):
    base = r"[\lambda]_{q}" if k == 1 else r"[\lambda]_{q^{%d}}" % k
    if e == 1:
        return base
    return base + "^{%d}" % e


def latex_beta(poly):
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for i, (mono, c) in enumerate(terms):
        factors = [latex_beta_gen(k, e) for k, e in mono]
        if not factors:
            body = _latex_fraction(abs(c))
        else:
            body = r"\,".join(factors)
            if abs(c) != 1:
                body = _latex_fraction(abs(c)) + r"\," + body
        negative = c < 0
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


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
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for i, (mono, c) in enumerate(terms):
        text = latex_beta(c) if hasattr(c, "sorted_terms") else _latex_fraction(c)
        negative = False
        if " + " in text or " - " in text:
            text = r"\left(" + text + r"\right)"
        elif text.startswith("-"):
            text, negative = text[1:], True
        mono_text = latex_cmono(mono)
        if mono_text == "1":
            body = text
        elif text == "1":
            body = mono_text
        else:
            body = text + r"\," + mono_text
        if i == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


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
        for d, rf in sorted(poly.items(), reverse=True)
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
