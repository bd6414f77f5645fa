"""Seeded fuzzing of the text and JSON parsers.

Random values must survive rendering and parsing exactly, and random
character edits of valid text must parse to a value or raise ParseError,
never any other exception.
"""

import json
import random

import pytest

from qpoly.families import CosPolynomial, ZPolynomial
from qpoly.field import IntPoly, ParseError, RationalFunction as RF, parse_rational
from qpoly.render import parse_polynomial_json, polynomial_json_dict

# characters the two formats are made of, plus a few that they never use
_ALPHABET = "0123456789q^{}()/*+- lam\"[]:,.bsz\\\n"


def _random_intpoly(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        es = rng.randint(0, 40)
        el = rng.randint(0, 3) if rng.random() < 0.4 else 0
        bits = rng.choice((3, 10, 70))
        terms[(es, el)] = rng.randint(-2**bits, 2**bits)
    return IntPoly(terms)


def _random_rf(rng):
    num = _random_intpoly(rng)
    if rng.random() < 0.3:  # a monomial denominator prints as a Laurent sum
        return RF(num, IntPoly.monomial(1, rng.randint(0, 41), rng.randint(0, 2)))
    den = _random_intpoly(rng)
    while den.is_zero():
        den = _random_intpoly(rng)
    return RF(num, den)


def _random_sparse(rng, cls):
    return cls({rng.randint(0, 12): _random_rf(rng) for _ in range(rng.randint(0, 5))})


def _edit(rng, text):
    """One to three random deletions, insertions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert" or not chars:
            chars.insert(i, rng.choice(_ALPHABET))
        elif op == "delete":
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(_ALPHABET)
    return "".join(chars)


def test_rational_text_round_trip_fuzz():
    rng = random.Random(2024)
    for case in range(300):
        f = _random_rf(rng)
        assert parse_rational(str(f)) == f, f"case {case}: {f}"


@pytest.mark.parametrize("cls", [ZPolynomial, CosPolynomial])
def test_polynomial_json_round_trip_fuzz(cls):
    rng = random.Random(2025)
    for case in range(60):
        poly = _random_sparse(rng, cls)
        text = json.dumps(polynomial_json_dict(poly, "fuzz", 4, k=1, total_check=False), indent=2)
        parsed, _ = parse_polynomial_json(text)
        assert type(parsed) is cls and parsed == poly, f"case {case}"


def _rational_text(rng):
    return str(_random_rf(rng))


def _json_text(rng):
    poly = _random_sparse(rng, rng.choice((ZPolynomial, CosPolynomial)))
    return json.dumps(polynomial_json_dict(poly, "fuzz", 2), indent=2)


def _is_rf(value):
    return isinstance(value, RF)


def _is_polynomial_and_meta(value):
    return isinstance(value[0], (ZPolynomial, CosPolynomial)) and isinstance(value[1], dict)


def _edit_fuzz_failures(parse, make_text, valid, seed, count):
    """The texts, of count random edits of make_text(rng) texts, on which parse
    raises anything other than ParseError or returns a value that is not valid."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        text = _edit(rng, make_text(rng))
        try:
            if valid(parse(text)):
                continue
        except ParseError:
            continue
        except Exception:  # noqa: BLE001 - any other exception is a failure
            pass
        failures.append(text)
    return failures


def test_edited_rational_text_parses_or_raises_parse_error():
    assert _edit_fuzz_failures(parse_rational, _rational_text, _is_rf, 2026, 2000) == []


def test_edited_polynomial_json_parses_or_raises_parse_error():
    assert _edit_fuzz_failures(parse_polynomial_json, _json_text, _is_polynomial_and_meta, 2027, 600) == []
