"""Exact rational helpers.

Every quantity in this library is an integer or a ``fractions.Fraction``;
floats never appear. ``None`` is the conventional marker for +infinity in
interval endpoints. These helpers give rationals a stable wire format:
``"num/den"`` with the denominator omitted when it is 1, so integers stay
JSON numbers and nothing ever round-trips through binary floating point.

``None`` also means "absent", so these helpers leave it as null. The CLI
turns a result record into its report dict with ``cli._wire``, which writes
it as "inf" in the fields that hold an unbounded endpoint:
``AlphaInterval.hi``, ``Thresholds.alpha_M`` and ``MWReport.alpha_M``,
each None exactly when its ranks are equal. The CLI's report writers
(``cli.write_json``, ``cli.write_text``) print each value in the form it
maps to here; they call ``jsonable`` only for a dict that the text
writer puts on one line.

The library builds the rationals it computes itself with ``_ratio(n, d)``:
an int n and an int d > 0, reduced by one gcd and stored straight into
the two slots Fraction keeps, ``_numerator`` and ``_denominator`` (as
``Fraction.__new__`` does on 3.10 and 3.11, and
``Fraction._from_coprime_ints`` from 3.12). That skips the type dispatch
of ``Fraction(n, d)``: about 0.19 against 0.46 us per value on CPython
3.11.7. A d that is not positive would build an invalid Fraction (from
-1 and -2, one with denominator -2 that compares unequal to 1/2), so a
caller whose denominator can be negative flips both signs first
(``walls.wall_alpha``).
Values from the caller keep ``Fraction(...)``: ``parse_rat`` (a zero
denominator must raise), ``rat_str``, and the conversions of an alpha,
interval or cutoff argument.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import require_rational

Rational = Fraction

_new = object.__new__


def _ratio(n: int, d: int) -> Fraction:
    """The Fraction n/d of an int n and an int d > 0, in lowest terms,
    without Fraction's type dispatch (see the module docstring)."""
    c = gcd(n, d)
    r = _new(Fraction)
    r._numerator = n // c
    r._denominator = d // c
    return r


def rat_str(x: Fraction | int) -> str:
    """Render exactly: ``5`` -> "5", ``Fraction(5, 2)`` -> "5/2".

    Anything but an int or a Fraction (a float, a bool, a string) raises
    DomainError, as Fraction() would take it inexactly or unparsed.
    """
    require_rational("x", x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


_WIRE_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rat(text: str) -> Fraction:
    """Parse "num/den" or "num". Raises ValueError on anything else.

    After stripping surrounding whitespace the text must match
    ``-?[0-9]+(/[0-9]+)?`` in full: ASCII digits, a sign only in front of
    the numerator, no inner spaces or underscores. This is the CLI wire
    format, not a general number parser, so "2.5", "1e3" and "1_000" are
    rejected. A zero denominator raises ZeroDivisionError.
    """
    s = text.strip()
    if not _WIRE_RAT.fullmatch(s):
        raise ValueError("not an exact rational N or N/D: %r" % (text,))
    num_s, _, den_s = s.partition("/")
    return Fraction(int(num_s), int(den_s or 1))


def jsonable(x):
    """Map a value to the JSON wire format.

    Fractions become ints when integral, "num/den" strings otherwise;
    ``None`` stays null (see the module docstring for "inf").
    """
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return rat_str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    raise TypeError("cannot serialize %r" % (type(x),))
