"""Exact rationals as pairs of ints.

A Ratio is (numerator, denominator) in lowest terms with a positive
denominator: the normal form a `Fraction` keeps, and the one
`ExactMatrix` keeps for its single denominator.  Normal forms make equal
values equal pairs, so a Ratio compares and hashes as its value does,
and it prints as `Fraction` prints (``"3"``, ``"-5/4"``).

The engine makes and returns rationals in this form only: job-file
tokens, echelon rows divided by their lead, the torus frame's stand-in
for alpha, the witness intervals and the Sturm root brackets.  Library
inputs may still be ints or Fractions: `as_ratio` reads those through
their numerator and denominator, so no job process loads a rational
type it does not need.
"""

from __future__ import annotations

from math import gcd

Ratio = tuple[int, int]


def ratio(num: int, den: int = 1) -> Ratio:
    """num / den in lowest terms with a positive denominator; a zero den
    raises ZeroDivisionError."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def as_ratio(x) -> Ratio:
    """x as a Ratio: a (numerator, denominator) pair is normalised, and
    an int or a Fraction is read through its numerator and denominator,
    which are in lowest terms already.  Anything else, a float included,
    raises TypeError: an exact value cannot be read off it."""
    if isinstance(x, tuple):
        return ratio(*x)
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError("%r is not an exact rational: give an int, a "
                        "Fraction or a (numerator, denominator) pair"
                        % (x,)) from None


def parse_ratio(token: str) -> Ratio:
    """The Ratio of an integer token or an 'a/b' token, both validated
    by the caller; a zero b raises ZeroDivisionError."""
    num, _, den = token.partition("/")
    return ratio(int(num), int(den) if den else 1)


def ratio_str(r: Ratio) -> str:
    """r as a Fraction of the same value prints: '3', '-5/4'."""
    num, den = r
    return str(num) if den == 1 else "%d/%d" % (num, den)
