"""The (numerator, denominator) pairs of quotientcoh.ratio agree with
Fraction: parsing a token, normalising a pair and printing one give what
Fraction gives, on negative, zero, reducible and integer values, and a
zero denominator keeps its message at every place a job file names a
rational."""

from __future__ import annotations

from fractions import Fraction

import pytest

from quotientcoh import (ExtScalar, LieAlgebra, ValidationError,
                         parse_ext_scalar)
from quotientcoh.config import parse_config
from quotientcoh.ratio import as_ratio, parse_ratio, ratio, ratio_str

TOKENS = (
    [str(n) for n in range(-7, 8)]
    + ["%d/%d" % (n, d) for n in range(-12, 13) for d in range(1, 9)]
    + ["0/5", "2/4", "-6/3", "10/1", "-0", "-0/3", "007/014",
       "123456789/987654321", "-%d/%d" % (2 ** 70, 6 ** 30)]
)


@pytest.mark.parametrize("token", ["2/4", "-6/3", "0/5", "3/1", "-5/4"])
def test_a_token_parses_and_prints_as_fraction_does(token):
    assert parse_ratio(token) == Fraction(token).as_integer_ratio()
    assert ratio_str(parse_ratio(token)) == str(Fraction(token))


def test_the_token_grid_agrees_with_fraction():
    for token in TOKENS:
        exact = Fraction(token)
        assert parse_ratio(token) == exact.as_integer_ratio(), token
        assert ratio_str(parse_ratio(token)) == str(exact), token


def test_job_file_tokens_agree_with_fraction():
    # the lie parser reads ideal and bracket tokens, and config's
    # parse_ext_scalar the rational and the alpha part of a torus entry
    for token in TOKENS:
        exact = Fraction(token).as_integer_ratio()
        job = parse_config("[lie]\ndim = 3\nbracket = 0 1 2 1\n"
                           "ideal = 0,%s,1\n" % token)
        # the ideal's one primitive row is (0, a, b) for a/b the token
        (row,) = job.job.ideal.basis
        assert Fraction(dict(row).get(1, 0), dict(row)[2]
                        ).as_integer_ratio() == exact, token
        assert parse_ext_scalar(token).rat == exact, token
        if not token.startswith("-"):
            negated = Fraction("-" + token.lstrip("-")).as_integer_ratio()
            assert parse_ext_scalar("1-%s*alpha" % token).irr == negated
            assert parse_ext_scalar("1+%s*alpha" % token).irr == exact


def test_pairs_normalise_as_fraction_does():
    for n in range(-12, 13):
        for d in list(range(-8, 0)) + list(range(1, 9)):
            exact = Fraction(n, d)
            assert ratio(n, d) == exact.as_integer_ratio(), (n, d)
            assert as_ratio((n, d)) == ratio(n, d)
            assert as_ratio(exact) == ratio(n, d)
            assert ratio_str(ratio(n, d)) == str(exact)
        assert as_ratio(n) == (n, 1) == ratio(n)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)
    with pytest.raises(ZeroDivisionError):
        parse_ratio("3/0")


def test_a_float_is_refused_where_a_rational_is_read():
    # Fraction(0.5) would read the float exactly; the engine's inputs
    # are exact, so a float is refused by name
    for build in (as_ratio, ExtScalar,
                  lambda x: LieAlgebra.from_brackets(2, {(0, 1, 1): x})):
        with pytest.raises(TypeError, match="0.5 is not an exact rational"):
            build(0.5)


@pytest.mark.parametrize("job, key, token", [
    ("[lie]\ndim = 3\nbracket = 0 1 2 3/0\n", "bracket", "3/0"),
    ("[lie]\ndim = 3\nideal = 3/0,0,0\n", "ideal", "3/0"),
    ("[torus]\nn = 2\nfoliation = 3/0,1\n", "foliation", "3/0"),
    ("[torus]\nn = 2\nfoliation = 1,1+3/0*alpha\n", "foliation",
     "1+3/0*alpha"),
], ids=["bracket", "ideal", "foliation", "alpha"])
def test_a_zero_denominator_keeps_its_message(job, key, token):
    with pytest.raises(ValidationError) as caught:
        parse_config(job)
    message = "zero denominator in %r" % token
    assert str(caught.value) == "key %r: %s" % (key, message)
    if key == "foliation":
        with pytest.raises(ValueError) as caught:
            parse_ext_scalar(token)
        assert str(caught.value) == message
