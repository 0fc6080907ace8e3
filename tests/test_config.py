from __future__ import annotations

from fractions import Fraction

import pytest

from quotientcoh import ExtScalar, LieAlgebra, ParseError, ValidationError
from quotientcoh.config import MAX_GRID_POINTS, parse_config

EXAMPLE_TORUS = """
# axis foliation with a dense invariance direction
[torus]
n = 3
foliation = 1,0,0
invariance = 1
truncation = 3

[output]
format = json
"""


def test_parse_example_torus():
    cfg = parse_config(EXAMPLE_TORUS)
    assert cfg.mode == "torus"
    spec = cfg.torus
    assert spec.n == 3
    assert spec.foliation_dirs == ((ExtScalar(1), ExtScalar(0), ExtScalar(0)),)
    assert spec.invariance_coords == frozenset({1})
    assert spec.truncation == 3
    assert cfg.output.format == "json"
    assert cfg.output.path is None


def test_parse_alpha_entries():
    cfg = parse_config(
        "[torus]\nn = 2\nfoliation = 1,1+1*alpha\n"
    )
    assert cfg.torus.foliation_dirs[0][1] == ExtScalar(1, 1)
    cfg2 = parse_config(
        "[torus]\nn = 2\nfoliation = -1/2,2-3/4*alpha\n"
    )
    assert cfg2.torus.foliation_dirs[0][0] == ExtScalar(Fraction(-1, 2))
    assert cfg2.torus.foliation_dirs[0][1] == ExtScalar(2, Fraction(-3, 4))


def test_parse_lie_job():
    cfg = parse_config(
        "[lie]\ndim = 3\nbracket = 0 1 2 1\nideal = 0,0,1\n"
    )
    assert cfg.mode == "lie"
    assert cfg.lie.algebra == LieAlgebra.from_brackets(3, {(0, 1, 2): 1})
    assert tuple(tuple(Fraction(*x) for x in v)
                 for v in cfg.lie.ideal_vectors) == (
        (Fraction(0), Fraction(0), Fraction(1)),)


def test_parse_witness_job_defaults():
    cfg = parse_config("[witness]\nk_min = 2\nk_max = 8\n")
    assert cfg.witness.k_min == 2
    assert cfg.witness.k_max == 8
    assert cfg.witness.max_derivative_order == 4
    assert cfg.witness.samples_per_interval == 10001


def test_bracket_on_the_diagonal_is_rejected():
    with pytest.raises(ValidationError, match="antisymmetry"):
        parse_config("[lie]\ndim = 2\nbracket = 0 0 1 1\n")
    # an explicit zero on the diagonal is harmless
    cfg = parse_config("[lie]\ndim = 2\nbracket = 0 0 1 0\n")
    assert cfg.lie.algebra == LieAlgebra.from_brackets(2, {})


def test_conflicting_brackets_are_rejected():
    # a mirrored pair that is not antisymmetric, or one key given twice
    for second in ("1 0 2 1", "0 1 2 2"):
        with pytest.raises(ValidationError, match="conflicting"):
            parse_config(
                "[lie]\ndim = 3\nbracket = 0 1 2 1\nbracket = %s\n"
                % second
            )
    # consistent mirror entries are fine
    cfg = parse_config(
        "[lie]\ndim = 3\nbracket = 0 1 2 1\nbracket = 1 0 2 -1\n"
    )
    assert cfg.lie.algebra == LieAlgebra.from_brackets(3, {(0, 1, 2): 1})


def test_decimal_literals_are_rejected_everywhere():
    with pytest.raises(ValidationError, match="decimal"):
        parse_config("[torus]\nn = 2\nfoliation = 0.5,1\n")
    with pytest.raises(ValidationError, match="decimal"):
        parse_config("[lie]\ndim = 2\nbracket = 0 1 1 0.5\n")
    with pytest.raises(ValidationError, match="decimal"):
        parse_config("[torus]\nn = 2\ntruncation = 1.5\n")


@pytest.mark.parametrize("job", [
    "[lie]\ndim = 3\nbracket = 0 1 2 -.5\n",
    "[lie]\ndim = 3\nbracket = 0 1 2 1\nideal = 0,0,-.5\n",
    "[lie]\ndim = 3\nbracket = 0 1 2 -.5/2\n",
    "[torus]\nn = 2\nfoliation = -.5,1\n",
], ids=["bracket", "ideal", "fraction", "foliation"])
def test_signed_point_decimals_get_the_decimal_message(job):
    # -.5 has no digit before its point; config and parse_ext_scalar
    # share one pattern for decimal literals
    with pytest.raises(ValidationError, match="decimal literal '-.5"):
        parse_config(job)


@pytest.mark.parametrize("job", [
    "[lie]\ndim = 3\nbracket = 0 1 2 1/0\n",
    "[lie]\ndim = 3\nideal = 1/0,0,0\n",
    "[torus]\nn = 2\nfoliation = 1/0,1\n",
    "[torus]\nn = 2\nfoliation = 1,1+1/0*alpha\n",
], ids=["bracket", "ideal", "foliation", "alpha"])
def test_zero_denominators_are_rejected_everywhere(job):
    with pytest.raises(ValidationError, match="zero denominator"):
        parse_config(job)


def test_unknown_sections_and_keys():
    with pytest.raises(ParseError, match="unknown section"):
        parse_config("[leaf]\nn = 2\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("[torus]\nn = 2\nslope = 3\n")
    with pytest.raises(ParseError, match="before any"):
        parse_config("n = 2\n")
    with pytest.raises(ParseError, match="expected"):
        parse_config("[torus]\nnted\n")


def test_duplicate_scalar_keys_are_rejected():
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config("[torus]\nn = 2\nn = 3\n")
    with pytest.raises(ParseError, match="duplicate section"):
        parse_config("[torus]\nn = 2\n[torus]\nn = 2\n")


def test_exactly_one_mode_section():
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config("[output]\nformat = json\n")
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(
            "[torus]\nn = 2\n\n[lie]\ndim = 2\n"
        )


def test_vector_length_mismatches():
    with pytest.raises(ValidationError, match="entries"):
        parse_config("[torus]\nn = 3\nfoliation = 1,0\n")
    with pytest.raises(ValidationError, match="entries"):
        parse_config("[lie]\ndim = 3\nideal = 1,0\n")


def test_range_validation():
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 0\n")
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 2\ninvariance = 5\n")
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 2\ntruncation = -1\n")
    with pytest.raises(ValidationError):
        parse_config("[lie]\ndim = 3\nbracket = 0 1 5 1\n")
    with pytest.raises(ValidationError):
        parse_config("[witness]\nk_min = 0\nk_max = 3\n")
    with pytest.raises(ValidationError, match="two levels"):
        parse_config("[witness]\nk_min = 3\nk_max = 3\n")
    with pytest.raises(ValidationError):
        parse_config("[output]\nformat = yaml\n[torus]\nn = 2\n")


def test_derivative_order_is_capped_at_16():
    job = "[witness]\nk_min = 2\nk_max = 3\nmax_derivative_order = %d\n"
    assert parse_config(job % 16).witness.max_derivative_order == 16
    for order in (17, 18, 152, 160):
        with pytest.raises(ValidationError, match="at most 16"):
            parse_config(job % order)


def test_witness_grid_is_capped_at_two_million_points():
    # samples_per_interval times the number of levels; only parsed here,
    # the job at the cap is never run
    job = "[witness]\nk_min = 2\nk_max = 3\nsamples_per_interval = %d\n"
    assert MAX_GRID_POINTS == 2_000_000
    at_cap = parse_config(job % 1_000_000).witness
    assert at_cap.samples_per_interval * 2 == MAX_GRID_POINTS
    with pytest.raises(ValidationError, match="make 2000002 grid points"):
        parse_config(job % 1_000_001)


def test_missing_required_keys():
    for text, key, section in (
            ("[torus]\ntruncation = 2\n", "n", "torus"),
            ("[lie]\nbracket = 0 1 2 1\n", "dim", "lie"),
            ("[witness]\nk_max = 3\n", "k_min", "witness"),
            ("[witness]\nk_min = 2\n", "k_max", "witness")):
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert (info.value.key, info.value.reason) == (
            key, "missing required key in [%s]" % section)
        assert str(info.value) == (
            "key %r: missing required key in [%s]" % (key, section))


def test_parse_error_carries_line_numbers():
    try:
        parse_config("[torus]\nn = 2\nslope = 3\n")
    except ParseError as exc:
        assert exc.line_no == 3
        assert exc.key == "slope"
    else:
        pytest.fail("expected a ParseError")


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config(
        "# leading comment\n\n[torus]\nn = 2  # trailing\n\n# done\n"
    )
    assert cfg.torus.n == 2
