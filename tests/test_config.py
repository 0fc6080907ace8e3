from __future__ import annotations

from fractions import Fraction

import pytest

from quotientcoh import (
    ExtScalar, LieAlgebra, ParseError, TorusSpec, ValidationError)
from quotientcoh.cli import main
from quotientcoh.config import JobConfig, parse_config
from quotientcoh.lie_job import LieJob
from quotientcoh.witness_job import WitnessJob

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
    spec = cfg.job
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
    assert cfg.job.foliation_dirs[0][1] == ExtScalar(1, 1)
    cfg2 = parse_config(
        "[torus]\nn = 2\nfoliation = -1/2,2-3/4*alpha\n"
    )
    assert cfg2.job.foliation_dirs[0][0] == ExtScalar(Fraction(-1, 2))
    assert cfg2.job.foliation_dirs[0][1] == ExtScalar(2, Fraction(-3, 4))


def test_parse_lie_job():
    cfg = parse_config(
        "[lie]\ndim = 3\nbracket = 0 1 2 1\nideal = 0,0,1\n"
    )
    assert cfg.mode == "lie"
    assert cfg.job.algebra == LieAlgebra.from_brackets(3, {(0, 1, 2): 1})
    assert tuple(tuple(Fraction(*x) for x in v)
                 for v in cfg.job.ideal_vectors) == (
        (Fraction(0), Fraction(0), Fraction(1)),)


def test_parse_witness_job_defaults():
    cfg = parse_config("[witness]\nk_min = 2\nk_max = 8\n")
    assert cfg.job.k_min == 2
    assert cfg.job.k_max == 8
    assert cfg.job.max_derivative_order == 4
    assert cfg.job.samples_per_interval == 10001


def test_bracket_on_the_diagonal_is_rejected():
    with pytest.raises(ValidationError, match="antisymmetry"):
        parse_config("[lie]\ndim = 2\nbracket = 0 0 1 1\n")
    # an explicit zero on the diagonal is harmless
    cfg = parse_config("[lie]\ndim = 2\nbracket = 0 0 1 0\n")
    assert cfg.job.algebra == LieAlgebra.from_brackets(2, {})


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
    assert cfg.job.algebra == LieAlgebra.from_brackets(3, {(0, 1, 2): 1})


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
    # -.5 has no digit before its point; config's one pattern for
    # decimal literals serves every exact field, foliation entries too
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


# the rows of a shear of T^3 that fixes e_z (tests/test_automorphism.py)
SHEAR_ROWS = ("[torus]\nn = 3\nautomorphism = 2,1,0\nautomorphism = 1,1,0\n"
              "automorphism = 1,-1,1\n")


@pytest.mark.parametrize("job, key, reason", [
    ("[lie]\ndim = 2\nbracket = 0 1 1 1/x\n", "bracket",
     "cannot parse '1/x' as a fraction"),
    ("[lie]\ndim = 2\nbracket = 0 1 z 1\n", "bracket",
     "cannot parse 'z' as an integer"),
    ("[lie]\ndim = -1\n", "dim", "dimension must be nonnegative"),
    ("[lie]\ndim = 3\nbracket = 0 1 2\n", "bracket",
     "expected 'bracket = i j k value'"),
    ("[witness]\nk_min = 2\nk_max = 3\nmax_derivative_order = -1\n",
     "max_derivative_order", "must be nonnegative"),
    ("[witness]\nk_min = 2\nk_max = 3\nsamples_per_interval = 2\n",
     "samples_per_interval", "need at least 3 samples"),
    # one vector reader serves ideal and foliation, and one choice check
    # format and space (tests/test_space.py), each with its key's messages
    ("[lie]\ndim = 3\nideal = 1,0\n", "ideal",
     "ideal vector has 2 entries, expected dim = 3"),
    ("[lie]\ndim = 2\nideal = 1,x\n", "ideal",
     "cannot parse 'x' as a fraction"),
    ("[lie]\ndim = 2\nideal = 1,0.5\n", "ideal",
     "decimal literal '0.5' not allowed in an exact field; use an integer "
     "or a fraction like 1/2"),
    ("[lie]\ndim = 2\nideal = 1,1/0\n", "ideal",
     "zero denominator in '1/0'"),
    ("[torus]\nn = 3\nfoliation = 1,0\n", "foliation",
     "direction vector has 2 entries, expected n = 3"),
    ("[torus]\nn = 2\nfoliation = 1,x\n", "foliation",
     "cannot parse 'x' as an exact scalar (expected p or p+q*alpha with "
     "p, q rational)"),
    ("[torus]\nn = 2\nfoliation = 1,0.5\n", "foliation",
     "decimal literal '0.5' not allowed in an exact field; use an integer "
     "or a fraction like 3/10"),
    ("[torus]\nn = 2\nfoliation = 1,1/0\n", "foliation",
     "zero denominator in '1/0'"),
    # beside automorphism rows the directions are read by the same reader
    (SHEAR_ROWS + "foliation = 1,0\n", "foliation",
     "direction vector has 2 entries, expected n = 3"),
    (SHEAR_ROWS + "foliation = 0,0,x\n", "foliation",
     "cannot parse 'x' as an exact scalar (expected p or p+q*alpha with "
     "p, q rational)"),
    (SHEAR_ROWS + "foliation = 0,0,0.5\n", "foliation",
     "decimal literal '0.5' not allowed in an exact field; use an integer "
     "or a fraction like 3/10"),
    (SHEAR_ROWS + "foliation = 0,0,1/0\n", "foliation",
     "zero denominator in '1/0'"),
    # n is checked before any direction is read against it, as it is
    # before automorphism rows are (tests/test_automorphism.py)
    ("[torus]\nn = 0\nfoliation = 1\n", "torus",
     "torus dimension must be at least 1"),
    ("[torus]\nn = -1\nfoliation = 1\n", "torus",
     "torus dimension must be at least 1"),
    ("[output]\nformat = yaml\n[torus]\nn = 2\n", "format",
     "unknown format 'yaml'; expected one of table, json, csv"),
], ids=["fraction", "integer", "dim", "bracket-tokens", "order", "samples",
        "ideal-length", "ideal-token", "ideal-decimal", "ideal-zero-den",
        "foliation-length", "foliation-token", "foliation-decimal",
        "foliation-zero-den", "automorphism-foliation-length",
        "automorphism-foliation-token", "automorphism-foliation-decimal",
        "automorphism-foliation-zero-den", "n-zero-direction",
        "n-negative-direction", "format"])
def test_each_refusal_names_its_key_and_reason(job, key, reason):
    with pytest.raises((ParseError, ValidationError)) as info:
        parse_config(job)
    assert (info.value.key, info.value.reason) == (key, reason)


def test_derivative_order_is_capped_at_16():
    job = "[witness]\nk_min = 2\nk_max = 3\nmax_derivative_order = %d\n"
    assert parse_config(job % 16).job.max_derivative_order == 16
    for order in (17, 18, 152, 160):
        with pytest.raises(ValidationError, match="at most 16"):
            parse_config(job % order)


WITNESS_JOB = """\
[witness]
k_min = %d
k_max = %d
max_derivative_order = %d
samples_per_interval = %d
"""


def test_a_grid_of_a_hundred_million_samples_runs(tmp_path, capsys):
    # no stage reads every grid point, so nothing caps the grid's size
    cfg = tmp_path / "job.cfg"
    cfg.write_text(WITNESS_JOB % (2, 5, 8, 100_000_001))
    assert main(["--input", str(cfg)]) == 0
    assert "samples 100000001" in capsys.readouterr().out


def test_samples_from_two_to_the_51_are_refused_at_config():
    with pytest.raises(ValidationError) as info:
        parse_config(WITNESS_JOB % (1, 2, 4, 2 ** 51))
    assert (info.value.key, info.value.reason) == (
        "samples_per_interval",
        "must be below 2^51: from there on level 2, which every job has, "
        "rounds its sample points onto the ends of I_2")
    # the most samples whose level-2 points stay inside I_2
    assert parse_config(WITNESS_JOB % (1, 2, 4, 2_001_599_834_386_886)).job


def test_samples_below_the_bound_meet_level_2_at_run_time(tmp_path, capsys):
    # level 1 keeps its sample points apart up to about 3.6e15 samples,
    # level 2 only up to about 2.0e15: config applies the float test of
    # level_arguments to each level, so the job is refused when it is
    # read, naming the first level that fails, and no bump is built
    for k_min, samples, level in ((1, 2 ** 51 - 1, 2),
                                  (2, 1_100_000_000_000_000, 3),
                                  (1, 2_001_599_834_386_887, 2)):
        with pytest.raises(ValidationError) as info:
            parse_config(WITNESS_JOB % (k_min, k_min + 1, 4, samples))
        assert (info.value.key, info.value.reason) == (
            "samples_per_interval",
            "level %d lies below float resolution: its sample points "
            "round onto the ends of I_%d" % (level, level))
    cfg = tmp_path / "job.cfg"
    cfg.write_text(WITNESS_JOB % (1, 2, 4, 2 ** 51 - 1))
    assert main(["--input", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "engine: configuration error: key 'samples_per_interval': level 2 "
        "lies below float resolution: its sample points round onto the "
        "ends of I_2\n")


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
    assert cfg.job.n == 2


@pytest.mark.parametrize("text, job_type", [
    ("[lie]\ndim = 2\n", LieJob),
    ("[torus]\nn = 2\n", TorusSpec),
    ("[witness]\nk_min = 1\nk_max = 2\n", WitnessJob),
])
def test_a_parsed_job_is_one_record(text, job_type):
    # one job field, holding the job of the section's pipeline
    cfg = parse_config(text)
    assert type(cfg.job) is job_type
    assert cfg.mode == text[1:text.index("]")]


def test_a_job_config_needs_its_job():
    with pytest.raises(TypeError, match="missing argument 'job'"):
        JobConfig("lie")
