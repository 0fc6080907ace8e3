"""Job-file parsing for the command line.

The format is a plain sectioned key = value file:

    [torus]
    n = 3
    foliation = 1,0,0
    invariance = 1
    truncation = 3
    discrete = 0

    [output]
    format = table

Sections [lie], [torus] and [witness] select the pipeline; exactly one
of them must be present.  Keys that repeat to build up a list are
``bracket``, ``ideal`` and ``dense_subalgebra`` in [lie] and
``foliation`` in [torus]; every other key may appear once.  Each value
shape has one reader (_int_key, _vectors for ``ideal``,
``dense_subalgebra`` and ``foliation``, _coordinates for ``invariance``
and ``discrete``, _choice for ``format`` and ``space``), and each limit
is checked where its key is read.

The exact tokens, integers, ratios a/b and p+-q*alpha, are read by the
literals module.  Each section builder imports its own pipeline's types
once the section's fields have passed these checks, so parsing a job
loads no other pipeline, and a job whose values do not parse loads
neither lie nor torus.

The parser is deliberately hand-rolled rather than configparser-based:
repeated keys, exact-field validation and line-precise errors are the
whole job, and configparser fights all three.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .literals import exact_int, exact_ratio, parse_ext_scalar
from .ratio import Ratio
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .foliation import TorusSpec

_SECTIONS = {
    "lie": {"dim", "bracket", "ideal", "dense_subalgebra", "space"},
    "torus": {"n", "foliation", "invariance", "truncation", "discrete"},
    "witness": {
        "k_min", "k_max", "max_derivative_order", "samples_per_interval"
    },
    "output": {"format", "path"},
}
# each key belongs to one section of _SECTIONS
_REPEATABLE = {"bracket", "ideal", "dense_subalgebra", "foliation"}
# the report formats of [output] format and of the --format option
FORMATS = ("table", "json", "csv")
# the lattice quotients [lie] space may name (see quotientcoh.space)
SPACES = ("nilmanifold", "solvmanifold")
# Highest bump derivative order the float evaluation in witness.py may
# carry.  Against exact evaluation of P_m on grids of 3 to 10,001 points,
# the Horner evaluation in q puts C_m within 1e-10 relative through order
# 11 and within 5e-8 through order 16 (C_16 is off by 3.6e-8 on 3
# points, C_14 by 4.7e-9), past the 1e-9 slack of verify_bounds from
# order 12 on; it drifts to 1.7e-7 at order 17.  From order 86 exp
# overflows, and from order 152 the integer coefficients no longer fit in
# a float.
MAX_DERIVATIVE_ORDER = 16


@record
class LieJob:
    """A lie-algebra cohomology job: an algebra, an optional quotient
    and the lattice quotient space, if any, it claims the cohomology of.
    With dense, ideal_vectors span the Lie algebra of a dense subgroup,
    and the quotient is by the ideal they generate."""

    algebra: LieAlgebra
    ideal_vectors: tuple[tuple[Ratio, ...], ...] | None
    space: str | None = None
    dense: bool = False


@record
class WitnessJob:
    """Levels and sampling resolution for the bump-family witness."""

    k_min: int
    k_max: int
    max_derivative_order: int
    samples_per_interval: int


@record
class OutputConfig:
    format: str = "table"
    path: str | None = None


@record
class JobConfig:
    """One parsed job: its mode, that pipeline's job and the output."""

    mode: str
    job: LieJob | TorusSpec | WitnessJob
    output: OutputConfig = OutputConfig()


def _collect_lines(text: str) -> dict[str, dict]:
    """Read each section as one key map, validating shape: a key that
    may appear once maps to its value, and a repeatable key to its
    (value, line_no) pairs in file order."""
    sections: dict[str, dict] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # a section header is [name], name of ASCII lowercase letters
        name = line[1:-1]
        if (line[0] == "[" and line[-1] == "]" and name.isascii()
                and name.isalpha() and name.islower()):
            if name not in _SECTIONS:
                raise ParseError(line_no, None, "unknown section [%s]" % name)
            if name in sections:
                raise ParseError(line_no, None, "duplicate section [%s]" % name)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError(
                line_no, None, "expected 'key = value' or '[section]'"
            )
        if current is None:
            raise ParseError(
                line_no, None, "key/value pair before any [section]"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ParseError(
                line_no, key, "unknown key in section [%s]" % current
            )
        section = sections[current]
        if key in _REPEATABLE:
            section.setdefault(key, []).append((value, line_no))
        elif key in section:
            raise ParseError(
                line_no, key, "duplicate key in section [%s]" % current
            )
        else:
            section[key] = value
    return sections


def _int_key(section: dict, name: str, key: str,
             default: int | None = None) -> int:
    """The integer value of a single key, or default when it is absent;
    a key without a default is required."""
    if key in section:
        return exact_int(key, section[key])
    if default is None:
        raise ValidationError(key, "missing required key in [%s]" % name)
    return default


def _vectors(section: dict, key: str, noun: str, size_name: str, size: int,
             parse) -> tuple[tuple, ...]:
    """The comma-separated vectors of the repeatable key, each of size
    entries read by parse(token), whose ValueError is key's."""
    vectors = []
    for value, _line in section.get(key, ()):
        tokens = [t.strip() for t in value.split(",")]
        if len(tokens) != size:
            raise ValidationError(
                key, "%s vector has %d entries, expected %s = %d"
                % (noun, len(tokens), size_name, size))
        try:
            vectors.append(tuple(parse(t) for t in tokens))
        except ValueError as exc:
            raise ValidationError(key, str(exc)) from exc
    return tuple(vectors)


def _coordinates(section: dict, key: str) -> frozenset[int]:
    """The comma-separated coordinate indices of key, none when absent."""
    if key not in section:
        return frozenset()
    return frozenset(exact_int(key, token.strip())
                     for token in section[key].split(","))


def _choice(key: str, value: str, choices: tuple[str, ...]) -> str:
    """value, refused unless it is one of choices."""
    if value not in choices:
        raise ValidationError(key, "unknown %s %r; expected one of %s"
                              % (key, value, ", ".join(choices)))
    return value


def _build_lie(section: dict) -> LieJob:
    dim = _int_key(section, "lie", "dim")
    if dim < 0:
        raise ValidationError("dim", "dimension must be nonnegative")
    brackets: dict[tuple[int, int, int], Ratio] = {}
    for value, line_no in section.get("bracket", ()):
        tokens = value.split()
        if len(tokens) != 4:
            raise ParseError(
                line_no, "bracket", "expected 'bracket = i j k value'"
            )
        ijk = tuple(exact_int("bracket", t) for t in tokens[:3])
        v = exact_ratio("bracket", tokens[3])
        # a repeated key would silently overwrite the first value
        if brackets.setdefault(ijk, v) != v:
            raise ValidationError(
                "bracket", "conflicting values for [e_%d, e_%d] -> e_%d" % ijk
            )
    # each _vectors call parses its tokens before key moves on
    ideal, dense = (_vectors(section, key, key, "dim", dim,
                             lambda token: exact_ratio(key, token))
                    for key in ("ideal", "dense_subalgebra"))
    if ideal and dense:
        raise ValidationError("dense_subalgebra",
                              "give ideal or dense_subalgebra, not both")
    space = (_choice("space", section["space"], SPACES)
             if "space" in section else None)
    from .algebra import LieAlgebra

    try:
        algebra = LieAlgebra.from_brackets(dim, brackets)
    except ValueError as exc:
        raise ValidationError("bracket", str(exc)) from exc
    return LieJob(algebra, ideal or dense or None, space, bool(dense))


def _build_torus(section: dict) -> TorusSpec:
    n = _int_key(section, "torus", "n")
    dirs = _vectors(section, "foliation", "direction", "n", n,
                    parse_ext_scalar)
    invariance = _coordinates(section, "invariance")
    truncation = _int_key(section, "torus", "truncation", 3)
    discrete = _coordinates(section, "discrete")
    from .foliation import TorusSpec

    try:
        return TorusSpec(n, dirs, invariance, truncation, discrete)
    except ValueError as exc:
        raise ValidationError("torus", str(exc)) from exc


def _build_witness(section: dict) -> WitnessJob:
    k_min = _int_key(section, "witness", "k_min")
    k_max = _int_key(section, "witness", "k_max")
    if k_min < 1:
        raise ValidationError("k_min", "levels start at 1")
    if k_max <= k_min:
        raise ValidationError(
            "k_max",
            "need at least two levels (k_max > k_min) to witness the "
            "obstruction",
        )
    order = _int_key(section, "witness", "max_derivative_order", 4)
    if order < 0:
        raise ValidationError("max_derivative_order", "must be nonnegative")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValidationError(
            "max_derivative_order",
            "at most %d: the floating-point bump derivatives drift "
            "from their exact values as the order grows (5e-8 relative "
            "at order 16)" % MAX_DERIVATIVE_ORDER,
        )
    samples = _int_key(section, "witness", "samples_per_interval", 10001)
    if samples < 3:
        raise ValidationError("samples_per_interval", "need at least 3 samples")
    # No job can run 2^51 samples: level k keeps its points off the ends of
    # I_k only while samples + 1 < about 2^(53 - k) (at k = 2 up to
    # 2,001,599,834,386,887), and every job has a level k >= 2; far above
    # it len() of a 2^63-point grid overflows.  Below it each level is
    # tested with the float test that level_arguments applies, before any
    # bump is built, and the first level that fails is named, as
    # level_arguments would at run time.  Work and memory do not grow
    # with the grid.
    if samples >= 2 ** 51:
        raise ValidationError("samples_per_interval", "must be below 2^51: "
                              "from there on level 2, which every job has, "
                              "rounds its sample points onto the ends of I_2")
    from .grid import level_resolves

    for k in range(k_min, k_max + 1):
        if not level_resolves(k, samples + 1):
            raise ValidationError(
                "samples_per_interval",
                "level %d lies below float resolution: its sample points "
                "round onto the ends of I_%d" % (k, k))
    return WitnessJob(k_min, k_max, order, samples)


_JOB_PARSERS = {"lie": _build_lie, "torus": _build_torus,
                "witness": _build_witness}


def parse_config(text: str) -> JobConfig:
    """Parse a job file, raising ParseError or ValidationError."""
    sections = _collect_lines(text)
    modes = [name for name in _JOB_PARSERS if name in sections]
    if len(modes) != 1:
        raise ValidationError(
            "section",
            "expected exactly one of [lie], [torus], [witness]; found %d"
            % len(modes),
        )
    mode = modes[0]
    output = OutputConfig(**sections.get("output", {}))
    _choice("format", output.format, FORMATS)
    return JobConfig(mode, _JOB_PARSERS[mode](sections[mode]), output)
