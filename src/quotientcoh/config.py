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
``foliation`` and ``automorphism`` in [torus]; every other key may
appear once.

This module collects the lines into one key map per section and reads
[output].  Each job section is read in one place, beside the code that
job loads anyway: [lie] by the lie_job module and [witness] by the
witness_job module, each imported by parse_config for its own section
only, and [torus] here.  The torus builder reads every [torus] value
once, the ``automorphism`` rows included, into one foliation.TorusSpec,
which checks n, the directions, the coordinates and the rows for plain
and automorphism jobs alike; the spec names its own mode.  The builder
refuses only a ``truncation`` beside the rows, which the spec cannot
tell from its default.

Each value shape has one reader, shared by every section: int_key,
vectors (``ideal``, ``dense_subalgebra``, ``foliation`` and
``automorphism``), coordinates (``invariance`` and ``discrete``) and
choice (``format`` and ``space``).  Readers parse and records check:
the TorusSpec and an ideal's lie.Subspace check the shape of what they
hold, vector lengths included, and a reader checks only the limits of a
value on its own, such as a nonnegative dim.  The exact tokens,
integers, ratios a/b and p+-q*alpha, are read by the literals module,
which only this module and lie_job import.  Each section builder
imports its own pipeline's types once the section's values have
parsed, so parsing a job loads no other pipeline, and a job whose
values do not parse loads neither lie nor torus.

The parser is deliberately hand-rolled rather than configparser-based:
repeated keys, exact-field validation and line-precise errors are the
whole job, and configparser fights all three.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .literals import exact_int, parse_ext_scalar
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .foliation import TorusSpec
    from .lie_job import LieJob
    from .witness_job import WitnessJob

_SECTIONS = {
    "lie": {"dim", "bracket", "ideal", "dense_subalgebra", "space"},
    "torus": {"n", "foliation", "invariance", "truncation", "discrete",
              "automorphism"},
    "witness": {
        "k_min", "k_max", "max_derivative_order", "samples_per_interval"
    },
    "output": {"format", "path"},
}
# each key belongs to one section of _SECTIONS
_REPEATABLE = {"bracket", "ideal", "dense_subalgebra", "foliation",
               "automorphism"}
# the report formats of [output] format and of the --format option
FORMATS = ("table", "json", "csv")


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
    sections = {}
    current = None  # the name of the section being read
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


def int_key(section: dict, name: str, key: str,
            default: int | None = None) -> int:
    """The integer value of a single key, or default when it is absent;
    a key without a default is required."""
    if key in section:
        return exact_int(key, section[key])
    if default is None:
        raise ValidationError(key, "missing required key in [%s]" % name)
    return default


def vectors(section: dict, key: str, parse) -> tuple[tuple, ...]:
    """The comma-separated vectors of the repeatable key, each token read
    by parse(token), whose ValueError is key's; the record that holds
    them checks their lengths."""
    try:
        return tuple(tuple(parse(token.strip()) for token in value.split(","))
                     for value, _line in section.get(key, ()))
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from exc


def coordinates(section: dict, key: str) -> frozenset[int]:
    """The comma-separated coordinate indices of key, none when absent."""
    if key not in section:
        return frozenset()
    return frozenset(exact_int(key, token.strip())
                     for token in section[key].split(","))


def choice(key: str, value: str, choices: tuple[str, ...]) -> str:
    """value, refused unless it is one of choices."""
    if value not in choices:
        raise ValidationError(key, "unknown %s %r; expected one of %s"
                              % (key, value, ", ".join(choices)))
    return value


def _build_torus(section: dict) -> TorusSpec:
    n = int_key(section, "torus", "n")
    rows = vectors(section, "automorphism",
                   lambda token: exact_int("automorphism", token))
    # the spec cannot tell a given truncation from its default
    if rows and "truncation" in section:
        raise ValidationError("truncation",
                              "not allowed with automorphism rows")
    fields = (n, vectors(section, "foliation", parse_ext_scalar),
              coordinates(section, "invariance"),
              int_key(section, "torus", "truncation", 3),
              coordinates(section, "discrete"), rows)
    from .foliation import TorusSpec

    try:  # the spec checks the shape of every field
        return TorusSpec(*fields)
    except ValueError as exc:
        raise ValidationError("torus", str(exc)) from exc


def parse_config(text: str) -> JobConfig:
    """Parse a job file, raising ParseError or ValidationError."""
    sections = _collect_lines(text)
    modes = [name for name in ("lie", "torus", "witness")
             if name in sections]
    if len(modes) != 1:
        raise ValidationError(
            "section",
            "expected exactly one of [lie], [torus], [witness]; found %d"
            % len(modes),
        )
    mode = modes[0]
    output = OutputConfig(**sections.get("output", {}))
    choice("format", output.format, FORMATS)
    # each section is read beside the code its job loads anyway
    if mode == "lie":
        from .lie_job import build_lie as build
    elif mode == "witness":
        from .witness_job import build_witness as build
    else:
        build = _build_torus
    job = build(sections[mode])
    # a torus job names its own mode, automorphism when A is given
    return JobConfig(getattr(job, "mode", mode), job, output)
