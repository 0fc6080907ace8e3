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
which checks n, the directions and the rows for plain and automorphism
jobs alike; the spec names its own mode.

Each value shape has one reader, shared by every section: int_key,
vectors (``ideal``, ``dense_subalgebra``, ``foliation`` and
``automorphism``), coordinates (``invariance`` and ``discrete``) and
choice (``format`` and ``space``); each limit is checked where its key
is read.  The exact tokens, integers, ratios a/b and p+-q*alpha, are
read by the literals module, which only this module and lie_job import.
Each section builder imports its own pipeline's types once the
section's fields have passed these checks, so parsing a job loads no
other pipeline, and a job whose values do not parse loads neither lie
nor torus.

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


def vectors(section: dict, key: str, noun: str, size_name: str, size: int,
            parse) -> tuple[tuple, ...]:
    """The comma-separated vectors of the repeatable key, each of size
    entries read by parse(token), whose ValueError is key's."""
    read = []
    for value, _line in section.get(key, ()):
        tokens = [t.strip() for t in value.split(",")]
        if len(tokens) != size:
            raise ValidationError(
                key, "%s vector has %d entr%s, expected %s = %d"
                % (noun, len(tokens), "y" if len(tokens) == 1 else "ies",
                   size_name, size))
        try:
            read.append(tuple(parse(t) for t in tokens))
        except ValueError as exc:
            raise ValidationError(key, str(exc)) from exc
    return tuple(read)


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


def _torus_spec(*fields) -> TorusSpec:
    """The TorusSpec of fields, its ValueError a ValidationError of the
    key torus."""
    from .foliation import TorusSpec

    try:
        return TorusSpec(*fields)
    except ValueError as exc:
        raise ValidationError("torus", str(exc)) from exc


def _build_torus(section: dict) -> TorusSpec:
    n = int_key(section, "torus", "n")
    if n < 1:  # the spec's refusal, before a vector is read against n
        _torus_spec(n)
    rows = section.get("automorphism", ())
    if rows:
        from .automorphism import REFUSED_KEYS

        for key in REFUSED_KEYS:
            if key in section:
                raise ValidationError(key,
                                      "not allowed with automorphism rows")
        if len(rows) != n:
            raise ValidationError("automorphism", "%d row%s, expected n = %d"
                                  % (len(rows), "" if len(rows) == 1 else "s",
                                     n))
        # the integer rows of A, read once the row count is right
        rows = vectors(section, "automorphism", "row", "n", n,
                       lambda token: exact_int("automorphism", token))
    dirs = vectors(section, "foliation", "direction", "n", n,
                   parse_ext_scalar)
    spec = _torus_spec(n, dirs, coordinates(section, "invariance"),
                       int_key(section, "torus", "truncation", 3),
                       coordinates(section, "discrete"), rows)
    if rows and any(map(any, spec.parts[1])):
        raise ValidationError(
            "foliation", "a direction with an alpha part is ROADMAP item 24 "
            "phase 3: the modes an irrational foliation leaves form a "
            "lattice of lower rank than its transverse frame")
    return spec


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
