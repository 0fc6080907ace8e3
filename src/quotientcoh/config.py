"""Job-file parsing for the command line.

The format is a plain sectioned key = value file:

    [torus]
    n = 3
    foliation = 1,0,0
    invariance = 1
    truncation = 3

    [output]
    format = table

Sections [lie], [torus] and [witness] select the pipeline; exactly one
of them must be present.  Keys that repeat to build up a list are
``bracket`` and ``ideal`` in [lie] and ``foliation`` in [torus];
every other key may appear once.  All numeric fields of the exact
pipelines take integers or ratios a/b only, read into exact
(numerator, denominator) pairs; decimal literals are rejected with a
pointed message, since silently rounding them would defeat the purpose
of an exact engine.  Each section builder imports its own pipeline's
types once the section's fields have passed these checks, so parsing a
job loads no other pipeline, and a job whose values do not parse loads
neither lie nor torus.

The parser is deliberately hand-rolled rather than configparser-based:
repeated keys, exact-field validation and line-precise errors are the
whole job, and configparser fights all three.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import DECIMAL_RE, ParseError, ValidationError
from .ratio import Ratio, parse_ratio
from .record import record

if TYPE_CHECKING:
    from .lie import LieAlgebra
    from .scalars import ExtScalar
    from .torus import TorusSpec

_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")

_SECTIONS = {
    "lie": {"dim", "bracket", "ideal"},
    "torus": {"n", "foliation", "invariance", "truncation"},
    "witness": {
        "k_min", "k_max", "max_derivative_order", "samples_per_interval"
    },
    "output": {"format", "path"},
}
_REPEATABLE = {("lie", "bracket"), ("lie", "ideal"), ("torus", "foliation")}
_MODE_SECTIONS = ("lie", "torus", "witness")
# the report formats of [output] format and of the --format option
FORMATS = ("table", "json", "csv")
# Highest bump derivative order the float evaluation in witness.py may
# carry.  Against exact evaluation of P_m on grids of 3 to 10,001 points,
# the Horner evaluation in q puts C_m within 1e-10 relative through order
# 11 and within 5e-8 through order 16 (C_16 is off by 3.6e-8 on 3
# points, C_14 by 4.7e-9), past the 1e-9 slack of verify_bounds from
# order 12 on; it drifts to 1.7e-7 at order 17.  From order 86 exp
# overflows, and from order 152 the integer coefficients no longer fit in
# a float.
MAX_DERIVATIVE_ORDER = 16
# Most witness grid points a job may ask for, samples_per_interval times
# the number of levels.  The cap validates job input; it no longer bounds
# the engine's work.  phi is evaluated only at the peak candidates of each
# grid, whose number does not grow with the grid, and the critical brackets
# are bisected down to one grid spacing, in steps that grow with its
# logarithm: verify_bounds on four levels at order 8 takes about 6 ms with
# 2e3 or with 2e9 samples per level on a 2-core VM, and memory stays flat.
MAX_GRID_POINTS = 2_000_000


@record
class LieJob:
    """A lie-algebra cohomology job: an algebra and an optional quotient."""

    algebra: LieAlgebra
    ideal_vectors: tuple[tuple[Ratio, ...], ...] | None


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
    """One parsed job: exactly one of the three pipelines plus output."""

    mode: str
    lie: LieJob | None = None
    torus: TorusSpec | None = None
    witness: WitnessJob | None = None
    output: OutputConfig = OutputConfig()


def _exact_ratio(key: str, token: str) -> Ratio:
    if DECIMAL_RE.search(token):
        raise ValidationError(
            key,
            "decimal literal %r not allowed in an exact field; "
            "use an integer or a fraction like 1/2" % token,
        )
    if not _FRACTION_RE.match(token):
        raise ValidationError(key, "cannot parse %r as a fraction" % token)
    try:
        return parse_ratio(token)
    except ZeroDivisionError:
        raise ValidationError(key, "zero denominator in %r" % token) from None


def _exact_int(key: str, token: str) -> int:
    if DECIMAL_RE.search(token):
        raise ValidationError(
            key, "decimal literal %r not allowed; use an integer" % token
        )
    if not _INT_RE.match(token):
        raise ValidationError(key, "cannot parse %r as an integer" % token)
    return int(token)


def _collect_lines(text: str) -> dict[str, list[tuple[str, str, int]]]:
    """Group (key, value, line_no) triples by section, validating shape."""
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current: str | None = None
    seen_once: set[tuple[str, str]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise ParseError(line_no, None, "unknown section [%s]" % name)
            if name in sections:
                raise ParseError(line_no, None, "duplicate section [%s]" % name)
            sections[name] = []
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
        if (current, key) not in _REPEATABLE:
            if (current, key) in seen_once:
                raise ParseError(
                    line_no, key, "duplicate key in section [%s]" % current
                )
            seen_once.add((current, key))
        sections[current].append((key, value, line_no))
    return sections


def _section_map(entries: list[tuple[str, str, int]]) -> dict[str, str]:
    return {key: value for key, value, _ in entries}


def _int_key(single: dict[str, str], section: str, key: str,
             default: int | None = None) -> int:
    """The integer value of a single key, or default when it is absent;
    a key without a default is required."""
    if key in single:
        return _exact_int(key, single[key])
    if default is None:
        raise ValidationError(key, "missing required key in [%s]" % section)
    return default


def _build_lie(entries: list[tuple[str, str, int]]) -> LieJob:
    dim = _int_key(_section_map(entries), "lie", "dim")
    if dim < 0:
        raise ValidationError("dim", "dimension must be nonnegative")
    brackets: dict[tuple[int, int, int], Ratio] = {}
    ideal: list[tuple[Ratio, ...]] = []
    for key, value, line_no in entries:
        if key == "bracket":
            tokens = value.split()
            if len(tokens) != 4:
                raise ParseError(
                    line_no, key, "expected 'bracket = i j k value'"
                )
            ijk = tuple(_exact_int(key, t) for t in tokens[:3])
            v = _exact_ratio(key, tokens[3])
            # a repeated key would silently overwrite the first value
            if brackets.setdefault(ijk, v) != v:
                raise ValidationError(
                    key, "conflicting values for [e_%d, e_%d] -> e_%d" % ijk
                )
        elif key == "ideal":
            tokens = [t.strip() for t in value.split(",")]
            if len(tokens) != dim:
                raise ValidationError(
                    key,
                    "ideal vector has %d entries, expected dim = %d"
                    % (len(tokens), dim),
                )
            ideal.append(tuple(_exact_ratio(key, t) for t in tokens))
    from .lie import LieAlgebra

    try:
        algebra = LieAlgebra.from_brackets(dim, brackets)
    except ValueError as exc:
        raise ValidationError("bracket", str(exc)) from exc
    return LieJob(algebra, tuple(ideal) if ideal else None)


def _build_torus(entries: list[tuple[str, str, int]]) -> TorusSpec:
    from .scalars import parse_ext_scalar

    single = _section_map(entries)
    n = _int_key(single, "torus", "n")
    dirs: list[tuple[ExtScalar, ...]] = []
    for key, value, _line in entries:
        if key != "foliation":
            continue
        tokens = [t.strip() for t in value.split(",")]
        if len(tokens) != n:
            raise ValidationError(
                key,
                "direction vector has %d entries, expected n = %d"
                % (len(tokens), n),
            )
        try:
            dirs.append(tuple(parse_ext_scalar(t) for t in tokens))
        except ValueError as exc:
            raise ValidationError(key, str(exc)) from exc
    invariance: set[int] = set()
    if "invariance" in single:
        for token in single["invariance"].split(","):
            invariance.add(_exact_int("invariance", token.strip()))
    truncation = _int_key(single, "torus", "truncation", 3)
    from .torus import TorusSpec

    try:
        return TorusSpec(n, tuple(dirs), frozenset(invariance), truncation)
    except ValueError as exc:
        raise ValidationError("torus", str(exc)) from exc


def _build_witness(entries: list[tuple[str, str, int]]) -> WitnessJob:
    single = _section_map(entries)
    k_min = _int_key(single, "witness", "k_min")
    k_max = _int_key(single, "witness", "k_max")
    if k_min < 1:
        raise ValidationError("k_min", "levels start at 1")
    if k_max <= k_min:
        raise ValidationError(
            "k_max",
            "need at least two levels (k_max > k_min) to witness the "
            "obstruction",
        )
    order = _int_key(single, "witness", "max_derivative_order", 4)
    if order < 0:
        raise ValidationError("max_derivative_order", "must be nonnegative")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValidationError(
            "max_derivative_order",
            "at most %d: the floating-point bump derivatives drift "
            "from their exact values as the order grows (5e-8 relative "
            "at order 16)" % MAX_DERIVATIVE_ORDER,
        )
    samples = _int_key(single, "witness", "samples_per_interval", 10001)
    if samples < 3:
        raise ValidationError("samples_per_interval", "need at least 3 samples")
    points = samples * (k_max - k_min + 1)
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            "samples_per_interval",
            "%d samples on each of %d levels make %d grid points, over the "
            "cap of %d" % (samples, k_max - k_min + 1, points,
                           MAX_GRID_POINTS),
        )
    return WitnessJob(k_min, k_max, order, samples)


def _build_output(entries: list[tuple[str, str, int]]) -> OutputConfig:
    single = _section_map(entries)
    fmt = single.get("format", "table")
    if fmt not in FORMATS:
        raise ValidationError(
            "format", "unknown format %r; expected one of %s"
            % (fmt, ", ".join(FORMATS))
        )
    return OutputConfig(fmt, single.get("path"))


def parse_config(text: str) -> JobConfig:
    """Parse a job file, raising ParseError or ValidationError."""
    sections = _collect_lines(text)
    modes = [name for name in _MODE_SECTIONS if name in sections]
    if len(modes) != 1:
        raise ValidationError(
            "section",
            "expected exactly one of [lie], [torus], [witness]; found %d"
            % len(modes),
        )
    mode = modes[0]
    output = _build_output(sections.get("output", []))
    if mode == "lie":
        return JobConfig(mode, lie=_build_lie(sections["lie"]), output=output)
    if mode == "torus":
        return JobConfig(
            mode, torus=_build_torus(sections["torus"]), output=output
        )
    return JobConfig(
        mode, witness=_build_witness(sections["witness"]), output=output
    )
