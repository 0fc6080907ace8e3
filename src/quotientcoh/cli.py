"""Command-line front end.

    engine --input job.cfg [--output out.json] [--format table|json|csv]
           [--truncation N] [--check]

Exit codes: 0 success, 2 mathematical refusal (non-ideal quotient,
degenerate foliation, broken Jacobi table), 3 when a certificate fails
(d.d != 0, a non-acyclic audited mode, or a --check cross-check), 1 for
bad job files and internal errors.  A malformed command line prints the
usage and an ``engine: error:`` line to stderr and exits 2; -h or --help
prints the options to stdout and exits 0.

The JSON report always carries the keys mode, betti, ranks, generators,
certificates, audited_modes and exit; fields that make no sense for a
pipeline, or for a lie job whose d.d check failed, are null.
timing_seconds is informational and excluded from the canonical
serialization used for byte-identity comparisons.

Every value is read off the pipeline's report records.  An entry of
koszul, sup_bounds or monotone_violations, and degree_one, is the fields
of its record (KoszulCertificate, SupRecord, MonotoneViolation,
DegreeOneCertificate) with None fields left out, so a new record field
is a new report key.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .config import FORMATS, JobConfig, LieJob, WitnessJob, parse_config
from .errors import EngineError, MathematicalRefusal, NotALieAlgebra, ParseError, ValidationError
from .ratio import ratio_str
from .record import fields, replace

if TYPE_CHECKING:
    from .exterior import MultiIndex
    from .scalars import SparseRow
    from .torus import TorusSpec

PROG = "engine"

# pipeline -> the names this module calls from it.  A job imports only its
# own pipeline: run_job binds that pipeline's names here, and module
# attribute access (cli.betti) binds them on demand before that.
_PIPELINE_NAMES = {
    "lie": ("Subspace", "betti", "ce_complex", "jacobi_check",
            "phi_sign_check", "quotient"),
    "torus": ("cross_check_ce", "torus_betti"),
    "witness": ("build_bumps", "degree_one_obstruction", "interval",
                "verify_bounds"),
}
_PIPELINE_OF = {name: pipeline for pipeline, names in _PIPELINE_NAMES.items()
                for name in names}


def _bind(pipeline: str) -> None:
    """Import a pipeline and bind its names in this module's namespace.

    setdefault keeps a name that is already bound: a wrapper installed on
    ``cli.betti`` and the like before the first job (the bench tracer
    patches them by name) stays the callable the job calls.
    """
    module = import_module("." + pipeline, __package__)
    namespace = globals()
    for name in _PIPELINE_NAMES[pipeline]:
        namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    pipeline = _PIPELINE_OF.get(name)
    if pipeline is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _bind(pipeline)
    return globals()[name]


def _term_join(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _vector_label(
    vec: SparseRow, monomials: tuple[MultiIndex, ...], names: list[str]
) -> str:
    terms = []
    for j, coeff in vec:
        label = "^".join(names[i] for i in monomials[j])
        if not label:
            terms.append(ratio_str(coeff))
        elif coeff == (1, 1):
            terms.append(label)
        elif coeff == (-1, 1):
            terms.append("-" + label)
        else:
            terms.append("%s*%s" % (ratio_str(coeff), label))
    return _term_join(terms)


def _json(value):
    """A report value as JSON values: a tuple becomes a list, and a record
    an object of its fields, leaving out a field that is None."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if hasattr(value, "_record_fields"):
        return {name: _json(getattr(value, name)) for name in fields(value)
                if getattr(value, name) is not None}
    return value


def _named(report, *names: str) -> dict:
    """The named fields of a report record, as JSON values."""
    return {name: _json(getattr(report, name)) for name in names}


def _payload(mode: str, certificates: dict, betti=None, ranks=None,
             generators=None, audited_modes=None) -> dict:
    return {
        "mode": mode,
        "betti": betti,
        "ranks": ranks,
        "generators": generators,
        "certificates": certificates,
        "audited_modes": audited_modes,
    }


def _run_lie(job: LieJob, check: bool) -> tuple[dict, int]:
    algebra = job.algebra
    certificates: dict = {"jacobi": True, "ideal": None}
    names = ["e%d" % i for i in range(algebra.dim)]
    ok, triple = jacobi_check(algebra)
    if not ok:
        raise NotALieAlgebra(triple)
    if job.ideal_vectors is not None:
        sub = Subspace.span(algebra.dim, job.ideal_vectors)
        algebra = quotient(algebra, sub)  # raises NotAnIdeal when refused
        certificates["ideal"] = True
        names = ["e%d" % c for c in sub.complement]
    complex_ = ce_complex(algebra)
    is_complex = complex_.d_squared_violation() is None
    certificates["d_squared_zero"] = is_complex
    code = 0 if is_complex else 3
    if check:
        twist = phi_sign_check(complex_)
        certificates["sign_twist"] = twist
        if not twist:
            code = 3
    if not is_complex:
        return _payload("lie", certificates), code  # no cohomology to report
    report = betti(complex_, checked=True)
    generators = [
        [_vector_label(v, monomials, names) for v in gens]
        for gens, monomials in zip(report.generators, report.monomials)
    ]
    return _payload("lie", certificates, _json(report.betti),
                    _json(report.ranks), generators), code


def _run_torus(spec: TorusSpec, check: bool) -> tuple[dict, int]:
    report = torus_betti(spec)  # raises InvalidSpec when refused
    certificates = _named(report, "normalization", "all_modes_acyclic")
    certificates["transverse_coordinates"] = [
        report.coordinate_names[c] for c in report.frame.skeleton.complement]
    certificates["koszul"] = _json(report.acyclicity_certificates)
    code = 0 if report.all_modes_acyclic else 3
    if check:
        agreed = cross_check_ce(report)
        certificates["cross_check_ce"] = agreed
        if not agreed:
            code = 3
    return _payload("torus", certificates, _json(report.betti),
                    _json(report.ranks), _json(report.mode_zero_generators),
                    report.audited_modes), code


def _run_witness(job: WitnessJob, check: bool) -> tuple[dict, int]:
    family = build_bumps(
        range(job.k_min, job.k_max + 1),
        max_derivative_order=job.max_derivative_order,
        samples_per_interval=job.samples_per_interval,
    )
    report = verify_bounds(family)
    certificates = _named(
        report, "profile_constants", "relative_slack", "samples_per_interval",
        "monotone_violations", "forced_levels", "lift_obstruction")
    certificates["sup_bounds"] = _json(report.sup_records)
    certificates["intervals"] = [
        [k, *map(ratio_str, interval(k))] for k in report.k_range]
    certificates["degree_one"] = _json(degree_one_obstruction())
    return _payload("witness", certificates), 0


_RUNNERS = {"lie": _run_lie, "torus": _run_torus, "witness": _run_witness}


def run_job(config: JobConfig, check: bool = False) -> tuple[dict, int]:
    """Run one parsed job; returns (payload, exit_code).

    Mathematical refusals propagate as exceptions so the caller can
    separate them from ordinary failures.
    """
    _bind(config.mode)
    return _RUNNERS[config.mode](getattr(config, config.mode), check)


# json and csv are imported where a report is rendered, after the job's
# pipeline has compiled: their modules then reuse the memory that compile
# freed instead of raising the process's peak under it.
def _render_json(payload: dict) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def canonical_json(payload: dict) -> str:
    """Deterministic serialization: the JSON render with timing dropped."""
    return _render_json(
        {k: v for k, v in payload.items() if k != "timing_seconds"})


def _render_table(payload: dict) -> str:
    lines = ["mode: %s" % payload["mode"]]
    if payload["mode"] in ("lie", "torus"):
        if payload["betti"] is None:
            lines.append("betti: not computed, d.d != 0")
        else:
            lines.append(
                "betti: %s" % " ".join(str(b) for b in payload["betti"])
            )
            lines.append("degree | betti | generators")
            for k, (b, gens) in enumerate(
                zip(payload["betti"], payload["generators"])
            ):
                lines.append("%6d | %5d | %s" % (k, b, ", ".join(gens)))
        certs = payload["certificates"]
        if payload["mode"] == "torus":
            lines.append(
                "transverse frame: %s"
                % ", ".join(certs["transverse_coordinates"])
            )
            lines.append(
                "audited nonzero modes: %d (%s)"
                % (
                    payload["audited_modes"],
                    "all acyclic" if certs["all_modes_acyclic"]
                    else "ACYCLICITY FAILED",
                )
            )
            if "cross_check_ce" in certs:
                lines.append(
                    "cross-check against cochain pipeline: %s"
                    % ("agree" if certs["cross_check_ce"] else "MISMATCH")
                )
            lines.append(certs["normalization"])
        else:
            lines.append("certificates: %s" % " ".join(
                "%s=%s" % (name, str(value).lower())
                for name, value in certs.items() if value is not None))
    else:
        certs = payload["certificates"]
        lines.append(
            "levels: %d..%d, derivative orders <= %d, samples %d"
            % (
                certs["forced_levels"][0][0],
                certs["forced_levels"][-1][0],
                len(certs["profile_constants"]) - 1,
                certs["samples_per_interval"],
            )
        )
        lines.append("family | level | order | measured | bound")
        for r in certs["sup_bounds"]:
            lines.append(
                "%6s | %5d | %5d | %.9e | %.9e"
                % (r["family"], r["level"], r["order"], r["measured"],
                   r["bound"])
            )
        lines.append(
            "monotone violations: %s"
            % (
                "; ".join(
                    "%s m=%d k=%d->%d ratio=%.6f"
                    % (v["family"], v["order"], v["level_from"],
                       v["level_to"], v["ratio"])
                    for v in certs["monotone_violations"]
                )
                or "none"
            )
        )
        lines.append(
            "forced levels: %s"
            % " ".join("%d->%d" % (k, lvl) for k, lvl in certs["forced_levels"])
        )
        lines.append("lift obstruction: %s" % str(certs["lift_obstruction"]).lower())
        deg1 = certs["degree_one"]
        lines.append(
            "degree-1: quotient dim %d, invariant dim %d (%s), %s"
            % (
                deg1["quotient_degree1_dim"],
                deg1["invariant_basic_degree1_dim"],
                deg1["invariant_witness"],
                deg1["conclusion"],
            )
        )
    lines.append("exit: %d" % payload["exit"])
    return "\n".join(lines) + "\n"


def _render_csv(payload: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["mode"] in ("lie", "torus"):
        writer.writerow(["degree", "betti", "generators"])
        for k, (b, gens) in enumerate(
            zip(payload["betti"] or (), payload["generators"] or ())
        ):
            writer.writerow([k, b, "; ".join(gens)])
    else:
        writer.writerow(["family", "level", "order", "measured", "bound"])
        for r in payload["certificates"]["sup_bounds"]:
            writer.writerow(
                [r["family"], r["level"], r["order"],
                 repr(r["measured"]), repr(r["bound"])]
            )
    return buf.getvalue()


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(payload)
    if fmt == "csv":
        return _render_csv(payload)
    return _render_table(payload)


USAGE = """\
usage: engine [-h] --input INPUT [--output OUTPUT] [--format {table,json,csv}]
              [--truncation TRUNCATION] [--check]
"""

HELP = USAGE + """
exact cohomology of group quotients via finite invariant complexes

options:
  -h, --help            show this help message and exit
  --input INPUT         job file to run
  --output OUTPUT       write the report here instead of stdout
  --format {table,json,csv}
                        report format (default: job file setting, else table)
  --truncation TRUNCATION
                        override the audit truncation of a torus job
  --check               run the redundant cross-checks; mismatch exits 3
"""


class _UsageError(Exception):
    """A malformed command line; main prints it under the usage."""


def _is_option(token: str) -> bool:
    # a negative integer is a value, so --truncation -1 reaches the
    # configuration check
    return token.startswith("-") and not token[1:].isdigit()


def _parse_args(argv: list[str]) -> dict | None:
    """The options of a command line, or None when it asks for help.

    Each option is ``--opt value`` or ``--opt=value``, the last of a
    repeated one wins, and every malformed token raises _UsageError.
    """
    args = {"input": None, "output": None, "format": None,
            "truncation": None, "check": False}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, explicit, value = token.partition("=")
        key = option[2:]
        if option == "--check":
            if explicit:
                raise _UsageError(
                    "argument --check: ignored explicit argument %r" % value)
            args["check"] = True
            continue
        if not option.startswith("--") or key not in args:
            raise _UsageError("unrecognized arguments: %s" % token)
        if not explicit:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise _UsageError("argument %s: expected one argument" % option)
        if key == "format" and value not in FORMATS:
            raise _UsageError(
                "argument --format: invalid choice: %r (choose from %s)"
                % (value, ", ".join(repr(f) for f in FORMATS)))
        if key == "truncation":
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(
                    "argument --truncation: invalid int value: %r" % value
                ) from None
        args[key] = value
    if args["input"] is None:
        raise _UsageError("the following arguments are required: --input")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write("%s%s: error: %s\n" % (USAGE, PROG, exc))
        return 2
    if args is None:
        sys.stdout.write(HELP)
        return 0
    started = time.perf_counter()
    try:
        text = Path(args["input"]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print("%s: cannot read input: %s" % (PROG, exc), file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args["truncation"] is not None and config.torus is not None:
            config = replace(
                config,
                torus=replace(config.torus, truncation=args["truncation"]),
            )
    except MathematicalRefusal as exc:
        print("%s: refused: %s: %s" % (PROG, type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except (ParseError, ValidationError, ValueError) as exc:
        print("%s: configuration error: %s" % (PROG, exc), file=sys.stderr)
        return 1
    try:
        payload, code = run_job(config, check=args["check"])
    except MathematicalRefusal as exc:
        print("%s: refused: %s: %s" % (PROG, type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except EngineError as exc:
        print("%s: internal error: %s" % (PROG, exc), file=sys.stderr)
        return 1
    payload["exit"] = code
    payload["timing_seconds"] = round(time.perf_counter() - started, 6)
    rendered = render(payload, args["format"] or config.output.format)
    out_path = args["output"] or config.output.path
    if out_path:
        try:
            Path(out_path).write_text(rendered)
        except OSError as exc:
            print("%s: cannot write output: %s" % (PROG, exc),
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    return code
