"""Command-line front end.

    engine --input job.cfg [--output out.json] [--format table|json|csv]
           [--truncation N] [--check]

Exit codes: 0 success, 2 mathematical refusal (non-ideal quotient,
a dense_subalgebra that is no subalgebra, degenerate foliation, broken
Jacobi table, a basis not adapted to the job's [lie] space), 3 when a
certificate fails
(d.d != 0, a non-acyclic audited mode, or a --check cross-check), 1 for
bad job files and internal errors.  A malformed command line prints the
usage and an ``engine: error:`` line to stderr and exits 2; -h or --help
prints the options to stdout and exits 0.

The JSON report always carries the keys mode, betti, ranks, generators,
certificates, audited_modes and exit; fields that make no sense for a
pipeline, or for a lie job whose d.d check failed, are null.
timing_seconds is informational and excluded from the canonical
serialization used for byte-identity comparisons.

Every value is read off the pipeline's report records (see payload).
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .config import JobConfig, LieJob, WitnessJob, parse_config
from .errors import (EngineError, MathematicalRefusal, NotALieAlgebra,
                     NotAdapted, ParseError, ValidationError)
from .options import HELP, USAGE, UsageError, parse_args
from .payload import as_json, build_payload, cohomology, named
from .ratio import ratio_str
from .record import replace

if TYPE_CHECKING:
    from .foliation import TorusSpec

PROG = "engine"

# module -> the names this module calls from it.  A job imports only its
# own pipeline: run_job binds the modules of that pipeline's names here, a
# --check Lie job binds sign_twist too, a dense_subalgebra job
# dense_subalgebra, and module attribute access
# (cli.betti) binds them on demand before that.
_PIPELINE_NAMES = {
    "algebra": ("jacobi_check", "quotient"),
    "cochain": ("ce_complex",),
    "dense_subalgebra": ("generated_ideal",),
    "lie": ("Subspace", "betti"),
    "sign_twist": ("phi_sign_check",),
    "torus": ("cross_check_ce", "torus_betti"),
    "witness": ("build_bumps", "degree_one_obstruction", "interval",
                "verify_bounds"),
}
_PIPELINE_OF = {name: pipeline for pipeline, names in _PIPELINE_NAMES.items()
                for name in names}
# job mode -> the modules of _PIPELINE_NAMES its runner calls
_JOB_MODULES = {"lie": ("algebra", "cochain", "lie"), "torus": ("torus",),
                "witness": ("witness",)}


def _bind(pipeline: str) -> None:
    """Import a module of _PIPELINE_NAMES and bind its names in this
    module's namespace.

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


def _run_lie(job: LieJob, check: bool) -> tuple[dict, int]:
    algebra = job.algebra
    certificates: dict = {"jacobi": True, "ideal": None}
    names = ["e%d" % i for i in range(algebra.dim)]
    triple = jacobi_check(algebra)
    if triple is not None:
        raise NotALieAlgebra(triple)
    if job.ideal_vectors is not None:
        sub = Subspace.span(algebra.dim, job.ideal_vectors)
        if job.dense:
            _bind("dense_subalgebra")
            sub, certificates["dense_subalgebra"] = generated_ideal(
                algebra, sub)  # raises NotASubalgebra when refused
        algebra = quotient(algebra, sub)  # raises NotAnIdeal when refused
        certificates["ideal"] = True
        names = ["e%d" % c for c in sub.complement]
    if job.space is not None:
        from .space import unadapted_bracket

        triple = unadapted_bracket(algebra, job.space)
        if triple is not None:
            raise NotAdapted(job.space, tuple(names[x] for x in triple))
        certificates["space"] = job.space
    complex_ = ce_complex(algebra)
    is_complex = complex_.d_squared_violation() is None
    certificates["d_squared_zero"] = is_complex
    code = 0 if is_complex else 3
    if check:
        _bind("sign_twist")
        twist = phi_sign_check(complex_)
        certificates["sign_twist"] = twist
        if not twist:
            code = 3
    if not is_complex:
        return build_payload("lie", certificates), code  # no cohomology
    return build_payload("lie", certificates,
                         *cohomology(betti(complex_), names)), code


def _run_torus(spec: TorusSpec, check: bool) -> tuple[dict, int]:
    report = torus_betti(spec)  # raises InvalidSpec when refused
    certificates = named(report, "normalization", "all_modes_acyclic")
    transverse = [
        report.coordinate_names[c] for c in report.frame.skeleton.complement]
    certificates["transverse_coordinates"] = transverse
    certificates["koszul"] = as_json(report.acyclicity_certificates)
    code = 0 if report.all_modes_acyclic else 3
    if check:
        agreed = cross_check_ce(report)
        certificates["cross_check_ce"] = agreed
        if not agreed:
            code = 3
    return build_payload("torus", certificates, *cohomology(
        report.zero_mode, ["d" + name for name in transverse]),
        report.audited_modes), code


def _run_witness(job: WitnessJob, check: bool) -> tuple[dict, int]:
    family = build_bumps(
        range(job.k_min, job.k_max + 1),
        max_derivative_order=job.max_derivative_order,
        samples_per_interval=job.samples_per_interval,
    )
    report = verify_bounds(family)
    certificates = named(
        report, "profile_constants", "relative_slack", "samples_per_interval",
        "monotone_violations", "forced_levels", "lift_obstruction")
    certificates["sup_bounds"] = as_json(report.sup_records)
    certificates["intervals"] = [
        [k, *map(ratio_str, interval(k))] for k in report.k_range]
    certificates["degree_one"] = as_json(degree_one_obstruction())
    return build_payload("witness", certificates), 0


_RUNNERS = {"lie": _run_lie, "torus": _run_torus, "witness": _run_witness}


def run_job(config: JobConfig, check: bool = False) -> tuple[dict, int]:
    """Run one parsed job; returns (payload, exit_code).

    Mathematical refusals propagate as exceptions so the caller can
    separate them from ordinary failures.
    """
    for module in _JOB_MODULES[config.mode]:
        _bind(module)
    return _RUNNERS[config.mode](config.job, check)


# json, csv and the table renderers are imported where a report is
# rendered, after the job's pipeline has compiled: their modules then reuse
# the memory that compile freed instead of raising the process's peak
# under it.
def _render_json(payload: dict) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def canonical_json(payload: dict) -> str:
    """Deterministic serialization: the JSON render with timing dropped."""
    return _render_json(
        {k: v for k, v in payload.items() if k != "timing_seconds"})


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(payload)
    from .tables import render_csv, render_table

    return render_csv(payload) if fmt == "csv" else render_table(payload)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
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
        if args["truncation"] is not None and config.mode == "torus":
            config = replace(config, job=replace(
                config.job, truncation=args["truncation"]))
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
