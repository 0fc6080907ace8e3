"""Command-line front end.

    engine --input job.cfg [--output out.json] [--format table|json|csv]
           [--truncation N] [--check]

Exit codes: 0 success, 2 mathematical refusal (non-ideal quotient,
a dense_subalgebra that is no subalgebra, degenerate foliation, broken
Jacobi table, a basis not adapted to the job's [lie] space, an
automorphism that is not unimodular, moves its foliation or is, itself
or across that foliation, of infinite order with a root-of-unity
eigenvalue), 1 for bad job
files and internal errors.  A job file may start with a UTF-8 byte-order
mark.  A malformed command line prints the usage and an ``engine:
error:`` line to stderr and exits 2; -h or --help prints the options to
stdout and exits 0.

A report that is written exits 3 iff one of its top-level certificates
is false, and 0 otherwise; run_job alone reads that verdict off the
report.  The certificates that can be false are d_squared_zero and,
under --check, sign_twist for lie jobs, and all_modes_acyclic and,
under --check, cross_check_ce for torus jobs.

The JSON report always carries the keys mode, betti, ranks, generators,
certificates, audited_modes and exit; fields that make no sense for a
pipeline, or for a lie job whose d.d check failed, are null.  An
automorphism job's ranks are those of its invariant forms, a subcomplex
with d = 0, so all 0.
timing_seconds is informational and excluded from the canonical
serialization used for byte-identity comparisons.

Every value is read off the pipeline's report records (see payload).
"""

from __future__ import annotations

import sys
import time
from importlib import import_module

from .config import parse_config
from .errors import (EngineError, MathematicalRefusal, NotALieAlgebra,
                     NotAdapted, ParseError, ValidationError)
from .options import HELP, USAGE, UsageError, parse_args
from .payload import as_json, build_payload, cohomology, named
from .ratio import ratio_str
from .record import replace

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .config import JobConfig
    from .foliation import TorusSpec
    from .lie_job import LieJob
    from .witness_job import WitnessJob

PROG = "engine"

# module -> the names this module calls from it.  A job imports only its
# own pipeline: each runner binds the modules it calls here as it starts
# (a --check Lie job binds sign_twist too, a dense_subalgebra job
# dense_subalgebra, a torus job with discrete coordinates discrete), and
# module attribute access (cli.betti) binds them on demand before that.
_PIPELINE_NAMES = {
    "algebra": ("jacobi_check", "quotient"),
    "automorphism": ("automorphism_payload",),
    "cochain": ("ce_complex",),
    "dense_subalgebra": ("generated_ideal",),
    "discrete": ("discrete_certificate", "discrete_jobs"),
    "lie": ("Subspace", "betti"),
    "sign_twist": ("phi_sign_check",),
    "torus": ("cross_check_ce", "torus_betti"),
    "witness": ("build_bumps", "interval", "verify_bounds"),
    "witness_job": ("degree_one_obstruction",),
}
_PIPELINE_OF = {name: pipeline for pipeline, names in _PIPELINE_NAMES.items()
                for name in names}


def _bind(*pipelines: str) -> None:
    """Import modules of _PIPELINE_NAMES, in order, and bind their names
    in this module's namespace.

    setdefault keeps a name that is already bound: a wrapper installed on
    ``cli.betti`` and the like before the first job (the bench tracer
    patches them by name) stays the callable the job calls.
    """
    namespace = globals()
    for pipeline in pipelines:
        module = import_module("." + pipeline, __package__)
        for name in _PIPELINE_NAMES[pipeline]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    pipeline = _PIPELINE_OF.get(name)
    if pipeline is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _bind(pipeline)
    return globals()[name]


def _run_lie(job: LieJob, check: bool) -> dict:
    _bind("algebra", "cochain", "lie")
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
    certificates["d_squared_zero"] = complex_.d_squared_violation() is None
    if check:
        _bind("sign_twist")
        certificates["sign_twist"] = phi_sign_check(complex_)
    if not certificates["d_squared_zero"]:
        return build_payload("lie", certificates)  # no cohomology
    return build_payload("lie", certificates,
                         *cohomology(betti(complex_), names))


def _run_torus(spec: TorusSpec, check: bool) -> dict:
    _bind("torus")
    quotient = None
    if spec.discrete_coords:
        _bind("discrete")
        spec, quotient = discrete_jobs(spec)
    report = torus_betti(spec)  # raises InvalidSpec when refused
    transverse = [
        report.coordinate_names[c] for c in report.frame.skeleton.complement]
    certificates = {
        "normalization": report.normalization,
        "all_modes_acyclic": report.all_modes_acyclic,
        "transverse_coordinates": transverse,
        "koszul": as_json(report.acyclicity_certificates),
    }
    if check:
        certificates["cross_check_ce"] = cross_check_ce(report)
    if quotient is not None:
        certificates["discrete"] = discrete_certificate(
            report.betti, torus_betti(quotient).betti)
    return build_payload("torus", certificates, *cohomology(
        report.zero_mode, ["d" + name for name in transverse]),
        report.audited_modes)


def _run_witness(job: WitnessJob, check: bool) -> dict:
    _bind("witness", "witness_job")
    family = build_bumps(
        range(job.k_min, job.k_max + 1),
        max_derivative_order=job.max_derivative_order,
        samples_per_interval=job.samples_per_interval,
    )
    report = verify_bounds(family)
    certificates = named(
        report, "profile_constants", "relative_slack", "samples_per_interval",
        "monotone_violations", "forced_levels")
    certificates["lift_obstruction"] = report.lift_obstruction
    certificates["sup_bounds"] = as_json(report.sup_records)
    certificates["intervals"] = [
        [k, *map(ratio_str, interval(k))] for k in report.k_range]
    certificates["degree_one"] = as_json(degree_one_obstruction())
    return build_payload("witness", certificates)


def _run_automorphism(spec: TorusSpec, check: bool) -> dict:
    _bind("automorphism")
    return automorphism_payload(spec)  # raises InvalidSpec when refused


_RUNNERS = {"lie": _run_lie, "torus": _run_torus, "witness": _run_witness,
            "automorphism": _run_automorphism}


def run_job(config: JobConfig, check: bool = False) -> tuple[dict, int]:
    """Run one parsed job; returns (payload, exit_code).

    The exit code is read off the report: 3 iff one of its top-level
    certificates is False, 0 otherwise.  Mathematical refusals propagate
    as exceptions so the caller can separate them from ordinary failures.
    """
    payload = _RUNNERS[config.mode](config.job, check)
    failed = any(value is False for value in payload["certificates"].values())
    return payload, 3 if failed else 0


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
        with open(args["input"], encoding="utf-8") as source:
            # a UTF-8 byte-order mark, which str.strip keeps, is dropped
            text = source.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        print("%s: cannot read input: %s" % (PROG, exc), file=sys.stderr)
        return 1
    try:  # a refusal while the job is read or while it runs exits 2
        try:
            config = parse_config(text)
            if args["truncation"] is not None and config.mode == "torus":
                config = replace(config, job=replace(
                    config.job, truncation=args["truncation"]))
        except (ParseError, ValidationError, ValueError) as exc:
            print("%s: configuration error: %s" % (PROG, exc),
                  file=sys.stderr)
            return 1
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
            with open(out_path, "w", encoding="utf-8") as sink:
                sink.write(rendered)
        except OSError as exc:
            print("%s: cannot write output: %s" % (PROG, exc),
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    return code
