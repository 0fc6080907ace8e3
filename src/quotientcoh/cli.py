"""Command-line front end.

    engine --input job.cfg [--output out.json] [--format table|json|csv]
           [--truncation N] [--check]

Exit codes: 0 success, 2 mathematical refusal (non-ideal quotient,
degenerate foliation, broken Jacobi table), 3 when --check finds a
cross-check mismatch, 1 for bad job files and internal errors.

The JSON report always carries the keys mode, betti, ranks, generators,
certificates, audited_modes and exit; fields that make no sense for a
pipeline are null.  timing_seconds is informational and excluded from
the canonical serialization used for byte-identity comparisons.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .config import JobConfig, LieJob, WitnessJob, parse_config
from .errors import EngineError, MathematicalRefusal, NotALieAlgebra, ParseError, ValidationError
from .exterior import enumerate_basis
from .lie import (
    LieAlgebra,
    QuotientAlgebra,
    Subspace,
    betti,
    ce_complex,
    jacobi_check,
    phi_sign_check,
    quotient,
)
from .torus import TorusSpec, cross_check_ce, torus_betti
from .witness import build_bumps, degree_one_obstruction, interval, verify_bounds

PROG = "engine"


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
    vec: tuple[tuple[int, Fraction], ...], labels: list[str]
) -> str:
    terms = []
    for j, coeff in vec:
        label = labels[j]
        if label == "1":
            terms.append(str(coeff))
        elif coeff == 1:
            terms.append(label)
        elif coeff == -1:
            terms.append("-" + label)
        else:
            terms.append("%s*%s" % (coeff, label))
    return _term_join(terms)


def _lie_monomial_labels(dim: int, k: int, names: list[str]) -> list[str]:
    labels = []
    for mono in enumerate_basis(dim, k):
        if not mono:
            labels.append("1")
        else:
            labels.append("^".join(names[i] for i in mono))
    return labels


def _run_lie(job: LieJob, check: bool) -> tuple[dict, int]:
    algebra = LieAlgebra.from_brackets(
        job.dim, {(i, j, k): v for i, j, k, v in job.brackets}
    )
    ok, triple = jacobi_check(algebra)
    if not ok:
        raise NotALieAlgebra(triple)
    certificates: dict = {"jacobi": True, "ideal": None}
    target: LieAlgebra | QuotientAlgebra = algebra
    names = ["e%d" % i for i in range(job.dim)]
    if job.ideal_vectors is not None:
        sub = Subspace.span(job.dim, job.ideal_vectors)
        quot = quotient(algebra, sub)  # raises NotAnIdeal when refused
        certificates["ideal"] = True
        target = quot
        names = ["e%d" % c for c in quot.complement]
    complex_ = ce_complex(target)
    report = betti(complex_)
    certificates["d_squared_zero"] = True  # betti() would have raised
    code = 0
    if check:
        twist = phi_sign_check(complex_)
        certificates["sign_twist"] = twist
        if not twist:
            code = 3
    generators = []
    for k, gens in enumerate(report.generators):
        labels = _lie_monomial_labels(report.dim, k, names)
        generators.append([_vector_label(v, labels) for v in gens])
    payload = {
        "mode": "lie",
        "betti": list(report.betti),
        "ranks": list(report.ranks),
        "generators": generators,
        "certificates": certificates,
        "audited_modes": None,
    }
    return payload, code


def _run_torus(spec: TorusSpec, check: bool) -> tuple[dict, int]:
    report = torus_betti(spec)  # raises InvalidSpec when refused
    koszul = []
    for cert in report.acyclicity_certificates:
        entry = {
            "mode": list(cert.mode),
            "modes": cert.modes,
            "ranks": list(cert.ranks),
            "ok": cert.ok,
        }
        if not cert.ok:
            entry["failed_degree"] = cert.failed_degree
        koszul.append(entry)
    certificates: dict = {
        "normalization": report.normalization,
        "transverse_coordinates": [
            report.coordinate_names[c] for c in report.transverse_cols
        ],
        "all_modes_acyclic": report.all_modes_acyclic,
        "koszul": koszul,
    }
    code = 0 if report.all_modes_acyclic else 3
    if check:
        agreed = cross_check_ce(spec)
        certificates["cross_check_ce"] = agreed
        if not agreed:
            code = 3
    payload = {
        "mode": "torus",
        "betti": list(report.betti),
        "ranks": list(report.ranks),
        "generators": [list(g) for g in report.mode_zero_generators],
        "certificates": certificates,
        "audited_modes": report.audited_modes,
    }
    return payload, code


def _run_witness(job: WitnessJob, check: bool) -> tuple[dict, int]:
    family = build_bumps(
        range(job.k_min, job.k_max + 1),
        max_derivative_order=job.max_derivative_order,
        samples_per_interval=job.samples_per_interval,
    )
    report = verify_bounds(family)
    degree_one = degree_one_obstruction()
    certificates = {
        "profile_constants": list(report.profile_constants),
        "relative_slack": report.relative_slack,
        "samples_per_interval": report.samples_per_interval,
        "sup_bounds": [
            {
                "family": r.family,
                "level": r.level,
                "order": r.order,
                "measured": r.measured,
                "bound": r.bound,
            }
            for r in report.sup_records
        ],
        "monotone_violations": [
            {
                "family": v.family,
                "order": v.order,
                "level_from": v.level_from,
                "level_to": v.level_to,
                "ratio": v.ratio,
            }
            for v in report.monotone_violations
        ],
        "forced_levels": [list(pair) for pair in report.forced_levels],
        "lift_obstruction": report.lift_obstruction,
        "intervals": [
            [k, str(interval(k)[0]), str(interval(k)[1])]
            for k in report.k_range
        ],
        "degree_one": {
            "quotient_degree1_dim": degree_one.quotient_degree1_dim,
            "invariant_basic_degree1_dim": (
                degree_one.invariant_basic_degree1_dim
            ),
            "invariant_witness": degree_one.invariant_witness,
            "pullback_surjective_degree1": (
                degree_one.pullback_surjective_degree1
            ),
            "conclusion": degree_one.conclusion,
        },
    }
    payload = {
        "mode": "witness",
        "betti": None,
        "ranks": None,
        "generators": None,
        "certificates": certificates,
        "audited_modes": None,
    }
    return payload, 0


def run_job(config: JobConfig, check: bool = False) -> tuple[dict, int]:
    """Run one parsed job; returns (payload, exit_code).

    Mathematical refusals propagate as exceptions so the caller can
    separate them from ordinary failures.
    """
    if config.mode == "lie":
        return _run_lie(config.lie, check)
    if config.mode == "torus":
        return _run_torus(config.torus, check)
    return _run_witness(config.witness, check)


def canonical_json(payload: dict) -> str:
    """Deterministic serialization: timing dropped, keys sorted."""
    trimmed = {k: v for k, v in payload.items() if k != "timing_seconds"}
    return json.dumps(trimmed, sort_keys=True, indent=2) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_table(payload: dict) -> str:
    lines = ["mode: %s" % payload["mode"]]
    if payload["mode"] in ("lie", "torus"):
        lines.append("betti: %s" % " ".join(str(b) for b in payload["betti"]))
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
            flags = []
            for name in ("jacobi", "ideal", "d_squared_zero", "sign_twist"):
                if name in certs and certs[name] is not None:
                    flags.append("%s=%s" % (name, str(certs[name]).lower()))
            lines.append("certificates: %s" % " ".join(flags))
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["mode"] in ("lie", "torus"):
        writer.writerow(["degree", "betti", "generators"])
        for k, (b, gens) in enumerate(
            zip(payload["betti"], payload["generators"])
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "exact cohomology of group quotients via finite invariant "
            "complexes"
        ),
    )
    parser.add_argument("--input", required=True, help="job file to run")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=("table", "json", "csv"),
        help="report format (default: job file setting, else table)",
    )
    parser.add_argument(
        "--truncation", type=int,
        help="override the audit truncation of a torus job",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run the redundant cross-checks; mismatch exits 3",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        print("%s: cannot read input: %s" % (PROG, exc), file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.truncation is not None and config.torus is not None:
            config = dataclasses.replace(
                config,
                torus=dataclasses.replace(
                    config.torus, truncation=args.truncation
                ),
            )
    except MathematicalRefusal as exc:
        print("%s: refused: %s: %s" % (PROG, type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except (ParseError, ValidationError, ValueError) as exc:
        print("%s: configuration error: %s" % (PROG, exc), file=sys.stderr)
        return 1
    try:
        payload, code = run_job(config, check=args.check)
    except MathematicalRefusal as exc:
        print("%s: refused: %s: %s" % (PROG, type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except EngineError as exc:
        print("%s: internal error: %s" % (PROG, exc), file=sys.stderr)
        return 1
    payload["exit"] = code
    payload["timing_seconds"] = round(time.perf_counter() - started, 6)
    rendered = render(payload, args.format or config.output.format)
    out_path = args.output or config.output.path
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
