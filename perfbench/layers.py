"""Per-layer metrics from the spans and counters tracer.py records.

A time is the median, over the jobs that call the layer, of its self
time in one job: a span's duration minus the durations of its child
spans.  A count is summed over the run, and a ratio is taken over the
run's totals.  A layer that no job of the workload calls reports 0.
"""

from __future__ import annotations

import statistics

# metric -> span names whose self times it adds up per job
SELF_TIMES = {
    "config.parse_config_s": ("config.parse_config",),
    "cli.main_self_s": ("cli.main",),
    "cli.run_job_self_s": ("cli.run_job",),
    "cli.render_s": ("cli.render",),
    "lie.jacobi_check_s": ("lie.jacobi_check",),
    "lie.quotient_s": ("lie.quotient",),
    "lie.ce_complex_s": ("lie.ce_complex",),
    "lie.d_squared_violation_s": ("lie.d_squared_violation",),
    "lie.betti_self_s": ("lie.betti",),
    "lie.phi_sign_check_s": ("lie.phi_sign_check",),
    "scalars.rank_s": ("scalars.rank",),
    "scalars.nullspace_basis_s": ("scalars.nullspace_basis",),
    "scalars.rref_s": ("scalars.rref",),
    "torus.surviving_modes_s": ("torus.surviving_modes",),
    # building a class's mode complex is part of certifying it
    "torus.koszul_certificate_s": ("torus.koszul_certificate",
                                   "torus.build_mode_complex"),
    "torus.torus_betti_self_s": ("torus.torus_betti",),
    "witness.build_bumps_s": ("witness.build_bumps",),
    "witness.verify_bounds_s": ("witness.verify_bounds",),
}
# inclusive, so that the torus audit it repeats shows in it
INCLUSIVE_TIMES = {"torus.cross_check_ce_s": "torus.cross_check_ce"}
SPAN_COUNTS = {
    "scalars.rank_calls": "scalars.rank",
    "torus.koszul_computed": "torus.koszul_certificate",
    "torus.transverse_frame_calls": "torus.transverse_frame",
}
COUNTERS = ("exterior.wedge_insert", "exterior.remove_pair",
            "witness.phi_derivative_calls", "witness.grid_points_evaluated")


def self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _) in enumerate(spans)]


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Every per-layer metric as name -> (value, unit).

    traced holds every job's traced run; plain holds untraced runs of
    every third job (0, 3, 6, ...), paired with traced[::3].
    """
    traces = [r["trace"] for r in traced if "trace" in r]
    per_job: dict[str, list[float]] = {m: [] for m in SELF_TIMES}
    per_job.update({m: [] for m in INCLUSIVE_TIMES})
    span_counts = {m: 0 for m in SPAN_COUNTS}
    counters = {name: 0 for name in COUNTERS}
    cells = nonzero = scanned = survived = 0
    for t in traces:
        spans = t["spans"]
        selfs = self_times(spans)
        for metric, names in SELF_TIMES.items():
            hits = [s for s, span in zip(selfs, spans) if span[0] in names]
            if hits:
                per_job[metric].append(sum(hits))
        for metric, name in INCLUSIVE_TIMES.items():
            hits = [span[2] - span[1] for span in spans if span[0] == name]
            if hits:
                per_job[metric].append(sum(hits))
        for metric, name in SPAN_COUNTS.items():
            span_counts[metric] += sum(1 for span in spans if span[0] == name)
        for name in COUNTERS:
            counters[name] += t["counters"].get(name, 0)
        cells += t["differential_cells"]
        nonzero += t["differential_nonzero"]
        for box, survivors in t["scans"]:
            scanned += box
            survived += survivors
    # every scan keeps the zero mode, which is not audited
    audited = survived - sum(len(t["scans"]) for t in traces)
    computed = span_counts["torus.koszul_computed"]
    metrics = {m: (_median_or_zero(v), "s") for m, v in per_job.items()}
    metrics.update({m: (float(v), "count") for m, v in span_counts.items()})
    metrics.update({
        "exterior.wedge_insert_calls":
            (float(counters["exterior.wedge_insert"]), "count"),
        "exterior.remove_pair_calls":
            (float(counters["exterior.remove_pair"]), "count"),
        "witness.phi_derivative_calls":
            (float(counters["witness.phi_derivative_calls"]), "count"),
        "witness.grid_points_evaluated":
            (float(counters["witness.grid_points_evaluated"]), "count"),
        "lie.differential_cells": (float(cells), "count"),
        "lie.differential_nonzero_ratio":
            (nonzero / cells if cells else 0.0, "ratio"),
        "torus.modes_scanned": (float(scanned), "count"),
        "torus.survival_ratio":
            (survived / scanned if scanned else 0.0, "ratio"),
        "torus.koszul_reuse_ratio":
            ((audited - computed) / audited if audited > 0 else 0.0, "ratio"),
        "cli.report_bytes": (float(sum(r["bytes"] for r in traced)), "bytes"),
        "main.process_overhead_s": (_median_or_zero(
            [r["wall"] - r["trace"]["import_s"] - r["trace"]["main_s"]
             for r in traced if "trace" in r]), "s"),
        "trace.overhead_s": (statistics.median(
            t["wall"] - p["wall"] for p, t in zip(plain, traced[::3])), "s"),
    })
    return metrics
