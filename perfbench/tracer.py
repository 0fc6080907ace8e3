"""Run one engine job with timing wrappers around each layer's public calls.

    python perfbench/tracer.py SPANS_OUT engine-args...

The wrappers are installed from here, not from the engine: each public
function is replaced under the name its caller looks it up by (modules
import functions by name, so ``quotientcoh.lie.rank`` and
``quotientcoh.torus.rank`` are wrapped separately), and methods are
patched on their class.  Spans (name, start, end, parent) are kept in
memory and written to SPANS_OUT as JSON when the job ends, together with
the hot-function counters, the sizes of the differentials built and the
mode boxes scanned.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> the (module, attribute) lookups that lead to it
SPANNED = {
    "config.parse_config": [("cli", "parse_config")],
    "cli.run_job": [("cli", "run_job")],
    "cli.render": [("cli", "render")],
    "lie.jacobi_check": [("cli", "jacobi_check")],
    "lie.quotient": [("cli", "quotient"), ("torus", "quotient")],
    "lie.ce_complex": [("cli", "ce_complex"), ("torus", "ce_complex")],
    "lie.betti": [("cli", "betti"), ("torus", "lie_betti")],
    "lie.phi_sign_check": [("cli", "phi_sign_check")],
    "scalars.rank": [("lie", "rank"), ("torus", "rank")],
    "scalars.rref": [("lie", "rref"), ("torus", "rref"), ("scalars", "rref")],
    "scalars.nullspace_basis": [("lie", "nullspace_basis")],
    "torus.torus_betti": [("cli", "torus_betti"), ("torus", "torus_betti")],
    "torus.cross_check_ce": [("cli", "cross_check_ce")],
    "torus.surviving_modes": [("torus", "surviving_modes")],
    "torus.transverse_frame": [("torus", "transverse_frame")],
    "torus.build_mode_complex": [("torus", "build_mode_complex")],
    "torus.koszul_certificate": [("torus", "koszul_certificate")],
    "witness.build_bumps": [("cli", "build_bumps")],
    "witness.verify_bounds": [("cli", "verify_bounds")],
}
# hot functions get a counter, not a span
COUNTED = {
    "exterior.wedge_insert": [("lie", "wedge_insert"),
                              ("torus", "wedge_insert")],
    "exterior.remove_pair": [("lie", "remove_pair")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.complexes: list = []
        self.scans: list[tuple[int, int]] = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    from quotientcoh import cli, lie, scalars, torus, witness

    modules = {"cli": cli, "lie": lie, "scalars": scalars, "torus": torus}
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.counter)):
        for name, sites in table.items():
            for module, attr in sites:
                target = modules[module]
                setattr(target, attr, make(name, getattr(target, attr)))

    d_squared = lie.CochainComplex.d_squared_violation
    lie.CochainComplex.d_squared_violation = tracer.span(
        "lie.d_squared_violation", d_squared)

    # results whose sizes become counts; measured after the job so the
    # counting does not land inside any span
    for module in (cli, torus):
        build = module.ce_complex

        def keep_complex(x, _build=build):
            result = _build(x)
            tracer.complexes.append(result)
            return result

        module.ce_complex = keep_complex

    survivors = torus.surviving_modes

    def keep_scan(spec, bound):
        result = survivors(spec, bound)
        free = spec.n - len(spec.invariance_coords)
        tracer.scans.append(((2 * bound + 1) ** free, len(result)))
        return result

    torus.surviving_modes = keep_scan

    phi = witness.BumpFamily.phi_derivative
    counters = tracer.counters
    counters["witness.phi_derivative_calls"] = 0
    counters["witness.grid_points_evaluated"] = 0

    def counted_phi(self, order, s):
        counters["witness.phi_derivative_calls"] += 1
        counters["witness.grid_points_evaluated"] += int(s.size)
        return phi(self, order, s)

    witness.BumpFamily.phi_derivative = counted_phi


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    before_import = time.perf_counter()
    from quotientcoh import cli

    imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    main_started = time.perf_counter()
    code = tracer.span("cli.main", cli.main)(argv)
    main_ended = time.perf_counter()
    cells = nonzero = 0
    for complex_ in tracer.complexes:
        for d in complex_.d:
            cells += d.rows * d.cols
            nonzero += sum(1 for row in d.entries for x in row if x != 0)
    with open(spans_out, "w") as fh:
        json.dump({
            "import_s": imported - before_import,
            "main_s": main_ended - main_started,
            "spans": tracer.spans,
            "counters": tracer.counters,
            "differential_cells": cells,
            "differential_nonzero": nonzero,
            "scans": tracer.scans,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
