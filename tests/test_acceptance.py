"""Acceptance suite: one test per criterion, one printed line each.

Every expected value is either a pinned reference checked elsewhere
against an independent oracle, or recomputed here through a second
route (naive elimination, brute-force enumeration, closed forms).
The bump sups of criterion 7 are not monotone in the level; its
monotonicity clause asserts the exact predicted breaks and the eventual
strict decrease instead (see the comment in test_criterion_07 and the
README).
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from quotientcoh import (
    ExtScalar,
    TorusSpec,
    abelian,
    betti,
    build_bumps,
    ce_complex,
    cross_check_ce,
    degree_one_obstruction,
    heisenberg,
    quotient,
    sl2,
    torus_betti,
    transverse_frame,
    verify_bounds,
)
from quotientcoh.cli import canonical_json
from quotientcoh.record import replace
from quotientcoh.sign_twist import phi_sign_check

from oracles import (
    gauss_rank,
    predicted_monotone_breaks,
    random_lie_algebra,
    random_nonjacobi_table,
)

E = ExtScalar

TORUS_JOB = """\
[torus]
n = 3
foliation = 1,0,0
invariance = 1
truncation = 3
"""


def _report(number: int, description: str, ok: bool) -> None:
    print("ACCEPTANCE %d (%s): %s" % (number, description, "PASS" if ok else "FAIL"))


def _example_spec() -> TorusSpec:
    return TorusSpec(
        n=3,
        foliation_dirs=((E(1), E(0), E(0)),),
        invariance_coords=frozenset({1}),
        truncation=3,
    )


def _kronecker_spec() -> TorusSpec:
    return TorusSpec(n=2, foliation_dirs=((E(1), E(0, 1)),), truncation=3)


def _random_torus_specs(count: int) -> list[TorusSpec]:
    """Deterministic batch of valid specs, half with an alpha entry."""
    rng = random.Random(60822)
    specs = []
    while len(specs) < count:
        n = rng.randint(2, 5)
        p = rng.randint(1, min(2, n - 1))
        with_alpha = len(specs) % 2 == 0
        dirs = []
        for _ in range(p):
            vec = [
                ExtScalar(Fraction(rng.randint(-2, 2)), 0) for _ in range(n)
            ]
            if with_alpha:
                vec[rng.randrange(n)] = ExtScalar(
                    Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 2))
                )
            if all(x == ExtScalar() for x in vec):
                continue
            dirs.append(tuple(vec))
        if len(dirs) < p:
            continue
        invariance = frozenset(
            j for j in range(n) if rng.random() < 0.25
        )
        try:
            spec = TorusSpec(
                n=n,
                foliation_dirs=tuple(dirs),
                invariance_coords=invariance,
                truncation=3,
            )
            from quotientcoh import transverse_frame

            transverse_frame(spec)
        except Exception:
            continue
        specs.append(spec)
    return specs


def _oracle_betti(g) -> tuple[int, ...]:
    """Betti numbers recomputed from naive dense-elimination ranks."""
    c = ce_complex(g)
    n = c.dim
    ranks = [gauss_rank(dk.entries) for dk in c.d]
    out = []
    for k in range(n + 1):
        rk = ranks[k] if k < n else 0
        rk_prev = ranks[k - 1] if k >= 1 else 0
        out.append(comb(n, k) - rk - rk_prev)
    return tuple(out)


def _criteria_234_complexes():
    """Every cochain complex the rank criteria touch, regenerated."""
    complexes = [
        ce_complex(heisenberg()),
        ce_complex(sl2()),
    ]
    for n in range(7):
        complexes.append(ce_complex(abelian(n)))
    for spec in (_example_spec(), _kronecker_spec()):
        complexes.append(
            ce_complex(quotient(abelian(spec.n), transverse_frame(spec).skeleton))
        )
    rng = random.Random(424242)
    for _ in range(50):
        complexes.append(ce_complex(random_lie_algebra(rng, rng.randint(3, 5))))
    return complexes


def test_criterion_01_reference_torus_job():
    started = time.perf_counter()
    report = torus_betti(_example_spec())
    elapsed = time.perf_counter() - started
    ok = (
        report.betti == (1, 2, 1)
        and len(report.betti) == 3  # nothing above degree 2
        and report.all_modes_acyclic
        and elapsed < 1.0
    )
    _report(1, "reference torus job betti (1,2,1) under 1s", ok)
    assert report.betti == (1, 2, 1)
    assert len(report.betti) == 3
    assert report.all_modes_acyclic
    assert elapsed < 1.0, "took %.3fs" % elapsed


def test_criterion_02_cross_check_against_cochain_pipeline():
    ok_example = cross_check_ce(torus_betti(_example_spec()))
    ok_kron = cross_check_ce(torus_betti(_kronecker_spec()))
    _report(2, "torus vs cochain cross-check, both reference specs",
            ok_example and ok_kron)
    assert ok_example
    assert ok_kron


def test_criterion_03_reference_betti_with_oracle():
    cases = [
        (heisenberg(), (1, 2, 2, 1)),
        (sl2(), (1, 0, 0, 1)),
    ]
    for n in range(7):
        cases.append(
            (abelian(n), tuple(comb(n, k) for k in range(n + 1)))
        )
    ok = True
    for g, expected in cases:
        computed = betti(ce_complex(g)).betti
        oracle = _oracle_betti(g)
        ok = ok and computed == expected == oracle
    _report(3, "reference betti tables, oracle-confirmed", ok)
    for g, expected in cases:
        assert betti(ce_complex(g)).betti == expected
        assert _oracle_betti(g) == expected


def test_criterion_04_d_squared_tracks_jacobi():
    rng = random.Random(424242)
    passing_ok = True
    for _ in range(50):
        g = random_lie_algebra(rng, rng.randint(3, 5))
        passing_ok = passing_ok and ce_complex(g).d_squared_violation() is None
    rng2 = random.Random(515151)
    failing_ok = True
    for _ in range(50):
        bad = random_nonjacobi_table(rng2, rng2.randint(3, 5))
        failing_ok = (failing_ok
                      and ce_complex(bad).d_squared_violation() is not None)
    ok = passing_ok and failing_ok
    _report(4, "d.d = 0 iff the table satisfies Jacobi, 50 + 50 tables", ok)
    assert passing_ok
    assert failing_ok


def test_criterion_05_sign_twist_on_every_complex():
    complexes = _criteria_234_complexes()
    ok = all(phi_sign_check(c) for c in complexes)
    _report(5, "sign twist certificate on all %d complexes" % len(complexes), ok)
    assert ok


def test_criterion_06_random_torus_audit():
    started = time.perf_counter()
    specs = _random_torus_specs(20)
    ok = True
    audited_total = 0
    for spec in specs:
        report = torus_betti(replace(spec, truncation=3))
        q = spec.n - spec.p
        ok = ok and report.betti == tuple(comb(q, k) for k in range(q + 1))
        ok = ok and report.all_modes_acyclic
        ok = ok and all(c.ok for c in report.acyclicity_certificates)
        audited_total += report.audited_modes
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(
        6,
        "20 random specs, %d nonzero modes certified, %.2fs"
        % (audited_total, elapsed),
        ok,
    )
    assert ok, "elapsed %.2fs" % elapsed


def test_criterion_07_witness_bounds_and_obstruction():
    started = time.perf_counter()
    fam = build_bumps(range(2, 9), max_derivative_order=4,
                      samples_per_interval=10001)
    report = verify_bounds(fam)  # raises BoundViolated on any failure
    elapsed = time.perf_counter() - started
    bounds_ok = all(
        r.measured <= r.bound * (1 + report.relative_slack)
        for r in report.sup_records
    )
    forced_ok = report.forced_levels == tuple((k, k) for k in range(2, 9))
    obstruction_ok = report.lift_obstruction
    timing_ok = elapsed < 5.0
    # The sups are not monotone in k: the level ratio is
    # exp(-(2k+1)) * 2^(2m), which is 256/e^5 = 1.7249 > 1 at order
    # m = 4 between levels 2 and 3 (and double that for the rescaled
    # family).  What makes sum f_k smooth at 0 is that every sup decays
    # in k, so the clause asserts (a) the reported breaks are exactly
    # those predicted in closed form, with their ratios, and (b) for
    # every family and order the breaks are a prefix of the consecutive
    # level pairs and the last pair is not one: each sup sequence is
    # strictly decreasing from some level on.
    predicted = predicted_monotone_breaks(range(2, 9), 4)
    observed = {
        (v.family, v.order, v.level_from, v.level_to): v.ratio
        for v in report.monotone_violations
    }
    breaks_ok = observed.keys() == predicted.keys() and all(
        math.isclose(ratio, predicted[key], rel_tol=1e-6)
        for key, ratio in observed.items()
    )
    pairs = list(zip(report.k_range, report.k_range[1:]))
    broken = {
        (family, m): [(family, m, a, b) in observed for a, b in pairs]
        for family in ("f", "scaled")
        for m in range(report.max_derivative_order + 1)
    }
    decay_ok = all(
        flags == sorted(flags, reverse=True) and not flags[-1]
        for flags in broken.values()
    )
    ok = (bounds_ok and forced_ok and obstruction_ok and timing_ok
          and breaks_ok and decay_ok)
    _report(
        7,
        "witness bounds, forced levels, obstruction, monotonicity breaks "
        "exactly as predicted, sups eventually decreasing",
        ok,
    )
    assert bounds_ok
    assert forced_ok
    assert obstruction_ok
    assert timing_ok, "took %.3fs" % elapsed
    assert breaks_ok, (
        "monotonicity breaks differ from the closed form: observed %s, "
        "predicted %s"
        % (
            sorted((k, round(r, 4)) for k, r in observed.items()),
            sorted((k, round(r, 4)) for k, r in predicted.items()),
        )
    )
    assert decay_ok, "sups not eventually strictly decreasing: %s" % broken


def test_criterion_08_degree_one_obstruction():
    cert = degree_one_obstruction()
    ok = (
        cert.quotient_degree1_dim == 0
        and cert.invariant_basic_degree1_dim >= 1
        and not cert.pullback_surjective_degree1
        and cert.conclusion == "pullback-not-surjective"
    )
    _report(8, "degree-one pullback obstruction certificate", ok)
    assert ok


def test_criterion_09_byte_identical_reports(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(TORUS_JOB)
    outputs = []
    for run in range(2):
        out = tmp_path / ("report%d.json" % run)
        proc = subprocess.run(
            [
                sys.executable, "-m", "quotientcoh",
                "--input", str(cfg), "--format", "json",
                "--output", str(out),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        outputs.append(canonical_json(payload).encode())
    ok = outputs[0] == outputs[1]
    _report(9, "repeated runs give byte-identical canonical reports", ok)
    assert ok
