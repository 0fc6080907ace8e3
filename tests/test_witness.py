from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quotientcoh import witness
from quotientcoh.cli import main
from quotientcoh.errors import LevelNotRecovered, NonFiniteValue
from quotientcoh.record import fields
from quotientcoh.sturm import root_brackets
from quotientcoh.witness import (
    BumpFamily,
    build_bumps,
    degree_one_obstruction,
    derivative_polynomials,
    interval,
    intervals_are_disjoint,
    verify_bounds,
)

from oracles import (
    bump_polynomials_x,
    exact_profile_constants,
    grid_sup_bruteforce,
)


@pytest.fixture(scope="module")
def family() -> BumpFamily:
    return build_bumps(range(2, 9), max_derivative_order=4,
                       samples_per_interval=10001)


@pytest.fixture(scope="module")
def report(family):
    return verify_bounds(family)


def test_profile_value_at_half(family):
    value = family.phi_derivative(0, np.array([0.5]))[0]
    assert value == pytest.approx(math.exp(-4), rel=1e-12)


def test_profile_vanishes_to_all_orders_at_the_edges(family):
    near_edge = np.array([1e-3, 1.0 - 1e-3])
    for m in range(family.max_derivative_order + 1):
        assert np.max(np.abs(family.phi_derivative(m, near_edge))) < 1e-300


@pytest.mark.parametrize("samples", [2001, 40001])
def test_order_zero_is_the_closed_form_bit_for_bit(samples):
    # phi at order 0 runs the Horner route of every order: P_0 = 1 and
    # 0 * log q add nothing, so each value is exp(-1/q) exactly
    fam = build_bumps(range(2, 4), max_derivative_order=0,
                      samples_per_interval=samples)
    for grid in (fam.s_grid(), fam.level_arguments(3)):
        points = list(grid)
        assert len(points) == samples
        assert fam.phi_derivative(0, grid) == [
            math.exp(-1.0 / (x * (1.0 - x))) for x in points]


def _exact(k):
    return tuple(Fraction(*end) for end in interval(k))


def test_intervals_exact():
    assert _exact(1) == (Fraction(1, 2), Fraction(3, 4))
    assert _exact(2) == (Fraction(1, 4), Fraction(5, 16))
    assert _exact(3) == (Fraction(1, 8), Fraction(1, 8) + Fraction(1, 64))
    # the level-2 interval tops out strictly below the level-1 interval
    assert _exact(2)[1] == Fraction(5, 16) < Fraction(1, 2) == _exact(1)[0]
    # each end is a (numerator, denominator) pair in lowest terms
    for k in range(1, 12):
        assert all(Fraction(*end).as_integer_ratio() == end
                   for end in interval(k))


def test_intervals_are_disjoint_far_down():
    assert intervals_are_disjoint(40)


def test_level3_support_is_inside_its_interval(family):
    left, right = _exact(3)
    # sampled points all fall inside the open interval, exactly
    s = np.asarray(family.s_grid())
    t = 2.0 ** -3 + 2.0 ** -6 * s
    assert float(left) < t.min() and t.max() < float(right)


def test_measured_sups_sit_on_their_bounds(report):
    # same profile grid for the constants and the levels, so each
    # measured sup equals its bound to rounding
    for r in report.sup_records:
        if r.bound == 0:
            assert r.measured == 0
            continue
        assert abs(r.measured / r.bound - 1.0) < 1e-9


def test_bounds_hold_with_slack(report):
    for r in report.sup_records:
        assert r.measured <= r.bound * (1 + report.relative_slack)


def test_sups_decrease_for_low_orders(report):
    table = {
        (r.family, r.level, r.order): r.measured for r in report.sup_records
    }
    for family_name in ("f", "scaled"):
        for m in range(4):
            sups = [table[(family_name, k, m)] for k in range(2, 9)]
            assert all(a > b for a, b in zip(sups, sups[1:])), (
                family_name, m, sups
            )


def test_monotone_violations_are_exactly_the_order4_step(report):
    # the level-to-level ratio of the order-m sup is
    # exp(-(2k+1)) * 2^(2m) for f (twice that for 2^k f), which
    # exceeds 1 only at m = 4, k = 2 -> 3 in this range
    observed = {
        (v.family, v.order, v.level_from, v.level_to)
        for v in report.monotone_violations
    }
    assert observed == {("f", 4, 2, 3), ("scaled", 4, 2, 3)}
    for v in report.monotone_violations:
        predicted = math.exp(-5) * 2 ** 8
        if v.family == "scaled":
            predicted *= 2
        assert v.ratio == pytest.approx(predicted, rel=1e-6)


def test_sups_tend_to_zero_in_k(report):
    # strictly decreasing from level 3 on, and collapsing fast: the
    # squared-exponential damping wins over the 2^(2km) growth
    table = {
        (r.family, r.level, r.order): r.measured for r in report.sup_records
    }
    for family_name in ("f", "scaled"):
        for m in range(5):
            tail = [table[(family_name, k, m)] for k in range(3, 9)]
            assert all(a > b for a, b in zip(tail, tail[1:]))
            assert tail[-1] < 1e-3 * tail[0]


def test_forced_levels_recover_k(report):
    assert report.forced_levels == tuple((k, k) for k in range(2, 9))


def test_forced_level_ratio_is_exact(family):
    for k in family.k_range:
        a = np.asarray(family.bump_values(k, 0))
        positive = a > 0
        assert positive.any()
        ratios = (2.0 ** k * a)[positive] / a[positive]
        assert (ratios == 2.0 ** k).all()


def test_lift_obstruction(report):
    assert report.lift_obstruction


def test_build_bumps_validation():
    with pytest.raises(ValueError):
        build_bumps([])
    with pytest.raises(ValueError):
        build_bumps([0, 1])
    with pytest.raises(ValueError):
        build_bumps([2], max_derivative_order=-1)
    with pytest.raises(ValueError):
        build_bumps([2], samples_per_interval=2)


def test_degree_one_obstruction_certificate():
    cert = degree_one_obstruction()
    assert cert.quotient_degree1_dim == 0
    assert cert.invariant_basic_degree1_dim == 1
    assert cert.invariant_witness == "dx"
    assert not cert.pullback_surjective_degree1
    assert cert.conclusion == "pullback-not-surjective"


def test_derivative_polynomials_match_sympy():
    # P_m = (1-2x)^(m mod 2) S_m(x(1-x)) against sympy's own m-th
    # derivative of exp(-1/q), times q^(2m)/phi, at exact rational points
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    q = x * (1 - x)
    phi = sympy.exp(-1 / q)
    derivative = phi
    for m, s_m in enumerate(derivative_polynomials(6)):
        p_m = sympy.Poly(
            (1 - 2 * x) ** (m % 2) * sum(c * q ** j for j, c in enumerate(s_m)),
            x,
        )
        assert p_m.degree() == (3 * m - 2 if m else 0)
        ratio = derivative * q ** (2 * m) / phi
        points = [sympy.Rational(i, 3 * m + 7) for i in range(1, 3 * m + 7)]
        for r in points:
            assert ratio.xreplace({x: r}) == p_m.eval(r), (m, r)
        derivative = sympy.diff(derivative, x)


def test_derivative_polynomials_match_the_x_expansion():
    # the q-basis recursion against the plain recursion in x, compared
    # exactly at more integer points than the degree 3m - 2
    x_polys = bump_polynomials_x(12)
    for m, s_m in enumerate(derivative_polynomials(12)):
        for x in range(-20, 20):
            q = x * (1 - x)
            lhs = (1 - 2 * x) ** (m % 2) * sum(
                c * q ** j for j, c in enumerate(s_m))
            rhs = sum(c * x ** j for j, c in enumerate(x_polys[m]))
            assert lhs == rhs, (m, x)


def test_profile_constants_agree_with_exact_evaluation_at_order_10():
    # Horner in x on the expanded P_m is off by about 0.3 relative here;
    # the q-basis evaluation must stay on the exact values
    fam = build_bumps([2, 3], max_derivative_order=10,
                      samples_per_interval=2001)
    exact = exact_profile_constants(10, 2001)
    for m, (c, e) in enumerate(zip(fam.profile_constants(), exact)):
        assert c == pytest.approx(e, rel=1e-9), m


@pytest.mark.parametrize("samples", [3, 10001])
def test_profile_constants_stay_within_the_stated_error_up_to_order_16(
        samples):
    # config.MAX_DERIVATIVE_ORDER and the README state the measured drift:
    # 1e-10 relative through order 11, 5e-8 through order 16 (C_16 is
    # off by 3.6e-8 on 3 points), so past the 1e-9 slack from order 12
    fam = build_bumps([2, 3], max_derivative_order=16,
                      samples_per_interval=samples)
    constants = fam.profile_constants()
    exact = exact_profile_constants(16, samples, min_order=11)
    for m, e in enumerate(exact, start=11):
        assert constants[m] == pytest.approx(
            e, rel=1e-10 if m == 11 else 5e-8), m


def test_verify_bounds_does_level_work_once(monkeypatch, family):
    # the profile constants once, per level one grid, and one candidate
    # set per grid and order: level recovery reads the order-0 sups of
    # the sup tables instead of sampling the levels again
    calls = {"profile_constants": 0, "level_arguments": 0,
             "peak_candidates": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("profile_constants", "level_arguments", "peak_candidates"):
        monkeypatch.setattr(BumpFamily, name, counted(
            name, getattr(BumpFamily, name)))
    report = verify_bounds(family)
    levels = len(family.k_range)
    orders = family.max_derivative_order + 1
    assert calls == {"profile_constants": 1, "level_arguments": levels,
                     "peak_candidates": (levels + 1) * orders}
    assert report.forced_levels == tuple((k, k) for k in family.k_range)
    assert report.lift_obstruction


def _recast(cls, base: BumpFamily) -> BumpFamily:
    """base's fields in an instance of the BumpFamily subclass cls."""
    return cls(**{name: getattr(base, name) for name in fields(base)})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_derivative_fails_closed(value):
    # every evaluation of phi'' has one bad sample, so C_2 is bad
    class Poisoned(BumpFamily):
        def phi_derivative(self, order, s):
            out = super().phi_derivative(order, s)
            if order == 2:
                out[len(out) // 2] = value
            return out

    base = build_bumps([2, 3, 4], max_derivative_order=3,
                       samples_per_interval=501)
    with pytest.raises(NonFiniteValue, match="profile constant C_2"):
        verify_bounds(_recast(Poisoned, base))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_level_sup_fails_closed(value):
    # the profile constants are clean; only the level-3 samples are bad
    class BadLevel(BumpFamily):
        def bump_values(self, k, order=0, s=None):
            out = super().bump_values(k, order, s)
            if k == 3:
                out[len(out) // 2] = value
            return out

    base = build_bumps([2, 3, 4], max_derivative_order=2,
                       samples_per_interval=501)
    with pytest.raises(NonFiniteValue, match="sup of f at level k=3"):
        verify_bounds(_recast(BadLevel, base))


def test_order_16_bounds_hold():
    # the highest order a job file may ask for
    fam = build_bumps([2, 3], max_derivative_order=16,
                      samples_per_interval=2001)
    report = verify_bounds(fam)
    assert {r.order for r in report.sup_records} == set(range(17))


def test_overflowing_level_scale_fails_closed():
    # 2^(2km) overflows a float once 2km > 1023: k = 40, m = 13
    fam = build_bumps([40, 41], max_derivative_order=13,
                      samples_per_interval=101)
    with pytest.raises(NonFiniteValue, match="level k=40, order m=13"):
        verify_bounds(fam)


def test_non_finite_witness_job_exits_one(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "[witness]\nk_min = 40\nk_max = 41\n"
        "max_derivative_order = 13\nsamples_per_interval = 101\n"
    )
    out = tmp_path / "report.json"
    code = main(["--input", str(cfg), "--format", "json",
                 "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert "not finite" in capsys.readouterr().err


def test_underflowing_level_is_not_recovered():
    # exp(-28^2) underflows to 0.0: the order-0 sup of level 28 is 0.0,
    # while level 27 keeps subnormal positive samples
    fam = build_bumps([27, 28], max_derivative_order=0,
                      samples_per_interval=101)
    with pytest.raises(LevelNotRecovered,
                       match="no positive samples at level 28:"):
        verify_bounds(fam)


def test_underflowing_level_exits_one(tmp_path, capsys):
    # exp(-28^2) underflows to 0.0, so level 28 has no positive sample
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "[witness]\nk_min = 27\nk_max = 28\n"
        "max_derivative_order = 0\nsamples_per_interval = 101\n"
    )
    out = tmp_path / "report.json"
    code = main(["--input", str(cfg), "--format", "json",
                 "--output", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("engine: internal error: ")
    assert "no positive samples at level 28" in err


SWEEP_SAMPLES = (3, 4, 101, 2000, 2001)
SWEEP_LEVELS = (1, 2, 8, 40, 50)
SWEEP_ORDER = 16


def _level_grid(k: int, s) -> list:
    """The level-k preimages of the unit grid s, computed as the engine
    documents them, keeping those that stay inside (0, 1).  At k = 40
    and 50 they are coarse and some coincide; at k = 50 the outermost
    ones of a fine grid round onto the ends."""
    left, width = 2.0 ** -k, 2.0 ** (-2 * k)
    points = [(left + width * x - left) * 2.0 ** (2 * k) for x in s]
    return [x for x in points if 0.0 < x < 1.0]


def _sweep_grids():
    """(label, samples, grid) for the profile grid and the unscaled
    level grids of every swept sample count."""
    for n in SWEEP_SAMPLES:
        s = [i / (n + 1) for i in range(1, n + 1)]
        yield ("profile", n, s)
        for k in SWEEP_LEVELS:
            yield ("level %d" % k, n, _level_grid(k, s))


@pytest.fixture(scope="module")
def oracle_sups():
    """{(label, samples, order): full-scan sup}, computed once."""
    return {
        (label, n, m): grid_sup_bruteforce(m, grid)
        for label, n, grid in _sweep_grids()
        for m in range(SWEEP_ORDER + 1)
    }


def _sweep_failures(oracle_sups) -> list:
    """The sweep cells where the engine's sup misses the full scan by
    more than 1e-12 relative."""
    failures = []
    families = {
        n: build_bumps([2, 3], max_derivative_order=SWEEP_ORDER,
                       samples_per_interval=n)
        for n in SWEEP_SAMPLES
    }
    for label, n, grid in _sweep_grids():
        fam = families[n]
        if label == "profile":
            assert list(fam.s_grid()) == grid
        for m in range(SWEEP_ORDER + 1):
            got = fam.grid_sup(m, grid)
            want = oracle_sups[(label, n, m)]
            if not abs(got - want) <= 1e-12 * want:
                failures.append((label, n, m, got, want))
    return failures


def test_grid_sups_match_the_full_scan(oracle_sups):
    assert _sweep_failures(oracle_sups) == []


def test_level_grids_of_the_sweep_are_the_engines():
    # the sweep's level grids are the ones the engine samples, wherever
    # the engine can sample the level at all
    for n in SWEEP_SAMPLES:
        fam = build_bumps(SWEEP_LEVELS, max_derivative_order=0,
                          samples_per_interval=n)
        s = fam.s_grid()
        for k in SWEEP_LEVELS:
            grid = _level_grid(k, s)
            if len(grid) == n:
                assert list(fam.level_arguments(k)) == grid, (n, k)
            else:
                with pytest.raises(LevelNotRecovered):
                    fam.level_arguments(k)


def test_dropping_a_critical_bracket_fails_the_sweep(monkeypatch,
                                                     oracle_sups):
    # the brackets are load-bearing: without the first one of each
    # order (x = 1/2 for phi itself) some grid sup is missed
    cover = witness.critical_brackets

    def dropped(*args):
        return cover(*args)[1:]

    monkeypatch.setattr(witness, "critical_brackets", dropped)
    assert _sweep_failures(oracle_sups)


def _fraction_brackets(poly, width):
    """root_brackets at a Fraction width, each bracket end, a
    (numerator, denominator) pair, read back as a Fraction."""
    return tuple((Fraction(*a), Fraction(*b))
                 for a, b in root_brackets(poly, width.as_integer_ratio()))


@pytest.mark.parametrize("m", range(18))
def test_root_brackets_hold_the_roots_of_s_m(m):
    # sympy isolates each root of S_m in (0, 1/4] to within 2^-36 (2^-64
    # when that is not enough); every such interval lies inside exactly
    # one bracket of width <= 2^-30, and there are as many brackets as
    # sympy counts roots
    sympy = pytest.importorskip("sympy")
    s_m = derivative_polynomials(m)[m]
    quarter = Fraction(1, 4)
    width = Fraction(1, 2 ** 30)
    brackets = _fraction_brackets(s_m, width)
    poly = sympy.Poly(list(reversed(s_m)), sympy.symbols("q"))
    assert len(brackets) == poly.count_roots(0, sympy.Rational(1, 4))
    for a, b in brackets:
        assert 0 < a <= b <= quarter and b - a <= width
    # disjoint, in increasing order of value
    assert all(b < c for (_, b), (c, _) in zip(brackets, brackets[1:]))
    isolated = poly.intervals(inf=0, sup=sympy.Rational(1, 4),
                              eps=sympy.Rational(1, 2 ** 36))
    assert len(isolated) == len(brackets)
    for (lo, hi), _ in isolated:
        for eps in (None, sympy.Rational(1, 2 ** 64)):
            if eps is not None:
                # the root sits within 2^-36 of a bracket end
                lo, hi = poly.refine_root(lo, hi, eps=eps)
            inside = sum(1 for a, b in brackets
                         if a <= Fraction(int(lo.p), int(lo.q))
                         and Fraction(int(hi.p), int(hi.q)) <= b)
            if inside:
                break
        assert inside == 1, (m, lo, hi)


def test_critical_brackets_hold_every_critical_point():
    # the critical points of phi^(m) are the roots of P_(m+1) in (0, 1),
    # all simple.  P_(m+1) vanishes on each point bracket and changes
    # sign across every other one, so each of the disjoint brackets
    # holds a root; there are as many brackets as sympy counts roots,
    # so each holds exactly one and none is missed
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    width = 1.0 / 2002
    polys = derivative_polynomials(SWEEP_ORDER + 1)
    for m, p_x in enumerate(bump_polynomials_x(SWEEP_ORDER + 1)[1:]):
        brackets = witness.critical_brackets(polys[m + 1], m % 2 == 0,
                                             width)
        assert all(lo <= hi < nxt for (lo, hi), (nxt, _) in
                   zip(brackets, brackets[1:])), m
        assert all(0 < lo and hi < 1 and hi - lo <= 2 * width
                   for lo, hi in brackets), m

        def sign(point):
            value = Fraction(0)
            for c in reversed(p_x):
                value = value * Fraction(point) + c
            return (value > 0) - (value < 0)

        for lo, hi in brackets:
            if lo == hi:
                assert sign(lo) == 0, (m, lo)
            else:
                assert sign(lo) * sign(hi) < 0, (m, lo, hi)
        poly = sympy.Poly(list(reversed(p_x)), x)
        assert len(brackets) == poly.count_roots(0, 1), m


def test_a_root_on_a_bisection_point_gets_its_own_bracket():
    # (8q - 1)(16q - 3)(5q - 1): 1/8 and 3/16 are midpoints the
    # bisection of (0, 1/4] lands on, 1/5 is not dyadic
    poly = (-3, 55, -328, 640)
    width = Fraction(1, 2 ** 20)
    brackets = _fraction_brackets(poly, width)
    assert brackets[:2] == ((Fraction(1, 8), Fraction(1, 8)),
                            (Fraction(3, 16), Fraction(3, 16)))
    (a, b), = brackets[2:]
    assert a < Fraction(1, 5) < b and b - a <= width
    # a double root at 1/8 counts once; a root at the upper end counts
    squared = (1, -21, 144, -320)   # (8q - 1)^2 (5q - 1)
    assert _fraction_brackets(squared, width)[0] == (
        Fraction(1, 8), Fraction(1, 8))
    assert len(_fraction_brackets(squared, width)) == 2
    assert _fraction_brackets((-1, 4), width) == (
        (Fraction(1, 4), Fraction(1, 4)),)
    # the ends come back as dyadic pairs in lowest terms
    assert root_brackets(poly, (1, 2 ** 20))[:2] == (((1, 8), (1, 8)),
                                                     ((3, 16), (3, 16)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_bad_value_anywhere_among_the_candidates_fails_closed(value):
    # max() skips a NaN unless it comes first; the sup must not
    class LastBad(BumpFamily):
        def phi_derivative(self, order, s):
            out = super().phi_derivative(order, s)
            if order == 1:
                out[-1] = value
            return out

    base = build_bumps([2, 3], max_derivative_order=1,
                       samples_per_interval=501)
    with pytest.raises(NonFiniteValue, match="profile constant C_1"):
        verify_bounds(_recast(LastBad, base))


def test_an_overflowing_exponential_fails_closed():
    # exp(-1/q - 2m log q) overflows a float from order 86 on; the value
    # becomes inf, never an exception or a finite number.  The family is
    # built without critical brackets (only the grid ends are sampled),
    # since covering the roots of S_91 is not what is tested here.
    fam = BumpFamily((2, 3), 90, 101, derivative_polynomials(90),
                     ((),) * 91)
    assert not math.isfinite(fam.phi_derivative(90, [0.01])[0])
    with pytest.raises(NonFiniteValue, match="profile constant C_8[6-9]"):
        verify_bounds(fam)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_grid_indexing_matches_its_list(n):
    fam = build_bumps([3], max_derivative_order=0, samples_per_interval=n)
    for grid in (fam.s_grid(), fam.level_arguments(3)):
        full = list(grid)
        assert len(full) == len(grid) == grid.size == n
        for i in (0, 1, 4094, n - 1, -1, -2, -4095, -n):
            assert grid[i].hex() == full[i].hex(), i
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                grid[i]
        for part in (slice(None), slice(4090, 4100), slice(-5, None),
                     slice(None, -4096), slice(3, n, 7), slice(None, None, -1),
                     slice(-1, -9, -3), slice(n, None), slice(5, 2)):
            got = grid[part]
            assert isinstance(got, witness.Points)
            assert [x.hex() for x in got] == [x.hex() for x in full[part]]
    unit = [i / (n + 1) for i in range(1, n + 1)]
    assert list(fam.s_grid()) == unit
    assert list(fam.level_arguments(3)) == _level_grid(3, unit)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_bad_order0_level_sample_fails_closed(value):
    # a > 0.0 is false for NaN, so a positivity test alone would pass
    # over this sample.  It is an order-0 peak candidate of level 4 and
    # of no other grid, so the order-0 sup of level 4 reads it and no
    # other sup does
    base = build_bumps([2, 3, 4], max_derivative_order=2,
                       samples_per_interval=5001)
    grids = {k: base.level_arguments(k) for k in base.k_range}
    elsewhere = set(base.s_grid()) | set(grids[2]) | set(grids[3])
    target = next(x for x in base.peak_candidates(0, grids[4])
                  if x not in elsewhere)

    class BadSample(BumpFamily):
        def phi_derivative(self, order, s):
            out = super().phi_derivative(order, s)
            if order == 0:
                out = [value if x == target else v for x, v in zip(s, out)]
            return out

    bad = _recast(BadSample, base)
    with pytest.raises(NonFiniteValue, match="level k=4"):
        verify_bounds(bad)


def test_verify_bounds_memory_does_not_grow_with_the_grid():
    # verify_bounds holds only peak candidates, whose number does not
    # grow with the grid; a list of the 40,001 points of a level alone
    # is over 1.2 MB
    peaks = []
    for n in (2001, 40001):
        fam = build_bumps([2, 3, 4, 5], max_derivative_order=2,
                          samples_per_interval=n)
        tracemalloc.start()
        try:
            verify_bounds(fam)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 409_600, peaks


def test_verify_bounds_evaluates_phi_at_a_fixed_number_of_points():
    # phi_derivative is read only at the peak candidates, whose number
    # is set by the critical brackets, not by the grid size
    counts = []
    for n in (2001, 40001):
        seen = []

        class Counting(BumpFamily):
            def phi_derivative(self, order, s):
                seen.append(len(s))
                return super().phi_derivative(order, s)

        base = build_bumps([2, 3, 4, 5], max_derivative_order=4,
                           samples_per_interval=n)
        verify_bounds(_recast(Counting, base))
        counts.append(sum(seen))
    assert counts[1] <= counts[0], counts
