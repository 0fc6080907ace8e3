from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from quotientcoh import (
    ExtScalar,
    InvalidSpec,
    Mode,
    ModeComplex,
    ModeKilled,
    TorusSpec,
    abelian,
    build_mode_complex,
    cross_check_ce,
    koszul_certificate,
    surviving_modes,
    survives,
    torus_betti,
    transverse_frame,
)
from quotientcoh.scalars import ExactMatrix, rank
from quotientcoh.torus import rational_skeleton

from oracles import ce_matrix_bruteforce, gauss_rank

E = ExtScalar


def _ints(*values):
    return tuple(E(v) for v in values)


def example_spec(truncation=3):
    """T^3 with one leafwise axis direction and invariance in coordinate 1."""
    return TorusSpec(
        n=3,
        foliation_dirs=(_ints(1, 0, 0),),
        invariance_coords=frozenset({1}),
        truncation=truncation,
    )


def kronecker_spec(truncation=3):
    """T^2 with the dense line of slope alpha."""
    return TorusSpec(
        n=2, foliation_dirs=((E(1), E(0, 1)),), truncation=truncation
    )


def test_survives_examples():
    spec = example_spec()
    assert survives((0, 0, 0), spec)
    assert survives((0, 0, 5), spec)
    assert not survives((1, 0, 0), spec)
    assert not survives((0, 1, 0), spec)
    assert not survives((2, 0, 3), spec)
    kron = kronecker_spec()
    assert survives((0, 0), kron)
    assert not survives((1, 0), kron)
    assert not survives((0, 1), kron)
    assert not survives((3, -2), kron)


def _lattice_specs():
    """Specs for the lattice enumeration: fixed corner cases, then seeded
    random ones with rational denominators, alpha parts and invariance."""
    specs = [
        example_spec(),
        kronecker_spec(),
        TorusSpec(
            n=3,
            foliation_dirs=((E(1), E(2), E(Fraction(1, 2))),),
            truncation=2,
        ),
        TorusSpec(
            n=4,
            foliation_dirs=(
                (E(1), E(0), E(1), E(0)),
                (E(0), E(1), E(0, 1), E(0)),
            ),
            invariance_coords=frozenset({3}),
            truncation=2,
        ),
        # every coordinate invariant: only the zero mode survives
        TorusSpec(
            n=3,
            foliation_dirs=(_ints(1, 1, 0),),
            invariance_coords=frozenset({0, 1, 2}),
            truncation=3,
        ),
        # (1 + alpha) * (1, 2, 1/2, 0): the rational and alpha rows agree
        TorusSpec(
            n=4,
            foliation_dirs=(
                (E(1, 1), E(2, 2), E(Fraction(1, 2), Fraction(1, 2)), E(0)),
            ),
            truncation=3,
        ),
        # the alpha part of each direction is the rational part of the other
        TorusSpec(
            n=4,
            foliation_dirs=(
                (E(1), E(0, 1), E(0), E(1)),
                (E(0, 1), E(1), E(0), E(0, 1)),
            ),
            truncation=3,
        ),
        # directions living on an invariance coordinate
        TorusSpec(
            n=3,
            foliation_dirs=((E(0), E(Fraction(2, 3), 1), E(0)),),
            invariance_coords=frozenset({1}),
            truncation=1,
        ),
    ]
    rng = random.Random(2718)
    for i in range(24):
        n = rng.randint(1, 4)
        dirs = []
        for _ in range(rng.randint(0, min(2, n))):
            rat = [
                Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                if rng.random() < 0.6 else Fraction(0)
                for _ in range(n)
            ]
            style = rng.choice(["rational", "alpha", "dependent"])
            if style == "rational":
                irr = [Fraction(0)] * n
            elif style == "alpha":
                irr = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.4
                       else Fraction(0) for _ in range(n)]
            else:
                # alpha part a multiple of the rational part
                irr = [Fraction(rng.randint(-2, 2), 2) * x for x in rat]
            vec = tuple(E(a, b) for a, b in zip(rat, irr))
            if not all(x.is_zero() for x in vec):
                dirs.append(vec)
        inv = frozenset(j for j in range(n) if rng.random() < 0.25)
        specs.append(TorusSpec(
            n=n, foliation_dirs=tuple(dirs), invariance_coords=inv,
            truncation=i % 4,
        ))
    return specs


def test_survives_matches_bruteforce_enumeration():
    for spec in _lattice_specs():
        bound = spec.truncation
        expected = [
            m
            for m in product(range(-bound, bound + 1), repeat=spec.n)
            if survives(m, spec)
        ]
        assert surviving_modes(spec, bound) == expected, spec


def test_transverse_frame_examples():
    frame = transverse_frame(example_spec())
    assert frame.pivot_cols == (0,)
    assert frame.free_cols == (1, 2)
    kron = transverse_frame(kronecker_spec())
    assert kron.pivot_cols == (0,)
    assert kron.free_cols == (1,)


def test_transverse_frame_rejects_dependence():
    with pytest.raises(InvalidSpec):
        transverse_frame(
            TorusSpec(n=2, foliation_dirs=(_ints(1, 0), _ints(2, 0)))
        )
    # dependence hidden behind alpha: rows (1, alpha) and (2, 2*alpha)
    with pytest.raises(InvalidSpec):
        transverse_frame(
            TorusSpec(
                n=2,
                foliation_dirs=((E(1), E(0, 1)), (E(2), E(0, 2))),
            )
        )


def test_zero_direction_is_rejected():
    with pytest.raises(InvalidSpec):
        TorusSpec(n=2, foliation_dirs=(_ints(0, 0),))


def test_mode_complex_example():
    spec = example_spec()
    mc = build_mode_complex((0, 0, 1), spec)
    assert mc.transverse_cols == (1, 2)
    assert mc.mode.transverse == (0, 1)
    # 1 -> dz and dy -> -dy^dz, dz -> 0
    assert mc.d_matrices[0].entries == ((Fraction(0),), (Fraction(1),))
    assert mc.d_matrices[1].entries == ((Fraction(-1), Fraction(0)),)


def test_mode_complex_rejects_killed_modes():
    spec = example_spec()
    with pytest.raises(ModeKilled):
        build_mode_complex((1, 0, 0), spec)
    with pytest.raises(ModeKilled):
        build_mode_complex((0, 2, 0), spec)


def test_koszul_certificate_examples():
    spec = example_spec()
    cert = koszul_certificate(build_mode_complex((0, 0, 1), spec))
    assert cert.ranks == (1, 1)
    assert cert.ok
    assert cert.failed_degree is None
    free = TorusSpec(n=2, truncation=3)
    cert2 = koszul_certificate(build_mode_complex((1, 0), free))
    assert cert2.ranks == (1, 1)
    assert cert2.ok


def test_koszul_certificate_fails_on_a_non_complex():
    # ranks (1, 1) make every Betti number zero, but d_1 d_0 = 2
    mc = ModeComplex(
        Mode((1, 1), (1, 1)),
        (0, 1),
        (ExactMatrix.from_rows([[1], [1]], cols=1),
         ExactMatrix.from_rows([[1, 1]], cols=2)),
    )
    cert = koszul_certificate(mc)
    assert cert.ranks == (1, 1)
    assert not cert.ok
    assert cert.failed_degree == 1


def test_koszul_rejects_zero_mode():
    with pytest.raises(ValueError):
        koszul_certificate(build_mode_complex((0, 0, 0), example_spec()))


def test_mode_complex_d_squared_is_zero():
    rng = random.Random(606)
    free = TorusSpec(n=4, truncation=3)
    for _ in range(20):
        mode = tuple(rng.randint(-3, 3) for _ in range(4))
        if all(m == 0 for m in mode):
            continue
        mc = build_mode_complex(mode, free)
        for k in range(len(mc.d_matrices) - 1):
            assert (mc.d_matrices[k + 1] @ mc.d_matrices[k]).is_zero()


def test_mode_complexes_match_the_weighted_oracle():
    # a mode complex is the weight-w complex of the abelian algebra R^q,
    # checked against the determinant definition on random specs
    checked = 0
    for spec in _lattice_specs():
        try:
            q = len(transverse_frame(spec).free_cols)
        except InvalidSpec:
            continue
        for mode in surviving_modes(spec, min(spec.truncation, 1))[:4]:
            mc = build_mode_complex(mode, spec)
            assert len(mc.d_matrices) == q
            for k, dk in enumerate(mc.d_matrices):
                oracle = ce_matrix_bruteforce(
                    abelian(q), k, mc.mode.transverse)
                assert dk == ExactMatrix.from_rows(oracle, cols=comb(q, k))
            checked += any(mode)
    assert checked >= 10


def test_torus_betti_example():
    report = torus_betti(example_spec())
    assert report.betti == (1, 2, 1)
    assert report.transverse_cols == (1, 2)
    assert report.mode_zero_generators == (("1",), ("dy", "dz"), ("dy^dz",))
    assert report.audited_modes == 6
    assert report.all_modes_acyclic
    assert all(cert.ok for cert in report.acyclicity_certificates)
    assert report.ranks == (0, 0)


def test_torus_betti_kronecker():
    report = torus_betti(kronecker_spec())
    assert report.betti == (1, 1)
    # only the zero mode survives, so the audit list is empty
    assert report.audited_modes == 0
    assert report.all_modes_acyclic


def test_torus_betti_no_constraints():
    report = torus_betti(TorusSpec(n=2, truncation=2))
    assert report.betti == (1, 2, 1)
    assert report.audited_modes == (5 * 5) - 1
    assert report.all_modes_acyclic


def test_torus_betti_rejects_dependent_directions():
    with pytest.raises(InvalidSpec):
        torus_betti(
            TorusSpec(n=2, foliation_dirs=(_ints(1, 2), _ints(2, 4)))
        )


def test_betti_is_binomial_in_transverse_dimension():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 5)
        p = rng.randint(0, min(2, n))
        spec = _random_spec(rng, n, p)
        report = torus_betti(spec, truncation=2)
        q = n - p
        assert report.betti == tuple(comb(q, k) for k in range(q + 1))


def test_truncation_independence_of_betti():
    spec = example_spec()
    reports = [torus_betti(spec, truncation=t) for t in range(5)]
    assert len({r.betti for r in reports}) == 1
    # audit set grows with the truncation but stays certified
    sizes = [r.audited_modes for r in reports]
    assert sizes == sorted(sizes)
    assert all(r.all_modes_acyclic for r in reports)


def test_invariance_shrinks_the_survivor_set():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 4)
        spec = _random_spec(rng, n, rng.randint(0, 1))
        smaller = TorusSpec(
            n=spec.n,
            foliation_dirs=spec.foliation_dirs,
            invariance_coords=frozenset(
                set(spec.invariance_coords) | {rng.randrange(n)}
            ),
            truncation=spec.truncation,
        )
        big = set(surviving_modes(spec, 2))
        small = set(surviving_modes(smaller, 2))
        assert small <= big


def _class_key(mode, spec):
    w = [mode[f] for f in transverse_frame(spec).free_cols]
    g = gcd(*w)
    return tuple(sorted(abs(x) // g for x in w))


def test_certificate_ranks_match_direct_recomputation():
    # the audit certifies one mode per class; check every surviving mode
    # of each class against an uncached direct run and the naive oracle
    specs = [
        # invariance
        TorusSpec(
            n=4,
            foliation_dirs=((E(1), E(1), E(0), E(0)),),
            invariance_coords=frozenset({3}),
            truncation=2,
        ),
        # alpha: 2m0 + m1 - 2m3 = 0 and m2 = 0
        TorusSpec(
            n=4,
            foliation_dirs=((E(1), E(Fraction(1, 2)), E(0, 1), E(-1)),),
            truncation=2,
        ),
        # p = 0: the whole box
        TorusSpec(n=3, truncation=2),
    ]
    for spec in specs:
        report = torus_betti(spec)
        by_class = {_class_key(c.mode, spec): c
                    for c in report.acyclicity_certificates}
        assert len(by_class) == len(report.acyclicity_certificates)
        members: dict = {}
        for mode in surviving_modes(spec, spec.truncation):
            if not any(mode):
                continue
            cert = by_class[_class_key(mode, spec)]
            members.setdefault(cert.mode, []).append(mode)
            mc = build_mode_complex(mode, spec)
            direct = koszul_certificate(mc)
            assert direct.ranks == cert.ranks
            assert direct.ok == cert.ok
            # and the ranks agree with the naive elimination oracle
            assert cert.ranks == tuple(
                gauss_rank(d.entries) for d in mc.d_matrices)
        assert len(members) > 1
        for cert in report.acyclicity_certificates:
            assert cert.mode == min(members[cert.mode])
            assert cert.modes == len(members[cert.mode])
        assert report.audited_modes == sum(
            c.modes for c in report.acyclicity_certificates)


def test_rational_skeleton_matches_frame():
    spec = example_spec()
    skel = rational_skeleton(spec)
    assert skel.pivots == transverse_frame(spec).pivot_cols
    kron = kronecker_spec()
    skel2 = rational_skeleton(kron)
    assert skel2.pivots == transverse_frame(kron).pivot_cols
    assert skel2.dim == 1


def test_cross_check_ce():
    assert cross_check_ce(example_spec())
    assert cross_check_ce(kronecker_spec())
    spec = TorusSpec(
        n=4,
        foliation_dirs=(
            (E(1), E(0), E(0), E(0)),
            (E(0), E(1), E(0), E(0)),
        ),
        invariance_coords=frozenset({2}),
        truncation=2,
    )
    assert cross_check_ce(spec)
    assert torus_betti(spec).betti == (1, 2, 1)


def _random_spec(rng: random.Random, n: int, p: int, with_alpha=None) -> TorusSpec:
    """A valid random spec with p independent directions."""
    if with_alpha is None:
        with_alpha = rng.random() < 0.5
    while True:
        dirs = []
        for _ in range(p):
            vec = [
                ExtScalar(
                    Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])),
                    0,
                )
                for _ in range(n)
            ]
            if with_alpha:
                slot = rng.randrange(n)
                vec[slot] = ExtScalar(
                    vec[slot].rat, Fraction(rng.randint(-2, 2))
                )
            if all(x.is_zero() for x in vec):
                continue
            dirs.append(tuple(vec))
        if len(dirs) < p:
            continue
        inv = frozenset(
            j for j in range(n) if rng.random() < 0.3
        )
        try:
            spec = TorusSpec(
                n=n,
                foliation_dirs=tuple(dirs),
                invariance_coords=inv,
                truncation=3,
            )
            transverse_frame(spec)
            return spec
        except InvalidSpec:
            continue
