from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd
from pathlib import Path

import pytest

from quotientcoh import (
    CochainComplex,
    ExtScalar,
    InvalidSpec,
    Subspace,
    TorusSpec,
    abelian,
    build_mode_complex,
    cross_check_ce,
    koszul_certificate,
    surviving_modes,
    torus_betti,
    transverse_frame,
)
from quotientcoh.cochain import ce_differential
from quotientcoh.matrix import ExactMatrix
from quotientcoh.scalars import rank
from quotientcoh import cli, koszul, torus
from quotientcoh.cli import run_job
from quotientcoh.config import parse_config
from quotientcoh.record import replace

from oracles import (
    ce_matrix_bruteforce, gauss_rank, naive_mode_classes, naive_survives)

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
    assert naive_survives((0, 0, 0), spec)
    assert naive_survives((0, 0, 5), spec)
    assert not naive_survives((1, 0, 0), spec)
    assert not naive_survives((0, 1, 0), spec)
    assert not naive_survives((2, 0, 3), spec)
    kron = kronecker_spec()
    assert naive_survives((0, 0), kron)
    assert not naive_survives((1, 0), kron)
    assert not naive_survives((0, 1), kron)
    assert not naive_survives((3, -2), kron)


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
            if not all(x == ExtScalar() for x in vec):
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
            if naive_survives(m, spec)
        ]
        assert surviving_modes(spec, bound) == expected, spec


def test_transverse_frame_examples():
    skeleton = transverse_frame(example_spec()).skeleton
    assert skeleton.pivots == (0,)
    assert skeleton.complement == (1, 2)
    kron = transverse_frame(kronecker_spec()).skeleton
    assert kron.pivots == (0,)
    assert kron.complement == (1,)


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


def _transverse(mode, spec):
    return tuple(mode[f] for f in transverse_frame(spec).skeleton.complement)


def test_mode_complex_example():
    # mode (0, 0, 1) of the example has transverse covector (0, 1) on (y, z)
    assert _transverse((0, 0, 1), example_spec()) == (0, 1)
    c = build_mode_complex((0, 1))
    assert (c.dim, c.algebra, c.weight) == (2, abelian(2), (0, 1))
    # 1 -> dz and dy -> -dy^dz, dz -> 0
    assert c.d[0].entries == ((Fraction(0),), (Fraction(1),))
    assert c.d[1].entries == ((Fraction(-1), Fraction(0)),)


def test_koszul_certificate_examples():
    cert = koszul_certificate((0, 0, 1), build_mode_complex((0, 1)))
    assert cert.mode == (0, 0, 1)
    assert cert.ranks == (1, 1)
    assert cert.ok
    assert cert.failed_degree is None
    assert cert.modes == 1
    cert2 = koszul_certificate((1, 0), build_mode_complex((1, 0)), 7)
    assert cert2.ranks == (1, 1)
    assert cert2.ok
    assert cert2.modes == 7


def test_koszul_certificate_fails_on_a_non_complex():
    # ranks (1, 1) make every Betti number zero, but d_1 d_0 = 2
    c = CochainComplex(
        (ExactMatrix.from_rows([[1], [1]], cols=1),
         ExactMatrix.from_rows([[1, 1]], cols=2)),
        abelian(2),
        (1, 1),
    )
    cert = koszul_certificate((1, 1), c)
    assert cert.ranks == (1, 1)
    assert not cert.ok
    assert cert.failed_degree == 1


def test_koszul_rejects_zero_mode():
    with pytest.raises(ValueError):
        koszul_certificate((0, 0, 0), build_mode_complex((0, 0)))


def _counting_rank(monkeypatch):
    """Count the eliminations koszul_certificate runs."""
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(koszul, "rank", counted)
    return calls


def _eliminated_certificate(mode, c):
    """What koszul_certificate reports from dense ranks and products
    alone: the first d_{k+1} d_k != 0 fails degree k + 1, else the first
    nonzero Betti number fails its degree."""
    ranks = tuple(gauss_rank(d.entries) for d in c.d)
    failed = None
    for k in range(len(c.d) - 1):
        a, b = c.d[k + 1].entries, c.d[k].entries
        if any(sum(x * b[t][j] for t, x in enumerate(row))
               for row in a for j in range(len(b[0]))):
            failed = k + 1
            break
    if failed is None:
        q = c.dim
        betti = [comb(q, k) - (ranks[k] if k < q else 0)
                 - (ranks[k - 1] if k else 0) for k in range(q + 1)]
        failed = next((k for k, b in enumerate(betti) if b), None)
    return ranks, failed is None, failed


def test_koszul_ranks_are_witnessed_not_eliminated(monkeypatch):
    # the witnessed ranks C(q - 1, k) are the ranks elimination gives, on
    # random weights with q <= 6 and on every class of the n = 6, T = 3
    # box; a correct complex runs no elimination
    calls = _counting_rank(monkeypatch)
    rng = random.Random(2011)
    weights = [w for w in (tuple(rng.randint(-4, 4)
                                 for _ in range(rng.randint(1, 6)))
                           for _ in range(60)) if any(w)]
    spec = TorusSpec(n=6, truncation=3)
    report = torus_betti(spec)
    assert len(report.acyclicity_certificates) == 71
    certified = [(w, koszul_certificate(w, build_mode_complex(w)))
                 for w in weights]
    certified += [(_transverse(cert.mode, spec), cert)
                  for cert in report.acyclicity_certificates]
    assert calls == [] and len(certified) > 110
    for w, cert in certified:
        assert cert.ok and cert.failed_degree is None
        assert cert.ranks == tuple(comb(len(w) - 1, k) for k in range(len(w)))
        assert cert.ranks == tuple(rank(d) for d in build_mode_complex(w).d)


def _with_row(c, k, i, row):
    """c with row i of d_k replaced by the integer pairs row."""
    dk = c.d[k]
    rows = list(dk.int_rows)
    rows[i] = tuple(row)
    d = list(c.d)
    d[k] = ExactMatrix(dk.cols, dk.den, tuple(rows))
    return replace(c, d=tuple(d))


def _witness_rows(q, k, i0):
    """(row, column) of the witness entries of d_k: each row J that
    contains i0 and its column J - {i0}."""
    columns = {mono: j for j, mono in enumerate(combinations(range(q), k))}
    return [(i, columns[tuple(x for x in jmono if x != i0)])
            for i, jmono in enumerate(combinations(range(q), k + 1))
            if i0 in jmono]


def test_a_broken_mode_complex_falls_back_to_elimination(monkeypatch):
    calls = _counting_rank(monkeypatch)
    rng = random.Random(2012)
    mutated = 0
    for _ in range(12):
        q = rng.randint(2, 5)
        w = tuple(rng.randint(-3, 3) for _ in range(q))
        if not any(w):
            continue
        c = build_mode_complex(w)
        i0 = next(i for i, x in enumerate(w) if x)
        k = rng.randrange(q)
        witness = _witness_rows(q, k, i0)
        i, col = rng.choice(witness)
        row = dict(c.d[k].int_rows[i])
        # one entry of the complex changed: a witness entry that stays
        # nonzero keeps the witness, so only a broken d.d falls back
        changed = dict(row)
        changed[col] += rng.choice([-1, 1]) * rng.randint(1, 3)
        cases = [(changed, None)]
        # the w_i0 entry of one row zeroed
        cases.append(({j: x for j, x in row.items() if j != col}, True))
        # a second nonzero among the columns that avoid i0
        others = [j for _, j in witness if j != col]
        if others:
            cases.append(({**row, rng.choice(others): 1}, True))
        for case, falls_back in cases:
            bad = _with_row(c, k, i, sorted((j, x) for j, x in case.items()
                                            if x))
            if falls_back is None:
                falls_back = bad.d_squared_violation() is not None
            del calls[:]
            cert = koszul_certificate(w, bad)
            assert len(calls) == (q if falls_back else 0)
            assert (cert.ranks, cert.ok, cert.failed_degree) == \
                _eliminated_certificate(w, bad)
            mutated += 1
    assert mutated > 20


def test_a_witness_failure_alone_falls_back_to_elimination(monkeypatch):
    # w = e_1 on R^3: zeroing d_0's only nonzero leaves d.d = 0, so only
    # the witness sees it; elimination then finds rank d_0 = 0 and a
    # nonzero H^0
    calls = _counting_rank(monkeypatch)
    c = build_mode_complex((0, 5, 0))
    bad = _with_row(c, 0, 1, ())
    assert bad.d_squared_violation() is None
    cert = koszul_certificate((0, 5, 0), bad)
    assert len(calls) == 3
    assert (cert.ranks, cert.ok, cert.failed_degree) == ((0, 2, 1), False, 0)
    assert (cert.ranks, cert.ok, cert.failed_degree) == \
        _eliminated_certificate((0, 5, 0), bad)
    # a second nonzero in a witness row of d_1: still d.d = 0 here, and
    # the eliminated ranks happen to be the witnessed ones
    c = build_mode_complex((1, 0, 0))
    row = dict(c.d[1].int_rows[0])
    bad = _with_row(c, 1, 0, sorted({**row, 2: 1}.items()))
    assert bad.d_squared_violation() is None
    del calls[:]
    cert = koszul_certificate((1, 0, 0), bad)
    assert len(calls) == 3
    assert (cert.ranks, cert.ok, cert.failed_degree) == \
        _eliminated_certificate((1, 0, 0), bad)
    # a d_0 one column too wide: the rank bounds rest on the shapes, and
    # the complex refuses it before any certificate reads it
    d0 = c.d[0]
    with pytest.raises(ValueError, match="d_0 must be 3 x 1, got 3 x 2"):
        replace(c, d=(ExactMatrix(2, d0.den, d0.int_rows),) + c.d[1:])


def test_mode_complex_d_squared_is_zero():
    rng = random.Random(606)
    for _ in range(20):
        w = tuple(rng.randint(-3, 3) for _ in range(4))
        if all(m == 0 for m in w):
            continue
        c = build_mode_complex(w)
        for k in range(len(c.d) - 1):
            assert not any((c.d[k + 1] @ c.d[k]).int_rows)
        assert c.d_squared_violation() is None


def test_mode_complexes_match_the_weighted_oracle():
    # a mode complex is the weight-w complex of the abelian algebra R^q,
    # checked against the determinant definition on random specs
    checked = 0
    for spec in _lattice_specs():
        try:
            q = len(transverse_frame(spec).skeleton.complement)
        except InvalidSpec:
            continue
        for mode in surviving_modes(spec, min(spec.truncation, 1))[:4]:
            w = _transverse(mode, spec)
            c = build_mode_complex(w)
            assert len(c.d) == q
            for k, dk in enumerate(c.d):
                oracle = ce_matrix_bruteforce(abelian(q), k, w)
                assert dk == ExactMatrix.from_rows(oracle, cols=comb(q, k))
            checked += any(mode)
    assert checked >= 10


def test_mode_complexes_read_off_the_template_are_the_weighted_complexes():
    # the template's entries +-(i + 1) become +-w_i, zeros dropped: the
    # result is ce_differential's, with or without a template passed in
    rng = random.Random(607)
    zeros = 0
    for _ in range(120):
        q = rng.randint(1, 6)
        w = tuple(rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(q))
        zeros += 0 in w
        g = abelian(q)
        expected = tuple(ce_differential(g, k, w) for k in range(q))
        u = tuple(range(1, q + 1))
        template = CochainComplex(
            tuple(ce_differential(g, k, u) for k in range(q)), g, u)
        for c in (build_mode_complex(w), build_mode_complex(w, template)):
            assert (c.d, c.algebra, c.weight) == (expected, g, w)
    assert zeros > 60


def test_torus_betti_example():
    report = torus_betti(example_spec())
    assert report.betti == (1, 2, 1)
    assert report.frame.skeleton.complement == (1, 2)
    # every monomial of the transverse frame (y, z) is a generator
    assert report.zero_mode.generators == (
        (((0, (1, 1)),),), (((0, (1, 1)),), ((1, (1, 1)),)), (((0, (1, 1)),),))
    assert report.zero_mode.monomials == (((),), ((0,), (1,)), ((0, 1),))
    assert report.audited_modes == 6
    assert report.all_modes_acyclic
    assert all(cert.ok for cert in report.acyclicity_certificates)
    assert report.zero_mode.ranks == (0, 0)


def test_the_audit_summaries_are_read_off_the_certificates():
    # a report holding one failing class certificate is not acyclic, and
    # its audited modes are whatever its certificates count
    report = torus_betti(example_spec())
    first, *rest = report.acyclicity_certificates
    failed = replace(first, ok=False, failed_degree=0, modes=first.modes + 5)
    broken = replace(report, acyclicity_certificates=(failed, *rest))
    assert report.all_modes_acyclic and not broken.all_modes_acyclic
    assert broken.audited_modes == report.audited_modes + 5 == sum(
        cert.modes for cert in broken.acyclicity_certificates)


def test_zero_mode_generators_are_the_transverse_monomials():
    # the zero mode's complex has d = 0, so its generators are every
    # monomial of Lambda(R^q), each a unit vector, in lexicographic
    # order; q = 0 (the directions span T^2) leaves the constant 1
    specs = [
        TorusSpec(n=2, foliation_dirs=(_ints(1, 0), _ints(0, 1))),
        kronecker_spec(),
        example_spec(),
        TorusSpec(n=3, truncation=1),
    ]
    for q, spec in enumerate(specs):
        zero_mode = torus_betti(spec).zero_mode
        assert zero_mode.dim == q
        assert zero_mode.betti == tuple(comb(q, k) for k in range(q + 1))
        assert zero_mode.monomials == tuple(
            tuple(combinations(range(q), k)) for k in range(q + 1))
        assert zero_mode.generators == tuple(
            tuple(((j, (1, 1)),) for j in range(comb(q, k)))
            for k in range(q + 1))


def test_torus_betti_reads_the_zero_mode_off_the_lie_pipeline(monkeypatch):
    # the zero mode is eliminated, not stated: a ce_complex that returns
    # the acyclic complex of weight (1, 0, ...) gives Betti numbers 0,
    # and cross_check_ce, which counts q again from the spec, refuses them
    monkeypatch.setattr(torus, "ce_complex", lambda g: build_mode_complex(
        (1,) + (0,) * (g.dim - 1)))
    report = torus_betti(example_spec())
    assert report.betti == (0, 0, 0)
    assert report.zero_mode.ranks == (1, 1)
    assert report.all_modes_acyclic
    assert not cross_check_ce(report)


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
        report = torus_betti(replace(spec, truncation=2))
        q = n - p
        assert report.betti == tuple(comb(q, k) for k in range(q + 1))


def test_truncation_independence_of_betti():
    spec = example_spec()
    reports = [torus_betti(replace(spec, truncation=t)) for t in range(5)]
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
    w = _transverse(mode, spec)
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
            c = build_mode_complex(_transverse(mode, spec))
            direct = koszul_certificate(mode, c)
            assert direct.ranks == cert.ranks
            assert direct.ok == cert.ok
            # and the ranks agree with the naive elimination oracle
            assert cert.ranks == tuple(gauss_rank(d.entries) for d in c.d)
        assert len(members) > 1
        for cert in report.acyclicity_certificates:
            assert cert.mode == min(members[cert.mode])
            assert cert.modes == len(members[cert.mode])
        assert report.audited_modes == sum(
            c.modes for c in report.acyclicity_certificates)


def test_torus_betti_finds_the_frame_once(monkeypatch):
    # one frame per audit, read by every class; one complex per class,
    # read off one template complex of q differentials built per audit
    calls = {"transverse_frame": 0, "build_mode_complex": 0,
             "ce_differential": 0}
    # torus_betti builds each complex through torus, and build_mode_complex
    # its template through koszul
    for name, module in (("transverse_frame", torus),
                         ("build_mode_complex", torus),
                         ("ce_differential", koszul)):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    for spec in (
        TorusSpec(n=3, truncation=2),
        TorusSpec(n=4, foliation_dirs=((E(1), E(1), E(0), E(0)),),
                  invariance_coords=frozenset({3}), truncation=2),
    ):
        for key in calls:
            calls[key] = 0
        report = torus_betti(spec)
        assert len(report.acyclicity_certificates) > 1
        assert calls == {
            "transverse_frame": 1,
            "build_mode_complex": len(report.acyclicity_certificates) + 1,
            "ce_differential": len(report.frame.skeleton.complement),
        }


def _mixed_spec(rng: random.Random) -> TorusSpec:
    """A valid random spec on n = 1..6 whose directions, with rational
    and alpha parts, reach only some coordinates, so untouched
    coordinates mix with constrained and invariance ones; T in 0..3,
    lowered until the box has at most 7^4 points."""
    while True:
        n = rng.randint(1, 6)
        reached = [j for j in range(n) if rng.random() < 0.6]
        dirs = []
        for _ in range(rng.randint(0, min(3, len(reached)))):
            vec = [E(0)] * n
            for j in reached:
                if rng.random() < 0.6:
                    vec[j] = E(
                        Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2, 3])),
                        Fraction(rng.randint(-2, 2)) if rng.random() < 0.3
                        else 0)
            if not all(x == ExtScalar() for x in vec):
                dirs.append(tuple(vec))
        bound = rng.randint(0, 3)
        while (2 * bound + 1) ** n > 7 ** 4:
            bound -= 1
        spec = TorusSpec(
            n=n, foliation_dirs=tuple(dirs), truncation=bound,
            invariance_coords=frozenset(
                j for j in reached if rng.random() < 0.3))
        try:
            transverse_frame(spec)
        except InvalidSpec:
            continue
        return spec


def test_mode_classes_match_the_box_oracle():
    # class sizes counted in closed form on the untouched coordinates
    # against every point of the box grouped one by one
    rng = random.Random(1802)
    mixed = 0
    # an untouched coordinate before a constrained transverse one, so a
    # class's least member need not come from its least pinned survivor
    corner = [TorusSpec(n=3, foliation_dirs=(_ints(0, 1, -1),),
                        truncation=t) for t in (2, 4)]
    for spec in corner + [_mixed_spec(rng) for _ in range(320)]:
        report = torus_betti(spec)
        classes, audited = naive_mode_classes(spec, spec.truncation)
        got = [(c.mode, c.modes) for c in report.acyclicity_certificates]
        assert got == classes, spec
        assert report.audited_modes == audited, spec
        untouched = [j for j in range(spec.n)
                     if j not in spec.invariance_coords
                     and all(v[j] == ExtScalar() for v in spec.foliation_dirs)]
        mixed += 0 < len(untouched) < spec.n - len(spec.invariance_coords)
    assert mixed >= 60


INV6 = TorusSpec(
    n=6, foliation_dirs=((E(0), E(0), E(Fraction(3, 2)), E(0), E(0), E(0)),),
    invariance_coords=frozenset({2}), truncation=4)


def test_untouched_coordinates_are_counted_not_scanned(monkeypatch):
    # p = 0 boxes and a direction inside the invariance coordinate leave
    # every open coordinate untouched: the scan sees only the zero mode
    scans = []

    def recorded(spec, bound):
        scans.append(surviving_modes(spec, bound))
        return scans[-1]

    monkeypatch.setattr(torus, "surviving_modes", recorded)
    for spec in (TorusSpec(n=3, truncation=2), TorusSpec(n=6, truncation=3),
                 INV6):
        scans.clear()
        report = torus_betti(spec)
        assert scans == [[(0,) * spec.n]]
        open_coords = spec.n - len(spec.invariance_coords)
        assert report.audited_modes == (
            (2 * spec.truncation + 1) ** open_coords - 1)
    assert torus_betti(TorusSpec(n=8, truncation=2)).audited_modes == 390624


ROOT = Path(__file__).resolve().parents[1]
ALPHA6 = ROOT / "tests" / "fixtures" / "torus-alpha6-check.cfg"
KRONECKER = ROOT / "examples" / "kronecker-flow.cfg"


def test_check_torus_job_finds_one_frame_and_one_report(monkeypatch):
    # the --check cross-check reads the job's own report and frame
    # instead of auditing again and searching the frame twice more
    calls = {"transverse_frame": 0, "torus_betti": 0}
    originals = {name: getattr(torus, name) for name in calls}

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    monkeypatch.setattr(torus, "transverse_frame", counting("transverse_frame"))
    for module in (torus, cli):
        monkeypatch.setattr(module, "torus_betti", counting("torus_betti"))
    payload, code = run_job(parse_config(ALPHA6.read_text()), check=True)
    assert (code, payload["certificates"]["cross_check_ce"]) == (0, True)
    assert calls == {"transverse_frame": 1, "torus_betti": 1}


TWO_ALPHA_DIRECTIONS = """\
[torus]
n = 3
foliation = 1,1+1*alpha,0
foliation = 0,1,1/2-2*alpha
truncation = 2
"""


def test_a_check_job_clears_its_directions_once(monkeypatch):
    # the spec clears each direction into its integer parts once, and
    # the frame search, the mode scan and the --check cross-check all
    # read that one object
    cleared = []
    clear = TorusSpec.parts.func

    def counted(spec):
        cleared.append(clear(spec))
        return cleared[-1]

    parts = cached_property(counted)
    parts.__set_name__(TorusSpec, "parts")
    monkeypatch.setattr(TorusSpec, "parts", parts)
    read = []
    for name in ("_directions_at", "surviving_modes"):
        def spied(spec, *args, _fn=getattr(torus, name)):
            read.append(spec.parts)
            return _fn(spec, *args)
        monkeypatch.setattr(torus, name, spied)
    config = parse_config(TWO_ALPHA_DIRECTIONS)
    assert config.job.p == 2
    payload, code = run_job(config, check=True)
    assert (code, payload["certificates"]["cross_check_ce"]) == (0, True)
    assert len(cleared) == 1
    # one frame trial, the fit and p + 1 stand-ins of cross_check_ce,
    # and the scan
    assert len(read) == 1 + 1 + 3 + 1
    assert all(parts is cleared[0] for parts in read)


def _directions_at(spec, r):
    return [[Fraction(*x.rat) + Fraction(*r) * Fraction(*x.irr) for x in v]
            for v in spec.foliation_dirs]


def test_frame_skeleton_spans_the_directions_at_its_substitution():
    # (1, alpha, 0) and (1, 0, 0) are dependent at alpha = 0, and the
    # fixture's two directions are too, so both frames substitute 1
    dependent_at_zero = TorusSpec(
        n=3, foliation_dirs=((E(1), E(0, 1), E(0)), _ints(1, 0, 0)))
    specs = [example_spec(), kronecker_spec(), dependent_at_zero,
             parse_config(ALPHA6.read_text()).job, TorusSpec(n=2)]
    rng = random.Random(16)
    specs += [_random_spec(rng, rng.randint(2, 5), rng.randint(0, 2))
              for _ in range(30)]
    substitutions = set()
    for spec in specs:
        frame = transverse_frame(spec)
        assert frame.skeleton == Subspace.span(
            spec.n, _directions_at(spec, frame.substitution)), spec
        assert frame.skeleton.dim == spec.p
        split = frame.skeleton.pivots + frame.skeleton.complement
        assert sorted(split) == list(range(spec.n))
        substitutions.add(Fraction(*frame.substitution))
    assert Fraction(*transverse_frame(dependent_at_zero).substitution) == 1
    assert substitutions >= {0, 1}


def test_cross_check_ce():
    assert cross_check_ce(torus_betti(example_spec()))
    assert cross_check_ce(torus_betti(kronecker_spec()))
    spec = TorusSpec(
        n=4,
        foliation_dirs=(
            (E(1), E(0), E(0), E(0)),
            (E(0), E(1), E(0), E(0)),
        ),
        invariance_coords=frozenset({2}),
        truncation=2,
    )
    report = torus_betti(spec)
    assert cross_check_ce(report)
    assert report.betti == (1, 2, 1)


def test_cross_check_ce_fails_on_a_changed_betti_number():
    # a report's Betti numbers are read off its ranks: rank d_k one too
    # high lowers betti[k] and betti[k + 1], which the cross-check sees
    for spec in (example_spec(), kronecker_spec()):
        report = torus_betti(spec)
        assert cross_check_ce(report)
        for k in range(len(report.zero_mode.ranks)):
            ranks = list(report.zero_mode.ranks)
            ranks[k] += 1
            zero_mode = replace(report.zero_mode, ranks=tuple(ranks))
            assert zero_mode.betti != report.betti
            assert not cross_check_ce(replace(report, zero_mode=zero_mode))


def test_cross_check_ce_fails_on_a_skeleton_of_the_wrong_dimension():
    report = torus_betti(example_spec())  # skeleton span{e0} in R^3
    for vectors in ([], [[1, 0, 0], [0, 0, 1]]):
        frame = replace(report.frame, skeleton=Subspace.span(3, vectors))
        assert not cross_check_ce(replace(report, frame=frame)), vectors


def test_cross_check_ce_fails_when_the_frame_drops_a_skeleton_row(
        monkeypatch):
    # a frame that loses a leafwise direction reports the Betti numbers of
    # its own smaller skeleton, (1, 2, 1) for the Kronecker flow, and its
    # modes all certify: only the cross-check against the spec sees it
    frame_of = torus.transverse_frame

    def dropped_row(spec):
        frame = frame_of(spec)
        return replace(frame, skeleton=Subspace(
            spec.n, frame.skeleton.basis[1:]))

    monkeypatch.setattr(torus, "transverse_frame", dropped_row)
    payload, code = run_job(parse_config(KRONECKER.read_text()), check=True)
    certificates = payload["certificates"]
    assert payload["betti"] == [1, 2, 1]
    assert certificates["all_modes_acyclic"] is True
    assert (code, certificates["cross_check_ce"]) == (3, False)


def test_cross_check_ce_holds_on_examples_fixtures_and_random_specs():
    # (1, alpha, 0) and (1, 0, 0) lose rank at the stand-in 0 but not at
    # the frame's 1 or the other stand-in 2
    dependent_at_zero = TorusSpec(
        n=3, foliation_dirs=((E(1), E(0, 1), E(0)), _ints(1, 0, 0)))
    specs = [dependent_at_zero, TorusSpec(n=2), example_spec(),
             kronecker_spec()]
    for path in sorted(ROOT.glob("examples/*.cfg")) + sorted(
            ROOT.glob("tests/fixtures/torus-*.cfg")):
        config = parse_config(path.read_text())
        if config.mode == "torus":
            specs.append(config.job)
    rng = random.Random(17)
    specs += [_random_spec(rng, rng.randint(2, 5), rng.randint(0, 2))
              for _ in range(30)]
    for spec in specs:
        assert cross_check_ce(torus_betti(replace(spec, truncation=1))), spec


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
            if all(x == ExtScalar() for x in vec):
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
