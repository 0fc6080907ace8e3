from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm

import pytest

from quotientcoh import (
    CochainComplex,
    InvalidSpec,
    LieAlgebra,
    NotAnIdeal,
    Subspace,
    abelian,
    betti,
    build_mode_complex,
    ce_complex,
    heisenberg,
    jacobi_check,
    quotient,
    sl2,
    torus_betti,
    transverse_frame,
)
from quotientcoh import algebra
from quotientcoh.cli import run_job
from quotientcoh.config import JobConfig
from quotientcoh.lie_job import LieJob
from quotientcoh.exterior import enumerate_basis
from quotientcoh.cochain import ce_differential
from quotientcoh.record import replace
from quotientcoh.matrix import ExactMatrix
from quotientcoh.scalars import rank
from quotientcoh.sign_twist import phi_sign_check

from oracles import (
    ce_matrix_bruteforce,
    change_basis,
    dense_cube,
    densify,
    direct_sum,
    filiform,
    gauss_rank,
    jacobi_failure,
    naive_bracket,
    naive_ideal_failure,
    naive_quotient_table,
    naive_rref,
    random_invertible,
    random_lie_algebra,
    random_nonjacobi_table,
    solvable2,
)
from test_torus import _lattice_specs


def _unit(n, i):
    return [Fraction(int(t == i)) for t in range(n)]


def test_antisymmetry_is_enforced():
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(2, {(0, 0, 1): 1})
    # both sides of a pair given, not as each other's negatives
    with pytest.raises(ValueError, match="conflicting"):
        LieAlgebra.from_brackets(2, {(0, 1, 1): 1, (1, 0, 1): 1})


def test_jacobi_examples():
    assert jacobi_check(abelian(4)) is None
    assert jacobi_check(heisenberg()) is None
    assert jacobi_check(sl2()) is None
    broken = LieAlgebra.from_brackets(3, {(0, 1, 0): 1, (1, 2, 1): 1})
    assert jacobi_check(broken) == (0, 1, 2)


def test_jacobi_check_builds_one_differential(monkeypatch):
    # d_2 is tested against the bracket matrix, -d_1, so d_1 is not built;
    # a whole Lie job without an ideal builds each d_k once, since
    # ce_complex takes the d_2 that jacobi_check built
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return ce_differential(*args)

    monkeypatch.setattr(algebra, "ce_differential", counted)
    assert jacobi_check(heisenberg()) is None
    assert calls == [(2,)]
    for g in (heisenberg(), filiform(6)):
        calls.clear()
        payload, code = run_job(JobConfig("lie", LieJob(g, None)), check=True)
        assert code == 0
        assert payload["certificates"]["sign_twist"] is True
        assert calls == [(2,)] + [(k,) for k in range(g.dim) if k != 2]


def test_jacobi_triple_is_the_first_nonzero_row_of_d2_d1():
    rng = random.Random(3306)
    for dim in (3, 4, 5, 6, 3, 4, 5, 6):
        for g in (random_lie_algebra(rng, dim),
                  change_basis(random_nonjacobi_table(rng, dim),
                               random_invertible(rng, dim))):
            product = ce_differential(g, 2) @ ce_differential(g, 1)
            row = next((i for i, r in enumerate(product.int_rows) if r),
                       None)
            expected = None if row is None else enumerate_basis(dim, 3)[row]
            assert jacobi_check(g) == expected


def test_jacobi_reports_first_violation():
    broken = LieAlgebra.from_brackets(4, {(1, 2, 1): 1, (2, 3, 2): 1})
    assert jacobi_check(broken) == (1, 2, 3)


def test_ideal_examples():
    h = heisenberg()
    center = Subspace.span(3, [_unit(3, 2)])
    assert quotient(h, center).dim == 2
    e_span = Subspace.span(3, [_unit(3, 1)])
    with pytest.raises(NotAnIdeal):
        quotient(sl2(), e_span)
    assert quotient(abelian(3), Subspace.span(3, [[1, 2, 3]])).dim == 2


def test_subspace_is_canonical():
    a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(3, [[1, 0, -1], [0, 2, 2], [1, 1, 0]])
    assert a == b
    assert a.dim == 2


@pytest.mark.parametrize("rows", [
    (((1, 1),), ((0, 1),)),
    (((0, 1),), ((0, 1), (2, 3))),
    (((0, 1),), ()),
    (((0, 2),),),
    (((0, 2), (1, 1)), ((1, 1),)),
    (((0, -1), (2, 3)),),
    (((0, 3), (2, 6)), ((1, 1),)),
    (((0, 1), (2, 1)), ((2, 1),)),
], ids=["decreasing", "repeated", "empty", "lead-2", "pivot-entry",
        "negative-lead", "content-3", "entry-at-later-pivot"])
def test_subspace_rejects_rows_not_in_reduced_form(rows):
    # the rows given are not kept: the constructor stores their rref, the
    # canonical rows that equality compares (content 1, positive lead)
    # and that reduce() subtracts once each (zero at the other pivots)
    subspace = Subspace(3, rows)
    dense = [densify(row, 3) for row in rows]
    assert subspace == Subspace.span(3, dense)
    assert subspace == Subspace(3, tuple(dict(row) for row in rows))
    assert all(subspace.reduce(row) == {} for row in rows)
    assert Subspace.span(3, [[2, 0, 0]]).reduce({0: 1}) == {}
    reduced = Subspace(3, (((0, 2), (2, 1)), ((1, 1),)))
    assert reduced == Subspace.span(3, [[2, 0, 1], [0, 3, 0]])
    assert reduced == Subspace(3, ({2: 1, 0: 2}, {1: 1}))


def test_subspace_of_any_spanning_rows_is_canonical():
    # random integer rows, and a second spanning set of the same span:
    # rows added to one another, scaled by nonzero integers, shuffled,
    # with dependent and zero rows mixed in.  Both give one Subspace,
    # whose rows over their leads are the dense Gauss-Jordan rows
    rng = random.Random(5050)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        spanning = [list(row) for row in rows]
        for _ in range(3):
            if len(spanning) > 1:
                i, j = rng.sample(range(len(spanning)), 2)
                t = rng.randint(-3, 3)
                spanning[i] = [x + t * y
                               for x, y in zip(spanning[i], spanning[j])]
        spanning = [[c * x for x in row] for row, c in zip(
            spanning, rng.choices((-3, -2, -1, 1, 2, 5), k=len(spanning)))]
        for _ in range(rng.randint(0, 2)):
            c = [rng.randint(-2, 2) for _ in rows]
            spanning.append([sum(a * row[j] for a, row in zip(c, rows))
                             for j in range(n)])
        spanning += [[0] * n] * rng.randint(0, 2)
        rng.shuffle(spanning)
        pairs = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                      for row in rows)
        maps = tuple({j: x for j, x in enumerate(row) if x}
                     for row in spanning)
        subspace = Subspace(n, pairs)
        assert subspace == Subspace(n, maps), (rows, spanning)
        assert subspace.dim == gauss_rank(rows)
        expected, pivots = naive_rref(rows, n)
        assert subspace.pivots == pivots
        assert tuple(densify([(j, Fraction(x, row[0][1])) for j, x in row],
                             n) for row in subspace.basis) == expected
        assert all(subspace.reduce(row) == {} for row in maps)


def test_quotient_heisenberg_by_center():
    center = Subspace.span(3, [_unit(3, 2)])
    q = quotient(heisenberg(), center)
    assert center.complement == (0, 1)
    assert q.dim == 2
    assert not any(q.table.int_rows)


def test_quotient_refuses_non_ideal():
    with pytest.raises(NotAnIdeal):
        quotient(sl2(), Subspace.span(3, [_unit(3, 1)]))


def test_non_ideal_refusal_names_the_first_failing_pair():
    # (basis vector i, subspace generator bi), the first in row order
    with pytest.raises(NotAnIdeal) as exc:
        quotient(sl2(), Subspace.span(3, [_unit(3, 1)]))
    assert str(exc.value) == (
        "bracket of basis vector 2 with subspace generator 0 leaves the "
        "subspace"
    )
    with pytest.raises(NotAnIdeal) as exc:
        quotient(heisenberg(), Subspace.span(3, [_unit(3, 0), _unit(3, 1)]))
    assert str(exc.value) == (
        "bracket of basis vector 0 with subspace generator 1 leaves the "
        "subspace"
    )


def _centre(g):
    """A basis of the centre: the kernel of x -> ([e_i, x])_i."""
    n = g.dim
    c = dense_cube(g)
    rows, pivots = naive_rref(
        [[c[i][j][k] for j in range(n)] for i in range(n) for k in range(n)],
        n)
    basis = []
    for f in (f for f in range(n) if f not in pivots):
        v = _unit(n, f)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def _brackets_with(g, vectors):
    """A basis of [g, span(vectors)]."""
    images = [naive_bracket(g, _unit(g.dim, i), v)
              for i in range(g.dim) for v in vectors]
    return [list(row) for row in naive_rref(images, g.dim)[0]]


def _disguised(rng, basis):
    """A non-echelon spanning set of span(basis) with fractional entries:
    the rows of a random invertible matrix with rows scaled by random
    fractions, times basis, sometimes with a redundant vector, shuffled."""
    if not basis:
        return []
    k = len(basis)
    mix = random_invertible(rng, k)
    out = []
    for coeffs in mix:
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                         rng.randint(1, 7))
        out.append([scale * sum(a * v[t] for a, v in zip(coeffs, basis))
                    for t in range(len(basis[0]))])
    if rng.random() < 0.5:
        out.append([Fraction(3, 2) * x - Fraction(2, 5) * y
                    for x, y in zip(out[0], out[-1])])
    rng.shuffle(out)
    return out


def test_ideal_test_and_quotient_match_dense_oracles():
    # Random algebras in random rational bases; their centre, [g, g] and
    # [g, [g, g]] (ideals) and two random subspaces (often not ideals), each
    # given by a disguised spanning set.  The sparse ideal test must name
    # the oracle's first failing (i, bi), and the quotient bracket matrix
    # must be the oracle's table on the oracle's non-pivot columns.
    rng = random.Random(20261019)
    outcomes = {"ideal": 0, "refused": 0}
    for _ in range(30):
        g = random_lie_algebra(rng, rng.randint(2, 5))
        derived = _brackets_with(g, [_unit(g.dim, i) for i in range(g.dim)])
        spans = [_centre(g), derived, _brackets_with(g, derived)]
        for _ in range(2):
            spans.append([[Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
                          for _ in range(rng.randint(1, g.dim - 1))])
        for basis in spans:
            vectors = _disguised(rng, basis)
            h = Subspace.span(g.dim, vectors)
            rows, pivots = naive_rref(vectors, g.dim)
            assert h.complement == tuple(
                c for c in range(g.dim) if c not in pivots)
            # a row with lead 1 has content 1 / (the lcm of its
            # denominators), so that lcm is the lead of its primitive row
            assert h.scale == lcm(*(x.denominator for row in rows for x in row))
            expected = naive_ideal_failure(g, vectors)
            if expected is None:
                outcomes["ideal"] += 1
                q = quotient(g, h)
                assert q.dim == len(h.complement)
                assert q == LieAlgebra.from_brackets(
                    q.dim, naive_quotient_table(g, vectors))
            else:
                outcomes["refused"] += 1
                with pytest.raises(NotAnIdeal) as exc:
                    quotient(g, h)
                assert (exc.value.basis_index,
                        exc.value.generator_index) == expected
    assert min(outcomes.values()) >= 30, outcomes


def test_quotient_by_whole_algebra_gives_point():
    g = sl2()
    whole = Subspace.span(3, [_unit(3, i) for i in range(3)])
    q = quotient(g, whole)
    assert q.dim == 0
    report = betti(ce_complex(q))
    assert report.betti == (1,)
    assert tuple(densify(v, 1) for v in report.generators[0]) == (
        (Fraction(1),),)


def test_ce_differential_heisenberg_entry():
    c = ce_complex(heisenberg())
    # d(e^2) = -e^0 ^ e^1, all other degree-1 images vanish
    columns = list(zip(*c.d[1].entries))
    assert columns[2] == (Fraction(-1), Fraction(0), Fraction(0))
    assert columns[0] == (Fraction(0),) * 3
    assert columns[1] == (Fraction(0),) * 3
    assert not any(c.d[0].int_rows)


def test_ce_matrices_match_bruteforce_oracle():
    for g in (heisenberg(), sl2()):
        c = ce_complex(g)
        for k in range(g.dim):
            oracle = ce_matrix_bruteforce(g, k)
            assert c.d[k] == ExactMatrix.from_rows(
                oracle, cols=comb(g.dim, k)
            )


def test_ce_matrices_match_bruteforce_on_random_algebras():
    rng = random.Random(314159)
    # drawn from their own streams so the algebras and the integer
    # weights stay the same
    weights = random.Random(161803)
    fractional = random.Random(141421)
    new_den = 0
    for _ in range(6):
        dim = rng.randint(3, 4)
        g = random_lie_algebra(rng, dim)
        c = ce_complex(g)
        w = tuple(weights.randint(-3, 3) for _ in range(dim))
        q = _fractional_weight(fractional, dim)
        new_den += lcm(g.table.den, *(x.denominator for x in q)) \
            != g.table.den
        for k in range(dim):
            oracle = ce_matrix_bruteforce(g, k)
            assert c.d[k] == ExactMatrix.from_rows(oracle, cols=comb(dim, k))
            assert ce_differential(g, k) == c.d[k]
            # the weight term need not give a complex to be checked here
            for weight in (w, q):
                twisted = ce_matrix_bruteforce(g, k, weight)
                assert ce_differential(g, k, weight) == ExactMatrix.from_rows(
                    twisted, cols=comb(dim, k))
    # the bracket terms were scaled to a denominator the table lacks
    assert new_den >= 3


def _fractional_weight(rng, dim):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                 for _ in range(dim))


def test_phi_sign_check_on_rational_weights_over_rational_brackets():
    # the evaluation formula scales its bracket terms to the weight's
    # denominator too; one changed entry of one d_k fails the check
    rng = random.Random(1729)
    for _ in range(4):
        dim = rng.randint(3, 4)
        g = random_lie_algebra(rng, dim)
        q = _fractional_weight(rng, dim)
        c = CochainComplex(tuple(ce_differential(g, k, q)
                                 for k in range(dim)), g, q)
        assert lcm(g.table.den, *(x.denominator for x in q)) \
            != g.table.den
        assert phi_sign_check(c)
        for k, dk in enumerate(c.d):
            x = dk.entries[0][0]
            assert not phi_sign_check(
                _with_entry(c, k, 0, 0, x + Fraction(1, 7))), (dim, k)


def test_weighted_differential_squares_to_zero_iff_weight_kills_brackets():
    # (d d w)(X, Y) = -w([X, Y]), and a character makes a module
    cases = [
        (heisenberg(), (2, -1, 0), True),
        (heisenberg(), (0, 0, 1), False),
        (sl2(), (0, 0, 0), True),
        (sl2(), (1, 0, 0), False),
        (solvable2(), (3, 0), True),
        (solvable2(), (0, 1), False),
        (filiform(5), (1, -2, 0, 0, 0), True),
        (filiform(5), (1, 0, 0, 0, 1), False),
        (abelian(4), (1, -2, 3, 5), True),
    ]
    for g, w, character in cases:
        d = [ce_differential(g, k, w) for k in range(g.dim)]
        assert (CochainComplex(tuple(d), g).d_squared_violation() is None) \
            == character, (g.dim, w)
        if not character:
            assert any((d[1] @ d[0]).int_rows)


def test_ce_differential_rejects_a_weight_of_the_wrong_length():
    with pytest.raises(ValueError, match="weight"):
        ce_differential(heisenberg(), 1, (1, 2))


def test_d_squared_zero_iff_jacobi():
    rng = random.Random(271828)
    for _ in range(10):
        dim = rng.randint(3, 5)
        good = random_lie_algebra(rng, dim)
        assert ce_complex(good).d_squared_violation() is None
        assert jacobi_check(good) is None
        bad = random_nonjacobi_table(rng, dim)
        assert ce_complex(bad).d_squared_violation() is not None
        # the first failing triple agrees with the naive Jacobiator
        assert jacobi_failure(bad) is not None
        assert jacobi_check(bad) == jacobi_failure(bad)


def test_betti_abelian_is_binomial():
    for n in range(7):
        report = betti(ce_complex(abelian(n)))
        assert report.betti == tuple(comb(n, k) for k in range(n + 1))
        assert report.ranks == (0,) * n


def test_betti_heisenberg():
    report = betti(ce_complex(heisenberg()))
    assert report.betti == (1, 2, 2, 1)
    assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0


def test_betti_sl2():
    report = betti(ce_complex(sl2()))
    assert report.betti == (1, 0, 0, 1)


def test_betti_ranks_match_gauss_oracle():
    # the ranks are read off the kernel sizes, so check them on dense
    # random bases and on a quotient as well as on the reference algebras
    rng = random.Random(2737)
    cases = [heisenberg(), sl2(), abelian(4)]
    cases += [random_lie_algebra(rng, dim) for dim in (4, 4, 5, 5)]
    cases.append(change_basis(direct_sum(heisenberg(), abelian(2)),
                              random_invertible(rng, 5)))
    cases.append(quotient(heisenberg(), Subspace.span(3, [_unit(3, 2)])))
    for g in cases:
        c = ce_complex(g)
        report = betti(c)
        for k, dk in enumerate(c.d):
            assert report.ranks[k] == gauss_rank(dk.entries)


def test_betti_of_a_random_basis_dim_7_algebra_matches_gauss_oracle():
    # dense rational structure constants, as in the random-basis jobs:
    # the integer core must give every rank the Fraction oracle gives
    rng = random.Random(7001)
    g = change_basis(direct_sum(heisenberg(), filiform(4)),
                     random_invertible(rng, 7))
    c = ce_complex(g)
    report = betti(c)
    for k, dk in enumerate(c.d):
        assert report.ranks[k] == gauss_rank(dk.entries)
    standard = betti(ce_complex(direct_sum(heisenberg(), filiform(4))))
    assert report.betti == standard.betti
    for gens in report.generators:
        for v in gens:
            assert Fraction(*v[0][1]) == 1
            # each entry is a (numerator, denominator) pair in lowest
            # terms with a positive denominator
            assert all(type(x) is tuple
                       and Fraction(*x).as_integer_ratio() == x for _, x in v)


def test_generators_are_reduced_cocycles():
    rng = random.Random(12345)
    for case in range(8):
        if case < 3:
            g = (heisenberg(), sl2(), abelian(4))[case]
        else:
            g = random_lie_algebra(rng, rng.randint(3, 5))
        c = ce_complex(g)
        report = betti(c)
        n = g.dim
        for k in range(n + 1):
            gens = [densify(v, comb(n, k)) for v in report.generators[k]]
            assert len(gens) == report.betti[k]
            for v in gens:
                if k < n:
                    image = [
                        sum(a * b for a, b in zip(row, v))
                        for row in c.d[k].entries
                    ]
                    assert all(x == 0 for x in image)
                lead = next(x for x in v if x != 0)
                assert lead == 1
            if k >= 1 and gens:
                cols = list(zip(*c.d[k - 1].entries))
                base = gauss_rank(cols) if cols else 0
                assert gauss_rank(cols + list(gens)) == base + len(gens)


def test_betti_is_basis_independent():
    rng = random.Random(555)
    for g in (heisenberg(), sl2()):
        expected = betti(ce_complex(g)).betti
        for _ in range(4):
            moved = change_basis(g, random_invertible(rng, g.dim))
            assert betti(ce_complex(moved)).betti == expected


def test_euler_characteristic_vanishes():
    rng = random.Random(31337)
    for _ in range(10):
        g = random_lie_algebra(rng, rng.randint(2, 5))
        numbers = betti(ce_complex(g)).betti
        assert sum((-1) ** k * b for k, b in enumerate(numbers)) == 0


def test_quotient_betti_of_abelian_by_random_subspace():
    rng = random.Random(861)
    for _ in range(10):
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        vectors = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(p)
        ]
        sub = Subspace.span(n, vectors)
        q = quotient(abelian(n), sub)
        d = n - sub.dim
        assert q.dim == d
        assert betti(ce_complex(q)).betti == tuple(
            comb(d, k) for k in range(d + 1)
        )


def test_phi_sign_check_on_reference_complexes():
    for g in (abelian(0), abelian(3), heisenberg(), sl2()):
        assert phi_sign_check(ce_complex(g))


def test_phi_sign_check_on_torus_class_complexes():
    # a torus class complex is the weight-w complex of R^q, and the sign
    # check rebuilds the weight term from the evaluation formula as well
    checked = 0
    for spec in _lattice_specs():
        try:
            report = torus_betti(spec)
        except InvalidSpec:
            continue
        free = transverse_frame(spec).skeleton.complement
        for cert in report.acyclicity_certificates:
            c = build_mode_complex(tuple(cert.mode[f] for f in free))
            assert phi_sign_check(c), (spec, cert.mode)
            checked += 1
    assert checked >= 10
    c = build_mode_complex((1, 2, 0))
    assert phi_sign_check(c)
    assert not phi_sign_check(replace(c, weight=(1, -2, 0)))
    assert not phi_sign_check(replace(c, weight=()))
    with pytest.raises(ValueError, match="weight length 2 != dim 3"):
        replace(c, weight=(1, 2))


def _with_entry(c, k, i, j, value):
    """c with entry (i, j) of d_k replaced by value."""
    rows = [list(row) for row in c.d[k].entries]
    rows[i][j] = Fraction(value)
    d = list(c.d)
    d[k] = ExactMatrix.from_rows(rows, cols=c.d[k].cols)
    return replace(c, d=tuple(d))


def test_phi_sign_check_fails_on_any_single_changed_entry():
    # sl(2), a seeded dim-5 algebra in a random basis, its transport to
    # another basis, and a weighted torus class complex
    rng = random.Random(2718)
    g = random_lie_algebra(rng, 5)
    moved = change_basis(g, random_invertible(rng, 5))
    assert any(g.table.int_rows) and any(moved.table.int_rows)
    complexes = [ce_complex(sl2()), ce_complex(g), ce_complex(moved),
                 build_mode_complex((1, 2, 0))]
    changed, verdicts = [], []
    for c in complexes:
        assert phi_sign_check(c)
        count = 0
        for k, dk in enumerate(c.d):
            for i, row in enumerate(dk.entries):
                for j, x in enumerate(row):
                    # flip a nonzero entry's sign, or fill a zero one
                    wrong = -x if x != 0 else Fraction(1)
                    assert not phi_sign_check(
                        _with_entry(c, k, i, j, wrong)), (c.dim, k, i, j)
                    count += 1
        changed.append(count)
        # a d_k with one more, zero, row is refused by the complex itself
        for k, dk in enumerate(c.d):
            d = list(c.d)
            d[k] = ExactMatrix(dk.cols, dk.den, dk.int_rows + ((),))
            with pytest.raises(ValueError, match="d_%d must be %d x %d, "
                               "got %d x" % (k, dk.rows, dk.cols,
                                             dk.rows + 1)):
                replace(c, d=tuple(d))
        # the complex kept, any one bracket of its algebra sign-flipped,
        # fails the degree-1 clause (sl(2) and both dim-5 tables have some)
        g, table = c.algebra, c.algebra.table
        for p, row in enumerate(table.int_rows):
            for at in range(len(row)):
                rows = list(table.int_rows)
                rows[p] = tuple((j, -x if t == at else x)
                                for t, (j, x) in enumerate(row))
                wrong = replace(table, int_rows=tuple(rows))
                assert not phi_sign_check(
                    replace(c, algebra=LieAlgebra(wrong))), (p, at)
        # differentials built with one random rational weight and labelled
        # with another or the same: the verdict is the oracle's comparison
        weights = [_fractional_weight(rng, g.dim) for _ in range(2)]
        for built in weights:
            d = tuple(ce_differential(g, k, built) for k in range(g.dim))
            for label in weights:
                oracle = all(dk == ExactMatrix.from_rows(
                    ce_matrix_bruteforce(g, k, label))
                    for k, dk in enumerate(d))
                verdict = phi_sign_check(CochainComplex(d, g, label))
                assert verdict == oracle, (g.dim, built, label)
                verdicts.append(verdict)
    # every entry of d_1, of each middle d_k and of the top d_k
    assert changed == [3 + 9 + 3, 5 + 50 + 100 + 50 + 5,
                       5 + 50 + 100 + 50 + 5, 3 + 9 + 3]
    assert verdicts.count(True) == verdicts.count(False) == 8


def test_d_squared_check_sees_cancelling_row_products():
    # each nonzero row of d_1 d_0 is a sum of two products that cancel
    d0 = ExactMatrix.from_rows([[1], [1], [2]])
    d1 = ExactMatrix.from_rows([[1, -1, 0], [2, 0, -1], [0, 0, 0]])
    d2 = ExactMatrix.from_rows([[0, 0, 5]])
    c = CochainComplex((d0, d1, d2), abelian(3))
    assert c.d_squared_violation() is None
    assert _with_entry(c, 1, 1, 1, -2).d_squared_violation() == 0
    assert _with_entry(c, 2, 0, 0, 1).d_squared_violation() == 1


def test_d_squared_check_reports_the_perturbed_degree():
    rng = random.Random(8128)
    for _ in range(6):
        g = random_lie_algebra(rng, 5)
        c = ce_complex(g)
        assert c.d_squared_violation() is None
        for k in range(1, g.dim - 1):
            # changing d_k at (i, j) moves row i of d_k d_{k-1} by a
            # multiple of row j of d_{k-1}, so pick a nonzero one
            j = next((r for r, row in enumerate(c.d[k - 1].int_rows)
                      if row), None)
            if j is None:
                continue
            i = rng.randrange(c.d[k].rows)
            value = c.d[k].entries[i][j] + 1
            assert _with_entry(c, k, i, j, value).d_squared_violation() == k - 1


def _built_violation(c):
    """The first k whose built product d_{k+1} @ d_k is not zero."""
    d = c.d
    return next((k for k in range(len(d) - 1)
                 if any((d[k + 1] @ d[k]).int_rows)), None)


def _first_built_row(a, b):
    return next((i for i, row in enumerate((a @ b).int_rows) if row), None)


def test_streaming_zero_test_matches_the_built_product():
    # complexes whose first d.d violation is at k >= 2: change one entry
    # of d_{k+1} against a nonzero row of d_k
    rng = random.Random(8129)
    seen = set()
    for _ in range(6):
        g = random_lie_algebra(rng, 6)
        c = ce_complex(g)
        for k in range(2, g.dim - 1):
            j = next((r for r, row in enumerate(c.d[k].int_rows) if row),
                     None)
            if j is None:
                continue
            i = rng.randrange(c.d[k + 1].rows)
            value = c.d[k + 1].entries[i][j] + rng.choice([-2, -1, 1, 3])
            bad = _with_entry(c, k + 1, i, j, value)
            assert bad.d_squared_violation() == _built_violation(bad) == k
            for m in range(len(bad.d) - 1):
                a, b = bad.d[m + 1], bad.d[m]
                assert a.first_nonzero_product_row(b) == \
                    _first_built_row(a, b)
            seen.add(k)
    assert seen == {2, 3, 4}
    # broken bracket tables: the triple of the first nonzero row of the
    # built product d_2 @ d_1
    for dim in (3, 4, 4, 5, 5, 6):
        bad = change_basis(random_nonjacobi_table(rng, dim),
                           random_invertible(rng, dim))
        row = _first_built_row(ce_differential(bad, 2),
                               ce_differential(bad, 1))
        assert jacobi_check(bad) == enumerate_basis(dim, 3)[row]
        assert ce_complex(bad).d_squared_violation() == 1
    with pytest.raises(ValueError, match="shape mismatch"):
        ExactMatrix.zero(2, 3).first_nonzero_product_row(
            ExactMatrix.zero(2, 2))


def test_betti_of_filiform_10():
    report = betti(ce_complex(filiform(10)))
    assert report.betti == (1, 2, 5, 12, 20, 24, 20, 12, 5, 2, 1)
    assert [len(g) for g in report.generators] == list(report.betti)


def test_betti_rejects_non_complex():
    rng = random.Random(4242)
    bad = random_nonjacobi_table(rng, 3)
    with pytest.raises(ValueError):
        betti(ce_complex(bad))


def test_dim_zero_complex():
    report = betti(ce_complex(abelian(0)))
    assert report.betti == (1,)
    assert report.monomials == (((),),)
