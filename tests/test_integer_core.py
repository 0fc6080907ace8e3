"""The exact core on integers: one normal form per rational matrix,
integer products, ranks and kernels against the dense oracles, the
certificates that read integer rows, and the image basis of `betti`."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import groupby
from math import comb

import pytest

from quotientcoh import (
    betti, ce_complex, heisenberg, jacobi_check, lie, phi_sign_check, sl2)
from quotientcoh.record import replace
from quotientcoh import scalars
from quotientcoh.scalars import (
    EchelonBasis, ExactMatrix, kernel_survivors, nullspace_basis, rank)

from oracles import (
    change_basis,
    densify,
    direct_sum,
    filiform,
    gauss_rank,
    jacobi_failure,
    naive_generators,
    naive_rref,
    random_invertible,
    random_lie_algebra,
    random_nonjacobi_table,
)


def _mixed_rows(rng, rows, cols):
    """Dense rows of ints and Fractions over denominators 1 to 12."""
    def entry():
        if rng.random() < 0.4:
            return 0
        num = rng.randint(-9, 9)
        return num if rng.random() < 0.3 else Fraction(num, rng.randint(1, 12))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _assert_normal(m):
    assert m.den > 0
    assert math.gcd(m.den, *(x for row in m.int_rows for _, x in row)) == 1
    for row in m.int_rows:
        assert all(x != 0 and type(x) is int for _, x in row)
        assert [j for j, _ in row] == sorted({j for j, _ in row})


def test_one_normal_form_whatever_the_construction():
    rng = random.Random(190)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = _mixed_rows(rng, rows, cols)
        by_rows = ExactMatrix.from_rows(dense, cols=cols)
        # the same entries as a sparse map, Fractions at every other
        # denominator, some of them not yet in lowest terms
        by_sparse = ExactMatrix.from_sparse(cols, [
            {j: Fraction(x * 6, 6) if j % 2 else x
             for j, x in enumerate(r) if x} for r in dense])
        # a product: (6 M) @ (I / 6), both factors over den > 1 or not
        scaled = ExactMatrix.from_rows([[6 * x for x in r] for r in dense])
        sixth = ExactMatrix.from_rows(
            [[Fraction(int(i == j), 6) for j in range(cols)]
             for i in range(cols)])
        by_product = scaled @ sixth
        # integer rows scaled by a common factor, over that factor times den
        factor = rng.choice([2, 3, 35])
        by_ints = ExactMatrix.from_int_rows(
            cols, by_rows.den * factor,
            [{j: factor * x for j, x in row} for row in by_rows.int_rows])
        for m in (by_rows, by_sparse, by_product, by_ints):
            _assert_normal(m)
            assert m == by_rows and hash(m) == hash(by_rows)
            assert m.entries == tuple(tuple(Fraction(x) for x in r)
                                      for r in dense)
    with pytest.raises(ValueError, match="denominator must be positive"):
        ExactMatrix(1, 1, 0, ())
    with pytest.raises(ValueError, match="denominator must be positive"):
        ExactMatrix(1, 1, -2, (((0, 1),),))


def test_integer_operations_against_dense_oracles():
    rng = random.Random(191)
    for _ in range(50):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a, b = _mixed_rows(rng, n, k), _mixed_rows(rng, k, m)
        ma = ExactMatrix.from_rows(a, cols=k)
        mb = ExactMatrix.from_rows(b, cols=m)
        expected = [[sum((Fraction(a[i][t]) * b[t][j] for t in range(k)),
                         Fraction(0)) for j in range(m)] for i in range(n)]
        product = ma @ mb
        _assert_normal(product)
        assert product.entries == tuple(tuple(r) for r in expected)
        assert rank(ma) == gauss_rank(a)
        rows, pivots = naive_rref(a, k)
        free = [c for c in range(k) if c not in pivots]
        kernel = nullspace_basis(ma)
        assert len(kernel) == len(free) == k - rank(ma)
        for f, v in zip(free, kernel):
            expected_v = [Fraction(int(c == f)) for c in range(k)]
            for row, p in zip(rows, pivots):
                expected_v[p] = -row[f]
            # the free column is the last entry, positive; content 1
            assert v[-1][0] == f and v[-1][1] > 0
            assert math.gcd(*(x for _, x in v)) == 1
            assert all(type(x) is int for _, x in v)
            assert tuple(x / v[-1][1] for x in densify(v, k)) \
                == tuple(expected_v)


def test_a_zero_product_of_factors_over_den_above_one():
    # 1/2 * 2/3 + 1/3 * (-1) = 0
    a = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    b = ExactMatrix.from_rows([[Fraction(2, 3)], [-1]])
    assert (a.den, b.den) == (6, 3)
    product = a @ b
    assert product.is_zero() and product.den == 1
    assert product == ExactMatrix.zero(1, 1)


def _with_numerator(c, k, delta):
    """c with the first nonzero numerator of d_k moved by delta."""
    dk = c.d[k]
    i = next(i for i, row in enumerate(dk.int_rows) if row)
    rows = list(dk.int_rows)
    (j, x), *rest = rows[i]
    rows[i] = ((j, x + delta), *rest)
    d = list(c.d)
    d[k] = ExactMatrix(dk.rows, dk.cols, dk.den, tuple(rows))
    return replace(c, d=tuple(d))


def test_one_changed_numerator_fails_the_sign_twist():
    rng = random.Random(192)
    for g in (filiform(5), random_lie_algebra(rng, 4),
              change_basis(heisenberg(), random_invertible(rng, 3))):
        c = ce_complex(g)
        assert phi_sign_check(c)
        for k, dk in enumerate(c.d):
            if dk.is_zero():
                continue
            assert not phi_sign_check(_with_numerator(c, k, 1)), (g, k)


def test_a_broken_rational_table_fails_both_checks_at_the_first_triple():
    rng = random.Random(193)
    for _ in range(6):
        dim = rng.randint(3, 5)
        bad = change_basis(random_nonjacobi_table(rng, dim),
                           random_invertible(rng, dim))
        assert bad.table.den > 1
        assert jacobi_check(bad) == (False, jacobi_failure(bad))
        assert ce_complex(bad).d_squared_violation() == 1


def _counted_betti(monkeypatch, c):
    """betti(c), and the number of adds to each EchelonBasis it filled,
    in order: the bases betti and kernel_survivors build, not the
    eliminations inside nullspace_basis, which scalars runs on its own
    bases."""
    calls = []

    class Counted(EchelonBasis):
        def add(self, v):
            calls.append(self)
            return super().add(v)

    def counted_survivors(kernel, image):
        monkeypatch.setattr(scalars, "EchelonBasis", Counted)
        try:
            return kernel_survivors(kernel, image)
        finally:
            monkeypatch.setattr(scalars, "EchelonBasis", EchelonBasis)

    monkeypatch.setattr(lie, "EchelonBasis", Counted)
    monkeypatch.setattr(lie, "kernel_survivors", counted_survivors)
    report = betti(c)
    monkeypatch.setattr(lie, "EchelonBasis", EchelonBasis)
    monkeypatch.setattr(lie, "kernel_survivors", kernel_survivors)
    # calls keeps every basis alive, so no two share an id
    return report, [len(list(run)) for _, run in groupby(calls, key=id)]


def _expected_adds(c):
    """In degree k, with r = rank d_{k-1} and b = betti[k]: r adds of the
    pivot columns of d_{k-1} restricted to the free columns of d_k, which
    pick the b surviving kernel vectors (none when r = 0), then r + b to
    the representative basis; a degree with b = 0 adds nothing."""
    n = c.dim
    ranks = [gauss_rank(dk.entries) for dk in c.d] + [0]
    expected = []
    for k in range(n + 1):
        r = ranks[k - 1] if k else 0
        b = comb(n, k) - ranks[k] - r
        if b:
            expected += [r, r + b] if r else [b]
    return expected


def test_betti_adds_pivot_columns_and_kernel_vectors_only(monkeypatch):
    rng = random.Random(194)
    algebras = [random_lie_algebra(rng, dim) for dim in (3, 4, 4, 5, 5, 6)]
    algebras.append(change_basis(direct_sum(heisenberg(), heisenberg()),
                                 random_invertible(rng, 6)))
    for g in algebras:
        c = ce_complex(g)
        report, added = _counted_betti(monkeypatch, c)
        assert added == _expected_adds(c)
        n = g.dim
        oracle = naive_generators([dk.entries for dk in c.d], n)
        assert [[densify(v, comb(n, k)) for v in gens]
                for k, gens in enumerate(report.generators)] == oracle


def test_betti_adds_no_kernel_vector_that_lies_in_the_image(monkeypatch):
    # in a random basis, sl2 + sl2 has betti (1, 0, 0, 2, 0, 0, 1) and
    # sl2 has (1, 0, 0, 1): most kernel vectors are coboundaries, and
    # the degrees with betti 0 add nothing
    rng = random.Random(195)
    for g, betti_numbers, adds, before in (
        (change_basis(direct_sum(sl2(), sl2()), random_invertible(rng, 6)),
         (1, 0, 0, 2, 0, 0, 1), [1, 9, 11, 1], 64),
        (change_basis(sl2(), random_invertible(rng, 3)), (1, 0, 0, 1),
         [1, 1], 8),
    ):
        c = ce_complex(g)
        report, added = _counted_betti(monkeypatch, c)
        assert report.betti == betti_numbers
        assert added == adds == _expected_adds(c)
        n = g.dim
        # adding every image column and every kernel vector would take
        # rank d_{k-1} + dim ker d_k = 2 rank d_{k-1} + betti[k] adds
        # per degree
        assert sum(2 * r + b for r, b in zip(
            (0,) + report.ranks, report.betti)) == before > sum(added)
        oracle = naive_generators([dk.entries for dk in c.d], n)
        assert [[densify(v, comb(n, k)) for v in gens]
                for k, gens in enumerate(report.generators)] == oracle
