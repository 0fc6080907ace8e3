from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotientcoh.scalars import (
    ExactMatrix,
    ExtScalar,
    nullspace_basis,
    parse_ext_scalar,
    rank,
    rref,
)

from oracles import densify, gauss_rank, minor_rank, naive_rref


def _random_matrix(rng, rows, cols, denom=True):
    def entry():
        num = rng.randint(-4, 4)
        den = rng.choice([1, 2, 3]) if denom else 1
        return Fraction(num, den)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _mat(rows):
    return ExactMatrix.from_rows(rows)


def test_rank_examples():
    assert rank(_mat([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(_mat(_identity(4))) == 4
    assert rank(ExactMatrix.zero(3, 5)) == 0
    assert rank(_mat([[Fraction(1, 2), Fraction(1, 3)], [1, 1]])) == 2


def test_nullspace_examples():
    assert nullspace_basis(_mat(_identity(3))) == []
    null = nullspace_basis(_mat([[1, 1]]))
    assert len(null) == 1
    v = densify(null[0], 2)
    # proportional to (1, -1)
    assert v[0] == -v[1] and v[0] != 0
    assert len(nullspace_basis(ExactMatrix.zero(2, 3))) == 3


def test_rank_matches_oracles_on_random_matrices():
    rng = random.Random(20260823)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        r = rank(_mat(m))
        assert r == gauss_rank(m)
        assert r == minor_rank(m)
        assert r == rank(_mat(_transpose(m)))


def test_rank_transpose_on_larger_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = _random_matrix(rng, rows, cols)
        assert rank(_mat(m)) == gauss_rank(m)
        assert rank(_mat(m)) == rank(_mat(_transpose(m)))


def test_nullspace_is_exact_and_complete():
    rng = random.Random(99)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix.from_rows(_random_matrix(rng, rows, cols))
        basis = [densify(v, m.cols) for v in nullspace_basis(m)]
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            image = [
                sum(a * b for a, b in zip(row, v)) for row in m.entries
            ]
            assert all(x == 0 for x in image)
        if basis:
            assert rank(_mat(basis)) == len(basis)


def _sparse_random_matrix(rng, rows, cols):
    """Mostly-zero rational entries, with some rows and columns all zero."""
    density = rng.choice([0.1, 0.3, 0.6, 1.0])
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if i in zero_rows or j in zero_cols or rng.random() > density:
                row.append(Fraction(0))
            else:
                row.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        out.append(row)
    return out


def test_sparse_core_against_dense_oracles():
    rng = random.Random(20261018)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (5, 1), (1, 5)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    for rows, cols in shapes:
        dense = _sparse_random_matrix(rng, rows, cols)
        m = ExactMatrix.from_rows(dense, cols=cols)
        assert m.entries == tuple(tuple(row) for row in dense)
        expected_rows, expected_pivots = naive_rref(dense, cols)
        assert rank(m) == gauss_rank(dense) == len(expected_pivots)
        assert rref(m) == (expected_rows, expected_pivots)
        sparse_kernel = nullspace_basis(m)
        for v in sparse_kernel:
            # sparse rows: nonzero values at strictly increasing columns
            assert [j for j, _ in v] == sorted({j for j, x in v if x != 0})
        kernel = [densify(v, cols) for v in sparse_kernel]
        free = [c for c in range(cols) if c not in expected_pivots]
        assert len(kernel) == len(free)
        for f, v in zip(free, kernel):
            expected = [Fraction(int(c == f)) for c in range(cols)]
            for row, p in zip(expected_rows, expected_pivots):
                expected[p] = -row[f]
            assert v == tuple(expected)
            assert all(
                sum(a * b for a, b in zip(row, v)) == 0 for row in dense
            )


def test_sparse_storage_is_canonical():
    dense = [[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, -1]]
    m = ExactMatrix.from_rows(dense)
    assert m.sparse_rows == (
        ((1, Fraction(1, 2)),), (), ((0, Fraction(3)), (2, Fraction(-1))),
    )
    assert m == ExactMatrix.from_sparse(3, [{1: Fraction(1, 2), 0: 0}, {},
                                            {2: -1, 0: 3}])
    assert densify(m.columns()[2], m.rows) == (
        Fraction(0), Fraction(0), Fraction(-1))
    assert m.columns() == [{2: 3}, {0: Fraction(1, 2)}, {2: -1}]
    with pytest.raises(ValueError):
        ExactMatrix.from_sparse(2, [{2: 1}])


def test_sparse_product_matches_dense_product():
    rng = random.Random(31)
    for _ in range(60):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        a = _sparse_random_matrix(rng, n, k)
        b = _sparse_random_matrix(rng, k, m)
        product = ExactMatrix.from_rows(a, cols=k) @ ExactMatrix.from_rows(
            b, cols=m)
        expected = [
            [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)]
            for i in range(n)
        ]
        assert product == ExactMatrix.from_rows(expected, cols=m)
        assert product.is_zero() == all(x == 0 for r in expected for x in r)


def test_rref_is_canonical_for_the_row_span():
    rng = random.Random(5)
    for _ in range(30):
        m = _random_matrix(rng, 3, 4)
        doubled = [[2 * x for x in row] for row in m] + [m[0]]
        assert rref(_mat(m)) == rref(_mat(doubled))


def test_rref_pivots_are_increasing():
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, pivots = rref(_mat(m))
        assert list(pivots) == sorted(pivots)
        for row, p in zip(rows, pivots):
            assert row[p] == 1
            assert all(row[c] == 0 for c in range(p))


@given(
    st.integers(-50, 50), st.integers(-50, 50),
    st.integers(-50, 50), st.integers(-50, 50),
)
@settings(max_examples=60)
def test_ext_scalar_zero_test(p_num, q_num, r_num, s_num):
    a = ExtScalar(Fraction(p_num, 7), Fraction(q_num, 5))
    b = ExtScalar(Fraction(r_num, 7), Fraction(s_num, 5))
    assert (a - a).is_zero()
    assert (a + b).is_zero() == (p_num + r_num == 0 and q_num + s_num == 0)
    assert a.is_zero() == (p_num == 0 and q_num == 0)


def test_ext_scalar_arithmetic():
    a = ExtScalar(Fraction(1, 2), Fraction(3))
    b = ExtScalar(Fraction(1, 2), Fraction(-3))
    assert (a - a).is_zero()
    assert (a + b).irr == 0
    assert (a * 2).rat == 1
    assert (Fraction(1, 3) * a).irr == 1
    assert (-a).rat == Fraction(-1, 2)


def test_ext_scalar_products_are_rejected():
    a = ExtScalar(1, 1)
    with pytest.raises(TypeError):
        a * a


def test_parse_ext_scalar():
    assert parse_ext_scalar("3") == ExtScalar(3, 0)
    assert parse_ext_scalar("-2/5") == ExtScalar(Fraction(-2, 5), 0)
    assert parse_ext_scalar("1+1*alpha") == ExtScalar(1, 1)
    assert parse_ext_scalar("0-3/2*alpha") == ExtScalar(0, Fraction(-3, 2))
    assert parse_ext_scalar(" 2/3+1/7*alpha ") == ExtScalar(
        Fraction(2, 3), Fraction(1, 7)
    )


@pytest.mark.parametrize(
    "bad", ["0.5", "1+0.5*alpha", "alpha", "1+alpha", "2*alpha", "1/0x", "--3"]
)
def test_parse_ext_scalar_rejects(bad):
    with pytest.raises(ValueError):
        parse_ext_scalar(bad)


def test_parse_decimal_message_is_pointed():
    with pytest.raises(ValueError, match="decimal"):
        parse_ext_scalar("0.5")


def test_matrix_shapes_and_ops():
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert ExactMatrix.from_rows(_identity(2)) @ m == m
    assert (ExactMatrix.zero(4, 2) @ m).is_zero()
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        m @ m
