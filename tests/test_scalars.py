from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotientcoh.literals import parse_ext_scalar
from quotientcoh.matrix import ExactMatrix
from quotientcoh.scalars import (
    EchelonBasis,
    ExtScalar,
    nullspace_basis,
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


def _is_sparse_row(v):
    """Nonzero values at strictly increasing columns."""
    return [j for j, _ in v] == sorted({j for j, x in v if x != 0})


def _assert_primitive(v):
    """A sparse integer row with content 1."""
    assert _is_sparse_row(v)
    assert all(type(x) is int for _, x in v)
    assert math.gcd(*(x for _, x in v)) == 1


def _rref_lead_one(reduced, cols):
    """The dense lead-1 rows and the pivots of rref's integer rows, after
    checking their form: increasing pivots, each row primitive with a
    positive lead at its pivot and zero at every other pivot."""
    pivots = tuple(reduced)
    assert list(pivots) == sorted(pivots)
    rows = []
    for p, row in reduced.items():
        pairs = sorted(row.items())
        _assert_primitive(pairs)
        assert pairs[0][0] == p and pairs[0][1] > 0
        assert not any(j in reduced for j, _ in pairs[1:])
        rows.append(tuple(x / row[p] for x in densify(row, cols)))
    return tuple(rows), pivots


def _kernel_over_free(v, cols):
    """A kernel vector of nullspace_basis divided by its free-column
    entry (its last, positive), after checking it is primitive."""
    _assert_primitive(v)
    assert v[-1][1] > 0
    return tuple(x / v[-1][1] for x in densify(v, cols))


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
        echelon, pivots = _rref_lead_one(rref(m), cols)
        assert pivots == expected_pivots
        assert echelon == expected_rows
        sparse_kernel = nullspace_basis(m)
        for v in sparse_kernel:
            assert _is_sparse_row(v)
        kernel = [_kernel_over_free(v, cols) for v in sparse_kernel]
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
    assert m.entries == (
        (0, Fraction(1, 2), 0), (0, 0, 0), (Fraction(3), 0, Fraction(-1)),
    )
    assert m == ExactMatrix.from_sparse(3, [{1: Fraction(1, 2), 0: 0}, {},
                                            {2: -1, 0: 3}])
    assert (m.den, m.int_rows) == (2, (((1, 1),), (), ((0, 6), (2, -2))))
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
        assert (not any(product.int_rows)) == all(
            x == 0 for r in expected for x in r)


def _wide_random_rows(rng, rows, cols):
    """Sparse rows for the integer core: numerators and denominators up
    to 10^6 (mostly coprime), negative leads, rows whose integer form
    has a content above 1, and int entries mixed with Fractions."""
    out = []
    for _ in range(rows):
        row = {}
        for j in range(cols):
            if rng.random() < 0.4:
                num = rng.randint(-10 ** 6, 10 ** 6) or 1
                if rng.random() < 0.3:
                    row[j] = num  # a plain int
                else:
                    row[j] = Fraction(num, rng.randint(1, 10 ** 6))
        if row and rng.random() < 0.3:
            # a common factor the content division has to remove
            factor = Fraction(rng.choice([6, 35, 1001]), rng.randint(1, 9))
            row = {j: factor * x for j, x in row.items()}
        if row and rng.random() < 0.5:
            lead = min(row)
            row[lead] = -abs(row[lead])
        out.append(row)
    return out


def test_integer_core_against_dense_fraction_oracles():
    rng = random.Random(20261018)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        sparse = _wide_random_rows(rng, rows, cols)
        dense = [densify(row, cols) for row in sparse]
        m = ExactMatrix.from_sparse(cols, sparse)
        expected_rows, expected_pivots = naive_rref(dense, cols)
        assert rank(m) == gauss_rank(dense) == len(expected_pivots)
        echelon, pivots = _rref_lead_one(rref(m), cols)
        assert pivots == expected_pivots
        assert echelon == expected_rows
        free = [c for c in range(cols) if c not in expected_pivots]
        kernel = nullspace_basis(m)
        assert len(kernel) == len(free)
        for f, v in zip(free, kernel):
            assert v[-1][0] == f
            expected = [Fraction(int(c == f)) for c in range(cols)]
            for row, p in zip(expected_rows, expected_pivots):
                expected[p] = -row[f]
            assert _kernel_over_free(v, cols) == tuple(expected)
        # the same rows absorbed one by one, each cleared to integers
        basis = EchelonBasis()
        for row in sparse:
            den = math.lcm(*(Fraction(x).denominator for x in row.values()))
            basis.add({j: int(x * den) for j, x in row.items()})
        assert sorted(basis.rows) == list(expected_pivots)
        # products: each side cleared by its own common denominator
        other = _wide_random_rows(rng, cols, rng.randint(1, 5))
        width = max((j + 1 for row in other for j in row), default=1)
        b = ExactMatrix.from_sparse(width, other)
        b_dense = [densify(row, width) for row in other]
        expected_product = [
            [sum((dense[i][t] * b_dense[t][j] for t in range(cols)),
                 Fraction(0)) for j in range(width)]
            for i in range(rows)
        ]
        assert m @ b == ExactMatrix.from_rows(expected_product, cols=width)


def test_echelon_rows_stay_integer_after_fraction_input():
    basis = EchelonBasis()
    # the rational rows -3/7 e0 + 9/14 e2 + 6 e3, 10/3 e1 - 4/9 e2 and
    # e0 / 999983 + 2 e1 / 999979 + 5/4 e3, cleared to integers
    rows = [
        {0: -6, 2: 9, 3: 84},
        {1: 30, 2: -4},
        {0: 4 * 999979, 1: 8 * 999983, 3: 5 * 999983 * 999979},
    ]
    for row in rows:
        assert basis.add(row) is not None
    assert basis.add({0: -6, 2: 9, 3: 84}) is None
    for p, row in basis.rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
    # the first row divided by its content 3, its lead made positive
    assert basis.rows[0] == {0: 2, 2: -3, 3: -28}


def test_product_zero_test_uses_one_denominator_per_factor():
    # A @ B = 2/2 - 3/3 = 0, but scaling B's rows by their own
    # denominators (2 and 3) would give 2*1 - 3*1 = -1
    a = ExactMatrix.from_rows([[2, 3]])
    b = ExactMatrix.from_rows([[Fraction(1, 2)], [Fraction(-1, 3)]])
    assert not any((a @ b).int_rows)
    c = ExactMatrix.from_rows([[Fraction(1, 5), Fraction(1, 7)]])
    assert (c @ b).entries == ((Fraction(1, 10) - Fraction(1, 21),),)


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
        rows, pivots = _rref_lead_one(rref(_mat(m)), len(m[0]))
        assert list(pivots) == sorted(pivots)
        for row, p in zip(rows, pivots):
            assert row[p] == 1
            assert all(row[c] == 0 for c in range(p))


@given(st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60)
def test_ext_scalar_zero_test(p_num, q_num):
    a = ExtScalar(Fraction(p_num, 7), Fraction(q_num, 5))
    assert (a == ExtScalar()) == (p_num == 0 and q_num == 0)


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
    assert not any((ExactMatrix.zero(4, 2) @ m).int_rows)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        m @ m
