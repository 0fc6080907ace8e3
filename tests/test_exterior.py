from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotientcoh.exterior import (
    check_multi_index,
    enumerate_basis,
    remove_pair,
    wedge_insert,
)

from oracles import eval_monomial


def test_enumerate_examples():
    assert enumerate_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert enumerate_basis(3, 0) == [()]
    assert enumerate_basis(4, 4) == [(0, 1, 2, 3)]
    assert enumerate_basis(2, 3) == []
    assert enumerate_basis(3, -1) == []


def test_enumeration_is_lexicographic_and_complete():
    for n in range(7):
        for k in range(n + 2):
            basis = enumerate_basis(n, k)
            assert len(basis) == (comb(n, k) if k <= n else 0)
            assert basis == sorted(basis)
            assert len(set(basis)) == len(basis)


def test_wedge_insert_examples():
    assert wedge_insert(1, (0, 2)) == (-1, (0, 1, 2))
    assert wedge_insert(0, (1, 2)) == (1, (0, 1, 2))
    assert wedge_insert(3, (0, 1)) == (1, (0, 1, 3))
    assert wedge_insert(1, (0, 1, 2)) is None
    assert wedge_insert(5, ()) == (1, (5,))


def test_remove_pair_examples():
    assert remove_pair((0, 1, 2), 0, 2) == (-1, (1,))
    assert remove_pair((0, 1, 2), 0, 1) == (1, (2,))
    assert remove_pair((0, 1, 2), 1, 0) == (-1, (2,))
    assert remove_pair((0, 1), 0, 2) is None
    assert remove_pair((1, 3), 5, 1) is None
    with pytest.raises(ValueError):
        remove_pair((0, 1), 1, 1)


def test_rejects_non_increasing_input():
    with pytest.raises(ValueError):
        wedge_insert(0, (2, 1))
    with pytest.raises(ValueError):
        remove_pair((1, 1), 1, 0)
    with pytest.raises(ValueError):
        check_multi_index((3, 2))


@given(st.integers(0, 7), st.data())
@settings(max_examples=80)
def test_wedge_insert_sign_matches_determinant(n, data):
    # e_i ^ e_m = sign * e_merged, checked by evaluating both sides on
    # the unit vectors of merged in order (i, then m's order).
    k = data.draw(st.integers(0, n))
    mono = tuple(sorted(data.draw(
        st.sets(st.integers(0, max(n, 1)), min_size=k, max_size=k)
    )))
    i = data.draw(st.integers(0, max(n, 1)))
    result = wedge_insert(i, mono)
    if i in mono:
        assert result is None
        return
    sign, merged = result
    vectors = [_unit(10, i)] + [_unit(10, j) for j in mono]
    assert eval_monomial(merged, vectors) == sign


def _unit(n, i):
    return [int(t == i) for t in range(n)]


def test_remove_pair_sign_matches_determinant():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(2, n)
        mono = tuple(sorted(rng.sample(range(n), k)))
        i, j = rng.sample(list(mono), 2)
        sign, rest = remove_pair(mono, i, j)
        # e_mono = sign * e_i ^ e_j ^ e_rest: evaluate e_mono on the
        # reordered unit vectors and compare with the sign.
        vectors = [_unit(n, i), _unit(n, j)] + [_unit(n, t) for t in rest]
        assert eval_monomial(mono, vectors) == sign


def test_double_insert_is_antisymmetric():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 8)
        mono = tuple(sorted(rng.sample(range(n), rng.randint(0, n - 2))))
        candidates = [t for t in range(n) if t not in mono]
        i, j = rng.sample(candidates, 2)
        s1, m1 = wedge_insert(i, mono)
        s2, m2 = wedge_insert(j, m1)
        t1, w1 = wedge_insert(j, mono)
        t2, w2 = wedge_insert(i, w1)
        assert m2 == w2
        assert s1 * s2 == -t1 * t2
