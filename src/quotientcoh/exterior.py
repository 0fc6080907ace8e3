"""Combinatorics of exterior-algebra monomial bases.

A basis k-covector of Lambda^k(R^n) is a strictly increasing tuple of
coordinate indices.  For fixed n and k the tuples are ordered
lexicographically, and every matrix elsewhere in the package indexes its
rows and columns by that order.  Signs are transposition counts: moving
an index past j other indices contributes (-1)^j.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from operator import ge

MultiIndex = tuple[int, ...]


def check_multi_index(m: MultiIndex) -> None:
    """Reject tuples that are not strictly increasing."""
    if any(map(ge, m, m[1:])):
        raise ValueError("multi-index %r is not strictly increasing" % (m,))


def enumerate_basis(n: int, k: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples from range(n), lexicographic.

    Empty for k > n or k < 0; the single empty tuple for k = 0.
    """
    if k < 0:
        return []
    return list(combinations(range(n), k))


def wedge_insert(i: int, m: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Multiply e_i into the monomial e_m on the left.

    Returns (sign, merged) where sign = (-1)^(number of indices of m
    below i), or None if i already occurs (the product is zero).
    """
    check_multi_index(m)
    pos = bisect_left(m, i)
    if pos < len(m) and m[pos] == i:
        return None
    sign = -1 if pos % 2 else 1
    return sign, m[:pos] + (i,) + m[pos:]


def remove_pair(m: MultiIndex, i: int, j: int) -> tuple[int, MultiIndex] | None:
    """Contract the two indices i != j out of m, pulling i then j to the front.

    Returns (sign, rest) with e_m = sign * e_i ^ e_j ^ e_rest, or None
    if either index is absent.  The sign counts the transpositions that
    move i to the front and then j to the front of the remainder.
    """
    check_multi_index(m)
    if i == j:
        raise ValueError("indices must differ, got i = j = %d" % i)
    if i not in m or j not in m:
        return None
    pos_i = m.index(i)
    rest = m[:pos_i] + m[pos_i + 1:]
    pos_j = rest.index(j)
    rest = rest[:pos_j] + rest[pos_j + 1:]
    sign = (-1) ** (pos_i + pos_j)
    return sign, rest
