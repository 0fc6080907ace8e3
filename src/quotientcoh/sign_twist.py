"""The sign-twist certificate of a cochain complex.

phi_sign_check certifies the signs of a CochainComplex by the Leibniz
rule: the w-twisted Chevalley-Eilenberg differential obeys d(a ^ b) =
da ^ b + (-1)^|a| a ^ db - w ^ a ^ b, and such a map of degree one is
fixed by its values in degrees 0 and 1 (Chevalley and Eilenberg, Trans.
AMS 63, 1948; Koszul, Bull. SMF 78, 1950).  Its wedge signs are its own
merge counts, not ce_differential's; only a --check Lie job compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .exterior import enumerate_basis
from .cochain import cleared_weight

if TYPE_CHECKING:
    from .cochain import CochainComplex


def _factors(col: dict[int, int]) -> Iterator[tuple[int, int, int]]:
    """A column {a: x}, monomials as bit sets, as factors (a, under, x):
    under xors the masks below each index of a, so for b apart from a the
    parity of b & under, that of the pairs x in a, y in b with x > y, is
    the sign of e^a ^ e^b."""
    for a, x in col.items():
        under, bits = 0, a
        while bits:
            under ^= (bits & -bits) - 1
            bits &= bits - 1
        yield a, under, x


def _wedge_into(col: dict[int, int], factors: list[tuple[int, int, int]],
                b: int) -> None:
    """Add (the sum of the factors) ^ e^b to col."""
    for a, under, x in factors:
        if not a & b:
            col[a | b] = col.get(a | b, 0) + (
                -x if (b & under).bit_count() & 1 else x)


def phi_sign_check(c: CochainComplex) -> bool:
    """Certify c as the twisted Chevalley-Eilenberg complex of c.algebra.

    With w = c.weight, the check holds iff d_0 is w, column i of d_1 is
    w ^ e^i minus column i of the bracket matrix, and for k >= 2 column
    I = (i, I') of d_k, with i = min I, is d_1 e^i ^ e^I' - e^i ^
    d_{k-1} e^I' - w ^ e^I (at k = 1 that sum is d_1 e^i).  Each
    degree's columns are built from the previous degree's, and each
    entry x / dk.den of d_k matches its expected y / D as x * D =
    y * dk.den.  The shapes C(n, k+1) x C(n, k) and the weight's length
    are the complex's own to check; and since a stored entry is never
    zero (the ExactMatrix normal form), equal nonzero counts make the
    entry match one to one.
    """
    g, n = c.algebra, c.dim
    den, scale, w = cleared_weight(g, c.weight)
    expected = {0: {1 << j: x for j, x in enumerate(w) if x}}
    weight = [*_factors(expected[0])]
    d1: dict[int, dict[int, int]] = {1 << i: {} for i in range(n)}
    for i, col in d1.items():
        _wedge_into(col, weight, i)
    for (p, q), row in zip(enumerate_basis(n, 2), g.table.int_rows):
        for i, x in row:
            col, pq = d1[1 << i], 1 << p | 1 << q
            col[pq] = col.get(pq, 0) - x * scale
    factors = {i: [*_factors(col)] for i, col in d1.items()}
    minus_weight = [(a, under, -x) for a, under, x in weight]
    for k, dk in enumerate(c.d):
        if k:
            prev, expected = expected, {}
            for I in rows:  # the rows of d_{k-1} are the columns of d_k
                bit, col = I & -I, {}
                _wedge_into(col, factors[bit], I ^ bit)
                for J, y in prev[I ^ bit].items():
                    if not J & bit:
                        col[J | bit] = col.get(J | bit, 0) + (
                            y if (J & (bit - 1)).bit_count() & 1 else -y)
                _wedge_into(col, minus_weight, I)
                expected[I] = {m: x for m, x in col.items() if x}
        rows = [sum(1 << x for x in m) for m in enumerate_basis(n, k + 1)]
        columns = [*expected.values()]
        if sum(map(len, dk.int_rows)) != sum(map(len, columns)):
            return False
        for J, row in zip(rows, dk.int_rows):
            for i, x in row:
                if columns[i].get(J, 0) * dk.den != x * den:
                    return False
    return True
