"""The sign-twist certificate of a cochain complex.

phi_sign_check rebuilds each differential of a CochainComplex from the
evaluation formula for (d a)(Y_0, ..., Y_k), which shares none of
ce_differential's sign code, and compares the two.  Only a Lie job run
with --check calls it, so this module is compiled by those jobs alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .exterior import MultiIndex, enumerate_basis
from .cochain import cleared_weight
from .matrix import ExactMatrix

if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .cochain import CochainComplex
    from .matrix import RationalLike


def _permutation_sign(seq: Sequence[int]) -> int:
    """(-1) to the number of inversions of seq."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _evaluation_differential(
    g: LieAlgebra, k: int, weight: Sequence[RationalLike]
) -> ExactMatrix:
    """d_k rebuilt from the evaluation formula alone.

    Entry (J, I) is (d e^I)(e_J0, ..., e_Jk) = sum over s of (-1)^s
    w[J_s] e^I(e_{J - J_s}) plus the sum over s < t and u of
    (-1)^(s+t) c_{J_s J_t}^u e^I(e_u, e_rest), where rest is J without
    J_s and J_t, and e^I(e_u, e_rest) is the sign of the permutation that
    sorts (u, rest) into I, or 0 when (u, rest) does not list I.  The
    first sum is the action of e_{J_s} on the coefficients, absent when
    weight is empty.  Entries are integers over D, as in ce_differential,
    and a pair outside the algebra's bracket incidence adds nothing.
    """
    den, scale, w = cleared_weight(g, weight)
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(g.dim, k))}
    # (u, rest) -> (column or None, permutation sign), for this call only
    placed: dict[MultiIndex, tuple[int | None, int]] = {}
    rows = []
    for jmono in enumerate_basis(g.dim, k + 1):
        row: dict[int, int] = {}
        for s in range(k + 1):
            if weight:
                col = col_index[jmono[:s] + jmono[s + 1:]]
                row[col] = row.get(col, 0) + (-1) ** s * w[jmono[s]]
            with_s = g.partners.get(jmono[s], {})
            for t in range(s + 1, k + 1):
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                for u, c in with_s.get(jmono[t], ()):
                    args = (u,) + rest
                    if args not in placed:
                        placed[args] = (col_index.get(tuple(sorted(args))),
                                        _permutation_sign(args))
                    col, sign = placed[args]
                    if col is None:
                        continue  # u repeats an index of rest
                    value = (-1) ** (s + t) * scale * sign * c
                    row[col] = row.get(col, 0) + value
        rows.append(row)
    return ExactMatrix.from_int_rows(len(col_index), den, rows)


def phi_sign_check(c: CochainComplex) -> bool:
    """Certify the signs of c against the evaluation formula.

    Each D_k is rebuilt from c.algebra and c.weight by
    _evaluation_differential, which reads the same bracket incidence and
    weight but shares none of ce_differential's sign code (no
    wedge_insert).  With the degreewise
    twist S_k = (-1)^k I, the certificate is the identity S_{k+1} (-D_k)
    = d_k S_k, which matches evaluation on basis vectors against the
    algebraic differential.  Both sides are (-1)^k times D_k and d_k, so
    the identity holds iff D_k = d_k: the two matrices are compared in
    their normal forms, and the check fails as soon as one entry of one
    d_k differs from the formula.
    """
    g = c.algebra
    if len(c.d) != g.dim or len(c.weight) not in (0, g.dim):
        return False
    for k, dk in enumerate(c.d):
        if _evaluation_differential(g, k, c.weight) != dk:
            return False
    return True
