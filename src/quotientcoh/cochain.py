"""Chevalley-Eilenberg cochain complexes of Lie algebras.

The differential on alternating forms of a LieAlgebra follows the
convention

    (d a)(Y_0, ..., Y_k) = sum_{i<j} (-1)^(i+j) a([Y_i, Y_j], Y_0, ...,
                           ^Y_i, ..., ^Y_j, ..., Y_k),

so in degree one (d a)(X, Y) = -a([X, Y]).  ce_differential also takes
coefficients of weight w, and a CochainComplex records the weight it was
built with; on abelian R^q that is the complex of a class of torus
Fourier modes.  Each differential reads the algebra's bracket
incidence.  The d.d check is a zero test that multiplies row by row and
stops at the first nonzero row, building no product matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import comb, lcm

from .exterior import enumerate_basis
from .matrix import ExactMatrix
from .ratio import as_ratio
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

    from .algebra import LieAlgebra
    from .matrix import RationalLike


def cleared_weight(g: LieAlgebra, weight: Sequence[RationalLike]
                   ) -> tuple[int, int, list[int]]:
    """(D, D / table.den, D w) for D the least common denominator of the
    bracket matrix and the weight w."""
    weight = [as_ratio(x) for x in weight]
    den = lcm(g.table.den, *(d for _, d in weight))
    return den, den // g.table.den, [n * (den // d) for n, d in weight]


@record
class CochainComplex:
    """The alternating-forms complex of an n-dimensional algebra.

    n is algebra.dim, read as the property dim.  d[k] is the matrix of
    the degree-k differential with respect to the lexicographic monomial
    bases, shape C(n, k+1) x C(n, k); the tuple has length n since the
    top differential is zero.  d[k] is ce_differential(algebra, k,
    weight), with trivial coefficients when weight is empty; a torus
    mode class has a nonzero weight on R^q.  The constructor refuses any
    other number or shape of differentials, and a nonempty weight whose
    length is not n.
    """

    d: tuple[ExactMatrix, ...]
    algebra: LieAlgebra
    weight: tuple[RationalLike, ...] = ()

    def __post_init__(self):
        n = self.dim
        if len(self.d) != n:
            raise ValueError("a complex of dim %d needs %d differentials, "
                             "got %d" % (n, n, len(self.d)))
        for k, dk in enumerate(self.d):
            if (dk.rows, dk.cols) != (comb(n, k + 1), comb(n, k)):
                raise ValueError("d_%d must be %d x %d, got %d x %d" % (
                    k, comb(n, k + 1), comb(n, k), dk.rows, dk.cols))
        if self.weight and len(self.weight) != n:
            raise ValueError("weight length %d != dim %d"
                             % (len(self.weight), n))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def cochains(self) -> tuple[int, ...]:
        """C(n, k) for k = 0..n: the number of degree-k cochains."""
        n = self.dim
        return tuple([comb(n, k) for k in range(n + 1)])

    def d_squared_violation(self) -> int | None:
        """First degree k with d_{k+1} d_k != 0, or None; each product
        is tested row by row and never built, once per complex."""
        return self._d_squared_verdict

    @cached_property
    def _d_squared_verdict(self) -> int | None:
        d = self.d
        for k in range(len(d) - 1):
            if d[k + 1].first_nonzero_product_row(d[k]) is not None:
                return k
        return None


def ce_differential(
    g: LieAlgebra, k: int, weight: Sequence[RationalLike] = ()
) -> ExactMatrix:
    """Degree-k Chevalley-Eilenberg differential of g, shape C(n, k+1) x
    C(n, k), with coefficients in the character of the given weight
    (trivial when empty).  For J = (J_0 < ... < J_k), entry (J, I) is

        sum_s (-1)^s w[J_s] [I = J - J_s]
        + sum_{s<t} (-1)^(s+t) sum_u c_{J_s J_t}^u eps(u, J - {J_s, J_t} -> I)

    with eps the sign of wedge_insert (0 when u repeats an index); d^2 = 0
    iff w vanishes on [g, g].  On abelian R^q only the first sum is left:
    left wedge with w, the complex of one torus Fourier mode of weight w.
    Only the pairs of the algebra's bracket incidence are visited.
    Entries are integers over D = lcm(table.den, weight denominators),
    each bracket term times D / table.den.  A term is placed by one
    bisection of rest, the rule of wedge_insert without its input check:
    rest is a sub-tuple of the increasing J, so it is increasing.
    """
    n = g.dim
    if weight and len(weight) != n:
        raise ValueError("weight length %d != dim %d" % (len(weight), n))
    den, scale, w = cleared_weight(g, weight)
    w = w or [0] * n
    partners = g.partners
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
    rows = []
    for jmono in enumerate_basis(n, k + 1):
        # the faces J - J_s are distinct columns: no sums in the first term
        row = {col_index[jmono[:s] + jmono[s + 1:]]: -w[i] if s % 2 else w[i]
               for s, i in enumerate(jmono) if w[i]}
        for s, i in enumerate(jmono):
            with_i = partners.get(i)
            if with_i is None:
                continue
            for t in range(s + 1, k + 1):
                bracket = with_i.get(jmono[t])
                if bracket is None:
                    continue
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                sign = -scale if (s + t) % 2 else scale
                for u, c in bracket:
                    pos = bisect_left(rest, u)
                    if pos < k - 1 and rest[pos] == u:
                        continue
                    col = col_index[rest[:pos] + (u,) + rest[pos:]]
                    value = -sign * c if pos % 2 else sign * c
                    row[col] = row.get(col, 0) + value
        rows.append(row)
    return ExactMatrix.from_int_rows(len(col_index), den, rows)


def ce_complex(g: LieAlgebra) -> CochainComplex:
    """Build every differential matrix of the cochain complex of g."""
    return CochainComplex(tuple(g._differential(k) for k in range(g.dim)), g)
