"""Finite-dimensional Lie algebras, their Jacobi test and their quotients.

A Lie algebra is presented by its bracket matrix, the linear map
Lambda^2 g -> g as one sparse ExactMatrix: row p holds the coordinates
of [e_i, e_j] for the p-th pair i < j in the lexicographic order of
exterior.enumerate_basis(n, 2).  In degree one the cochain differential
(see cochain) is (d a)(X, Y) = -a([X, Y]): d_1 is minus the bracket
matrix, and d_2 d_1 = 0 is the Jacobi identity, which jacobi_check
tests as d_2 @ table = 0.
A LieAlgebra derives its bracket incidence, the nonzero integer bracket
rows by index pair, once, and each of its differentials reads it; it
builds each trivial-weight differential once too, so the d_2 that
jacobi_check tests is the one ce_complex returns.  The Jacobi check is
a zero test that multiplies row by row and stops at the first nonzero
row, building no product matrix.

The quotient by an ideal h, a lie.Subspace, is the LieAlgebra on
h.complement whose bracket is the residual of the integer parent
bracket row after reduction by h, over the parent's denominator times
h.scale.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, Mapping

from .cochain import ce_differential
from .errors import NotAnIdeal
from .exterior import enumerate_basis
from .matrix import ExactMatrix, IntRow, RationalLike
from .ratio import Ratio, as_ratio
from .record import record

if TYPE_CHECKING:
    from .lie import Subspace


@record
class LieAlgebra:
    """A Lie algebra given by its bracket matrix Lambda^2 g -> g.

    Row p of table is [e_i, e_j] for the p-th pair i < j of
    enumerate_basis(dim, 2), so table has shape C(dim, 2) x dim, with
    dim read off its width, and is minus the degree-one differential
    d_1.  Only pairs i < j are stored, so antisymmetry holds by
    construction; the Jacobi identity is checked separately by
    jacobi_check so deliberately broken tables can still be built and
    examined.
    """

    table: ExactMatrix

    def __post_init__(self):
        n = self.dim
        if self.table.rows != comb(n, 2):
            raise ValueError(
                "bracket matrix must be %d x %d" % (comb(n, 2), n)
            )

    @property
    def dim(self) -> int:
        return self.table.cols

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int, int], RationalLike],
    ) -> "LieAlgebra":
        """Build from sparse entries {(i, j, k): c_ij^k}.

        Values may be ints, Fractions or Ratios.  An entry with i > j is
        stored as c_ji^k = -c_ij^k; giving both sides is allowed only
        when they are consistent.
        """
        pairs: dict[tuple[int, int, int], Ratio] = {}
        for (i, j, k), raw in brackets.items():
            v = as_ratio(raw)
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(
                        "bracket index %d out of range for dim %d" % (idx, dim)
                    )
            if i == j:
                if v[0]:
                    raise ValueError(
                        "antisymmetry forces [e_%d, e_%d] = 0" % (i, i)
                    )
                continue
            key, val = ((i, j, k), v) if i < j else ((j, i, k), (-v[0], v[1]))
            if pairs.setdefault(key, val) != val:
                raise ValueError(
                    "conflicting values for c[%d][%d][%d]" % (i, j, k)
                )
        row_of = {pair: p for p, pair in enumerate(enumerate_basis(dim, 2))}
        rows: list[dict[int, Ratio]] = [{} for _ in row_of]
        for (i, j, k), v in pairs.items():
            rows[row_of[i, j]][k] = v
        return cls(ExactMatrix.from_sparse(dim, rows))

    @cached_property
    def partners(self) -> dict[int, dict[int, IntRow]]:
        """{i: {j: [e_i, e_j]}} for the pairs i < j with a nonzero
        bracket, each bracket as (k, int) pairs over table.den."""
        partners: dict[int, dict[int, IntRow]] = {}
        for (i, j), row in zip(enumerate_basis(self.dim, 2),
                               self.table.int_rows):
            if row:
                partners.setdefault(i, {})[j] = row
        return partners

    @cached_property
    def _differentials(self) -> dict[int, ExactMatrix]:
        """{k: ce_differential(self, k)} for the degrees built so far."""
        return {}

    def _differential(self, k: int) -> ExactMatrix:
        """The trivial-weight d_k, built once per algebra: jacobi_check's
        d_2 is the one ce_complex returns."""
        built = self._differentials
        if k not in built:
            built[k] = ce_differential(self, k)
        return built[k]


def abelian(n: int) -> LieAlgebra:
    """The abelian Lie algebra R^n (all brackets zero)."""
    return LieAlgebra(ExactMatrix.zero(comb(n, 2), n))


def heisenberg() -> LieAlgebra:
    """The 3-dimensional algebra with [e_0, e_1] = e_2 and center e_2."""
    return LieAlgebra.from_brackets(3, {(0, 1, 2): 1})


def sl2() -> LieAlgebra:
    """sl(2) in the basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra.from_brackets(
        3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
    )


def jacobi_check(g: LieAlgebra) -> tuple[int, int, int] | None:
    """Exact Jacobi test, read off d_2 times the bracket matrix, -d_1.

    Row (i, j, k), column m of d_2 d_1 is (d d e^m)(e_i, e_j, e_k), the
    e_m coordinate of the cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
    + [[e_k, e_i], e_j]; d_2 times the bracket matrix is its negative.
    Rows follow the lexicographic order of the triples i < j < k, so the
    first nonzero row names the first failing triple; the product is
    tested row by row and never built.  Returns that triple (i, j, k),
    or None when the identity holds.
    """
    row = g._differential(2).first_nonzero_product_row(g.table)
    return None if row is None else enumerate_basis(g.dim, 3)[row]


def brackets(g: LieAlgebra, h: Subspace) -> ExactMatrix:
    """[e_i, h.basis[b]] as row i * h.dim + b, times a positive constant.

    The brackets are one integer sparse product: the rows
    e_i ^ h.basis[b], in the pair basis of Lambda^2 g, times the
    bracket matrix.
    """
    if h.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    pair_row = {pair: p for p, pair in enumerate(enumerate_basis(g.dim, 2))}
    wedges = [
        {pair_row[min(i, j), max(i, j)]: x if i < j else -x
         for j, x in b if j != i}
        for i in range(g.dim) for b in h.basis
    ]
    return ExactMatrix.from_int_rows(g.table.rows, 1, wedges) @ g.table


def _ideal_failure(g: LieAlgebra, h: Subspace) -> tuple[int, int] | None:
    """The first (i, bi) with [e_i, h.basis[bi]] outside h, or None."""
    for r, row in enumerate(brackets(g, h).int_rows):
        if h.reduce(row):
            return divmod(r, h.dim)
    return None


def quotient(g: LieAlgebra, h: Subspace) -> LieAlgebra:
    """g/h on the coordinates h.complement, raising NotAnIdeal when h is
    not bracket-closed.

    Basis vector p of the quotient is e_c for c = h.complement[p].  The
    induced bracket of two complement coordinates is the sparse residual
    of their parent bracket row after reduction by h, which vanishes on
    every pivot of h.  `Subspace.reduce` returns it times h.scale from
    integer rows over the table's denominator, so the induced table is
    those rows over den * h.scale.
    """
    failure = _ideal_failure(g, h)
    if failure is not None:
        raise NotAnIdeal(*failure)
    position = {c: p for p, c in enumerate(h.complement)}
    # parent pairs of complement coordinates come in the lexicographic
    # order of their positions, since complement is increasing
    rows = []
    for (a, b), row in zip(enumerate_basis(g.dim, 2), g.table.int_rows):
        if a in position and b in position:
            rows.append({position[k]: x for k, x in h.reduce(row).items()})
    return LieAlgebra(ExactMatrix.from_int_rows(
        len(position), g.table.den * h.scale, rows))
