"""Subcomplexes of a cochain complex cut out by linear conditions.

The paper identifies the forms of M/H with the H-invariant basic forms,
a subcomplex of the forms upstairs cut out by linear conditions (the
equivariant form of Hector, Macias-Virgos and Sanmartin-Carbon, Indag.
Math. 21, 2011).  A Subcomplex is built from one matrix of condition
rows per degree k of a cochain.CochainComplex, and keeps the common
kernel S_k = nullspace_basis(conditions[k]) of the degree-k cochains.
The forms invariant under a group are the common kernel of
Lambda^k g^T - I over its generators g, whose rows minus_identity and
exterior_power, which wedges the sparse rows of any ExactMatrix, build;
relative to a subalgebra h, the conditions are iota_X and
L_X = d iota_X + iota_X d for X in h.

A kernel vector s_f has a positive entry a_f at its own free column f
and 0 at the other free columns, so a cochain t in the span of S_(k+1)
is sum_f (t_f / a_f) s_f.  The restricted differential d'_k therefore
reads d_k s at the free columns of S_(k+1), with no elimination.  Its
d-stability residual, d_k s minus that combination, vanishes for every
s in S_k iff d_k maps the span of S_k into that of S_(k+1); the first
degree where it does not is the verdict a Subcomplex keeps, and
lie.betti refuses such a subcomplex, as it refuses a non-complex.  A
dropped condition can make it fail.
"""

from __future__ import annotations

from .exterior import MultiIndex, enumerate_basis, wedge_insert
from .matrix import ExactMatrix
from .record import record
from .scalars import nullspace_basis

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

    from .cochain import CochainComplex
    from .matrix import IntRow


@record
class Subcomplex:
    """The subcomplex of ambient cut out by conditions[k], a matrix on
    the degree-k cochains, for k = 0..n (see the module docstring); the
    constructor refuses a condition matrix of another width.  It keeps
    basis[k], the integer rows of S_k over the degree-k monomials of
    ambient; d[k], the restricted d'_k in those bases, of shape
    dim S_(k+1) x dim S_k; and unstable, the first degree k with a
    nonzero d-stability residual, d_k s minus sum_f d'_k[f, s] s_f for
    some s in S_k, or None."""

    ambient: CochainComplex
    conditions: tuple[ExactMatrix, ...]

    def __post_init__(self):
        conditions = tuple(self.conditions)
        if [c.cols for c in conditions] != list(self.ambient.cochains):
            raise ValueError("conditions need one matrix of width C(n, k) "
                             "for each degree k = 0..%d" % self.dim)
        basis = tuple([tuple(nullspace_basis(c)) for c in conditions])
        d, unstable = [], None
        for k, dk in enumerate(self.ambient.d):
            image = dk @ _columns(basis[k], dk.cols)  # d_k s, one column per s
            # (d_k s)_f / a_f, a_f the entry of s_f at its free column f
            d.append(ExactMatrix.from_sparse(len(basis[k]), [
                {j: (x, a * image.den) for j, x in image.int_rows[f]}
                for f, a in (v[-1] for v in basis[k + 1])]))
            if unstable is None and (
                    image != _columns(basis[k + 1], dk.rows) @ d[k]):
                unstable = k
        self.__dict__.update(conditions=conditions, basis=basis,
                             d=tuple(d), unstable=unstable)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    @property
    def cochains(self) -> tuple[int, ...]:
        """dim S_k for k = 0..n."""
        return tuple([len(s) for s in self.basis])

    def d_squared_violation(self) -> int | None:
        """The ambient's d.d verdict: when the subcomplex is d-stable,
        d'.d' = 0 follows from d.d = 0."""
        return self.ambient.d_squared_violation()


def _columns(vectors: Sequence[IntRow], height: int) -> ExactMatrix:
    """The height x len(vectors) integer matrix with the given columns."""
    rows: list[dict[int, int]] = [{} for _ in range(height)]
    for c, v in enumerate(vectors):
        for j, x in v:
            rows[j][c] = x
    return ExactMatrix.from_int_rows(len(vectors), 1, rows)


def exterior_power(x: ExactMatrix, k: int) -> ExactMatrix:
    """Lambda^k X over x.den ** k: row J, for each k-subset J of the rows
    in lexicographic order, is the wedge of rows j1..jk of X on the
    k-subsets I of the columns, whose entries are the minors det X[J, I]."""
    column = {m: c for c, m in enumerate(enumerate_basis(x.cols, k))}
    rows = []
    for monomial in enumerate_basis(x.rows, k):
        wedge = {(): 1}
        for j in reversed(monomial):  # row j wedged on from the left
            grown: dict[MultiIndex, int] = {}
            for m, c in wedge.items():
                for i, v in x.int_rows[j]:
                    hit = wedge_insert(i, m)
                    if hit:
                        sign, merged = hit
                        grown[merged] = grown.get(merged, 0) + sign * v * c
            wedge = grown
        rows.append({column[m]: c for m, c in wedge.items()})
    return ExactMatrix.from_int_rows(len(column), x.den ** k, rows)


def minus_identity(x: ExactMatrix) -> ExactMatrix:
    """X - I times the denominator of X, whose kernel is the vectors X
    fixes."""
    rows = []
    for i, row in enumerate(x.int_rows):
        entries = dict(row)
        entries[i] = entries.get(i, 0) - x.den
        rows.append(entries)
    return ExactMatrix.from_int_rows(x.cols, 1, rows)
