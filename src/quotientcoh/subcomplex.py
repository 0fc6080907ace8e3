"""Subcomplexes of a cochain complex cut out by linear conditions.

The paper identifies the forms of M/H with the H-invariant basic forms,
a subcomplex of the forms upstairs cut out by linear conditions (the
equivariant form of Hector, Macias-Virgos and Sanmartin-Carbon, Indag.
Math. 21, 2011).  kernel_subcomplex takes one matrix of condition rows
per degree k of a cochain.CochainComplex, and keeps the common kernel
S_k = nullspace_basis(conditions[k]) of the degree-k cochains.  The
forms invariant under a group are the common kernel of Lambda^k g^T - I
over its generators g; relative to a subalgebra h, the conditions are
iota_X and L_X = d iota_X + iota_X d for X in h.

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

from functools import cached_property

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
    """The span of basis[k], integer rows over the degree-k monomials of
    ambient, in each degree k = 0..n; d[k] is the restricted d'_k in
    those bases, of shape dim S_(k+1) x dim S_k.  The constructor
    refuses any other number or shape of bases and differentials."""

    ambient: CochainComplex
    basis: tuple[tuple[IntRow, ...], ...]
    d: tuple[ExactMatrix, ...]

    def __post_init__(self):
        sizes = self.cochains
        shapes = [(dk.rows, dk.cols) for dk in self.d]
        if len(sizes) != self.dim + 1 or shapes != list(zip(sizes[1:], sizes)):
            raise ValueError("a subcomplex needs a basis in each degree "
                             "0..%d and d_k of shape dim S_(k+1) x dim S_k"
                             % self.dim)

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

    @cached_property
    def unstable(self) -> int | None:
        """The first degree k with a nonzero d-stability residual, d_k s
        minus sum_f d'_k[f, s] s_f for some s in S_k, or None."""
        for k, dk in enumerate(self.ambient.d):
            if (dk @ _columns(self.basis[k], dk.cols)
                    != _columns(self.basis[k + 1], dk.rows) @ self.d[k]):
                return k
        return None


def _columns(vectors: Sequence[IntRow], height: int) -> ExactMatrix:
    """The height x len(vectors) integer matrix with the given columns."""
    rows: list[dict[int, int]] = [{} for _ in range(height)]
    for c, v in enumerate(vectors):
        for j, x in v:
            rows[j][c] = x
    return ExactMatrix.from_int_rows(len(vectors), 1, rows)


def kernel_subcomplex(ambient: CochainComplex,
                      conditions: Sequence[ExactMatrix]) -> Subcomplex:
    """The subcomplex of ambient cut out by conditions[k], a matrix on
    the degree-k cochains, for k = 0..n (see the module docstring), or
    ValueError when a condition matrix has another width."""
    if [c.cols for c in conditions] != list(ambient.cochains):
        raise ValueError("conditions need one matrix of width C(n, k) for "
                         "each degree k = 0..%d" % ambient.dim)
    basis = tuple([tuple(nullspace_basis(c)) for c in conditions])
    d = []
    for k, dk in enumerate(ambient.d):
        image = dk @ _columns(basis[k], dk.cols)  # d_k s, one column per s
        # (d_k s)_f / a_f, a_f the entry of s_f at its free column f
        d.append(ExactMatrix.from_sparse(len(basis[k]), [
            {j: (x, a * image.den) for j, x in image.int_rows[f]}
            for f, a in (v[-1] for v in basis[k + 1])]))
    return Subcomplex(ambient, basis, tuple(d))
