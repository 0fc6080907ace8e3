"""Linear subspaces, and the cohomology of cochain complexes.

Each differential of a cochain.CochainComplex is eliminated once, from
the top degree down and on the rows that d.d = 0 leaves independent of
the others (see betti): its kernel basis gives both its rank (the width
minus the kernel size, from which the Betti numbers follow) and the
candidate cocycles.  The representatives are the kernel vectors that lie
outside the image of the previous differential and the earlier kernel
vectors, exactly one per cohomology dimension, read off the image
restricted to the free columns of the differential; the report divides
each by its lead.  A subcomplex.Subcomplex is read the same way, on its
restricted differentials, and its representatives are lifted to the
ambient monomials.

A Subspace is the span of any integer rows it is given: its
constructor stores their rref, the one echelon form every caller reads.
It owns the coordinate splitting given by that form: its complement is
the non-pivot coordinates and its scale the lcm of its leads.
algebra.quotient reads it to build the quotient by an ideal, the torus
pipeline to split the leafwise and transverse coordinates, the
automorphism pipeline for the W it preserves, and dense_subalgebra
grows the generated ideal one spanning row at a time.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

# CochainComplex names betti's argument, and perfbench/tracer.py patches
# lie.CochainComplex.d_squared_violation by name
from .cochain import CochainComplex
# remove_pair and wedge_insert are unused here, but perfbench/tracer.py
# wraps lie.remove_pair and lie.wedge_insert by name
from .exterior import MultiIndex, enumerate_basis, remove_pair, wedge_insert
from .matrix import ExactMatrix, IntRow, SparseRow
from .record import record
from .scalars import (
    kernel_survivors,
    lead_one,
    nullspace_basis,
    rank,  # unused here, but perfbench/tracer.py wraps lie.rank by name
    rref,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Sequence

    from .matrix import RationalLike
    from .subcomplex import Subcomplex


@record
class Subspace:
    """A linear subspace, the span of the integer rows it is given.

    basis may be any spanning integer rows, as (column, int) pairs or
    {column: int} maps, with dependent and zero rows allowed; the
    constructor stores the rows of their `rref`, (column, int) pairs in
    increasing column order: content 1, a positive lead, and zero at
    every other row's pivot.  They are a canonical representative: two
    spanning sets give equal Subspace objects iff they span the same
    subspace.  A column outside [0, ambient_dim) is refused by
    ExactMatrix.
    """

    ambient_dim: int
    basis: tuple[IntRow, ...]

    def __post_init__(self):
        reduced = rref(ExactMatrix.from_int_rows(
            self.ambient_dim, 1, [dict(row) for row in self.basis]))
        object.__setattr__(self, "basis", tuple(
            [tuple(sorted(row.items())) for row in reduced.values()]))

    @classmethod
    def span(
        cls, ambient_dim: int, vectors: Sequence[Sequence[RationalLike]]
    ) -> "Subspace":
        """The span of dense rational vectors, each of length
        ambient_dim: their rows cleared to integers span it too."""
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    "vector length %d != ambient dim %d" % (len(v), ambient_dim)
                )
        return cls(ambient_dim,
                   ExactMatrix.from_rows(vectors, cols=ambient_dim).int_rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.basis)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        """The non-pivot coordinates, ascending: the coordinates of the
        quotient by this subspace."""
        pivots = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    @cached_property
    def scale(self) -> int:
        """L, the lcm of the leads of the rows (1 for the zero subspace)."""
        return lcm(*(row[0][1] for row in self.basis))

    def reduce(self, v: Mapping[int, int] | IntRow) -> dict[int, int]:
        """L times the residual of the integer vector v (a {column:
        value} map or (column, value) pairs) along the pivots, with L =
        self.scale: L v - sum_p v[p] (L / a_p) r_p for a_p the lead of
        r_p, as its nonzero entries.  One pass suffices because each row
        r_p vanishes on the other pivots.  Empty iff v is in the subspace.
        """
        scale = self.scale
        w = {j: scale * x for j, x in dict(v).items()}
        for row in self.basis:
            p, a = row[0]
            f = w.get(p)
            if f:
                f //= a
                for j, x in row:
                    w[j] = w.get(j, 0) - f * x
        return {j: x for j, x in w.items() if x}


@record
class BettiReport:
    """Cohomology of one cochain complex with audit data.

    cochains[k] is the number of degree-k cochains of the complex,
    C(n, k) for a CochainComplex and dim S_k for a subcomplex; ranks[k]
    is rank d_k, read off the one elimination of d_k that also gave its
    kernel, and betti[k] = cochains[k] - rank d_k - rank d_{k-1} follows
    from them; generators[k] holds the representative cocycles, the
    kernel vectors of d_k that survive the image of d_{k-1} (see betti),
    as sparse rows of (column, Ratio) pairs over monomials[k], the
    monomials of the n-dimensional ambient algebra, in increasing column
    order, each divided by its leading coefficient.
    """

    dim: int
    cochains: tuple[int, ...]
    ranks: tuple[int, ...]
    generators: tuple[tuple[SparseRow, ...], ...]

    @property
    def betti(self) -> tuple[int, ...]:
        return betti_numbers(self.cochains, self.ranks)

    @property
    def monomials(self) -> tuple[tuple[MultiIndex, ...], ...]:
        """monomials[k] lists the degree-k monomials in lexicographic
        order, the columns of d_k."""
        return tuple(tuple(enumerate_basis(self.dim, k))
                     for k in range(self.dim + 1))


def betti_numbers(cochains: Sequence[int], ranks: Sequence[int]
                  ) -> tuple[int, ...]:
    """cochains[k] - rank d_k - rank d_{k-1} for k = 0..n, where ranks
    lists the n differentials of a complex with cochains[k] cochains in
    degree k."""
    n = len(ranks)
    return tuple(
        size - (ranks[k] if k < n else 0) - (ranks[k - 1] if k else 0)
        for k, size in enumerate(cochains)
    )


def _lift(v: IntRow, basis: Sequence[IntRow]) -> IntRow:
    """The combination sum_i v_i basis[i], as sorted nonzero pairs."""
    out: dict[int, int] = {}
    for i, x in v:
        for j, y in basis[i]:
            out[j] = out.get(j, 0) + x * y
    return tuple(sorted((j, x) for j, x in out.items() if x))


def betti(c: CochainComplex | Subcomplex) -> BettiReport:
    """Betti numbers and representative cocycles, one elimination per d_k.

    c is a CochainComplex or a subcomplex.Subcomplex, whose cochains are
    combinations of its basis S_k and whose d_k is the restricted
    differential; each reads its degree-k cochain count off itself.  The
    kernel basis of d_k has cochains[k] - rank d_k members, so a single
    nullspace_basis call per degree yields both the rank and the
    candidate cocycles.  The kernels are computed from the top degree
    down, and d_k is eliminated on the rows at the free columns of
    d_{k+1} alone, the last entries of its kernel vectors (clearing, as
    in Chen and Kerber's persistent homology "with a twist").  Since
    d_{k+1} d_k = 0, every column of d_k lies in the kernel of d_{k+1},
    and a kernel vector is fixed by its free-column entries: its entry
    at a pivot p of d_{k+1} is the same combination of them for every
    column.  So the row of d_k at p is that combination of the rows at
    the free columns, the row space is unchanged, and rref and the
    kernel of the rows kept are exactly those of the full d_k.  Of those
    rows, rank d_k are independent and betti[k+1] reduce to zero.

    The representatives in degree k are the kernel vectors v_f of d_k
    that lie outside the span of the image of d_{k-1} and of the v_f'
    with f' < f, each divided by its lead.  Exactly betti[k] of them do,
    and they are independent modulo coboundaries.  kernel_survivors
    picks them from the pivot columns of d_{k-1}, which span its image,
    restricted to the free columns of d_k; a degree with betti[k] = 0
    looks at nothing.  A subcomplex's representatives are lifted to the
    ambient monomials, sum_i v_i s_i over its basis S_k.

    A non-complex raises ValueError before any kernel is computed, since
    clearing rests on d.d = 0; the complex tests its products once, so a
    caller that has asked d_squared_violation() already pays nothing.  A
    subcomplex whose d-stability residual is nonzero is refused the same
    way: its d_k is then no restriction of the ambient one.
    """
    violation = c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    basis = getattr(c, "basis", None)  # a Subcomplex's S_k
    if basis is not None and c.unstable is not None:
        raise ValueError("not a subcomplex: d_%d maps S_%d out of S_%d"
                         % (c.unstable, c.unstable, c.unstable + 1))
    cochains = c.cochains
    kernels = [[((i, 1),) for i in range(cochains[-1])]]  # d_n = 0
    for dk in reversed(c.d):
        rows = tuple([dk.int_rows[v[-1][0]] for v in kernels[-1]])
        # the integer rows read over 1: a scaled matrix has the same kernel
        kernels.append(nullspace_basis(ExactMatrix(dk.cols, 1, rows)))
    kernels.reverse()
    ranks = tuple([size - len(kernel)
                   for size, kernel in zip(cochains, kernels[:-1])])
    numbers = betti_numbers(cochains, ranks)
    gens_out = []
    for k, kernel in enumerate(kernels):
        survivors = kernel if numbers[k] else ()
        if survivors and k and ranks[k - 1]:
            # the pivot columns of d_{k-1} span its image: those that are
            # no kernel vector's free column, which is its last entry;
            # read on the rows at the free columns of d_k
            image = {p: {} for p in range(cochains[k - 1])}
            for v in kernels[k - 1]:
                del image[v[-1][0]]
            for v in kernel:
                f = v[-1][0]
                for j, x in c.d[k - 1].int_rows[f]:
                    if j in image:
                        image[j][f] = x
            survivors = kernel_survivors(kernel, image.values())
        if basis:
            survivors = [_lift(v, basis[k]) for v in survivors]
        gens_out.append(tuple([lead_one(v) for v in survivors]))
    return BettiReport(c.dim, cochains, ranks, tuple(gens_out))
