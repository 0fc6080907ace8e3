"""Linear subspaces, and the cohomology of cochain complexes.

Each differential of a cochain.CochainComplex is eliminated once, from
the top degree down and on the rows that d.d = 0 leaves independent of
the others (see betti): its kernel basis gives both its rank (the width
minus the kernel size, from which the Betti numbers follow) and the
candidate cocycles.  The representatives are the kernel vectors that lie
outside the image of the previous differential and the earlier kernel
vectors, exactly one per cohomology dimension, read off the image
restricted to the free columns of the differential; the report divides
each by its lead.

A Subspace owns the coordinate splitting given by its echelon form:
its complement is the non-pivot coordinates and its scale the lcm of
its leads.  algebra.quotient reads it to build the quotient by an ideal,
and the torus pipeline to split the leafwise and transverse
coordinates.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, gcd, lcm

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


@record
class Subspace:
    """A linear subspace stored as the reduced echelon basis of its span.

    The rows are `rref`'s primitive integer rows, as (column, int)
    pairs: content 1, a positive lead, and zero at every other row's
    pivot.  They are a canonical representative: two spanning sets give
    equal Subspace objects iff they span the same subspace.
    """

    ambient_dim: int
    basis: tuple[IntRow, ...]

    def __post_init__(self):
        # each row as sorted (column, value) pairs, zeros dropped
        basis = tuple(tuple((j, x) for j, x in sorted(dict(row).items()) if x)
                      for row in self.basis)
        object.__setattr__(self, "basis", basis)
        n = self.ambient_dim
        if any(row[0][0] < 0 or row[-1][0] >= n for row in basis if row):
            raise ValueError("subspace rows need columns in [0, %d)" % n)
        # reduce() reads the pivots off the leads: accept only rref's form
        leads = [row[0][0] if row else -1 for row in basis]
        if any(b <= a for a, b in zip([-1] + leads, leads)):
            raise ValueError("subspace rows need strictly increasing leads")
        if any(row[0][1] < 1 for row in basis):
            raise ValueError("subspace rows need a positive lead")
        if any(gcd(*(x for _, x in row)) != 1 for row in basis):
            raise ValueError("subspace rows need content 1")
        pivots = set(leads)
        if any(j in pivots for row in basis for j, _ in row[1:]):
            raise ValueError("a subspace row is nonzero at another row's pivot")

    @classmethod
    def span(
        cls, ambient_dim: int, vectors: Sequence[Sequence[RationalLike]]
    ) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    "vector length %d != ambient dim %d" % (len(v), ambient_dim)
                )
        reduced = rref(ExactMatrix.from_rows(vectors, cols=ambient_dim))
        return cls(ambient_dim, tuple(reduced.values()))

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

    betti[k] = C(n, k) - rank d_k - rank d_{k-1}, with each rank read
    off the one elimination of d_k that also gave its kernel;
    generators[k] holds the representative cocycles, the kernel vectors
    of d_k that survive the image of d_{k-1} (see betti), as sparse
    rows of (column, Ratio) pairs over monomials[k], in increasing
    column order, each divided by its leading coefficient.
    """

    dim: int
    betti: tuple[int, ...]
    ranks: tuple[int, ...]
    generators: tuple[tuple[SparseRow, ...], ...]

    @property
    def monomials(self) -> tuple[tuple[MultiIndex, ...], ...]:
        """monomials[k] lists the degree-k monomials in lexicographic
        order, the columns of d_k."""
        return tuple(tuple(enumerate_basis(self.dim, k))
                     for k in range(self.dim + 1))


def betti_numbers(n: int, ranks: Sequence[int]) -> tuple[int, ...]:
    """C(n, k) - rank d_k - rank d_{k-1} for k = 0..n, where ranks lists
    the n differentials of a complex of exterior powers of R^n."""
    return tuple(
        comb(n, k) - (ranks[k] if k < n else 0) - (ranks[k - 1] if k else 0)
        for k in range(n + 1)
    )


def betti(c: CochainComplex) -> BettiReport:
    """Betti numbers and representative cocycles, one elimination per d_k.

    The kernel basis of d_k has C(n, k) - rank d_k members, so a single
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
    looks at nothing.

    A non-complex raises ValueError before any kernel is computed, since
    clearing rests on d.d = 0; the complex tests its products once, so a
    caller that has asked d_squared_violation() already pays nothing.
    """
    violation = c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    n = c.dim
    kernels = [[((0, 1),)]]  # the top form; d_n = 0
    for dk in reversed(c.d):
        rows = tuple([dk.int_rows[v[-1][0]] for v in kernels[-1]])
        # the integer rows read over 1: a scaled matrix has the same kernel
        kernels.append(nullspace_basis(ExactMatrix(dk.cols, 1, rows)))
    kernels.reverse()
    ranks = tuple([comb(n, k) - len(kernel) for k, kernel in
                   enumerate(kernels[:n])])
    numbers = betti_numbers(n, ranks)
    gens_out = []
    for k, kernel in enumerate(kernels):
        survivors = kernel if numbers[k] else ()
        if survivors and k and ranks[k - 1]:
            # the pivot columns of d_{k-1} span its image: those that are
            # no kernel vector's free column, which is its last entry;
            # read on the rows at the free columns of d_k
            image = {p: {} for p in range(comb(n, k - 1))}
            for v in kernels[k - 1]:
                del image[v[-1][0]]
            for v in kernel:
                f = v[-1][0]
                for j, x in c.d[k - 1].int_rows[f]:
                    if j in image:
                        image[j][f] = x
            survivors = kernel_survivors(kernel, image.values())
        gens_out.append(tuple([lead_one(v) for v in survivors]))
    return BettiReport(n, numbers, ranks, tuple(gens_out))
