"""Lattice quotients whose cohomology is that of the Lie algebra.

The paper's isomorphism Omega(M/H) = Omega(M, F)^H with H_0 trivial and
H = Gamma a lattice in a simply connected group G reads: the forms on
Gamma\\G are the Gamma-invariant forms on G.  For two classes of groups
their cohomology is that of the left-invariant forms, the Lie job's
Chevalley-Eilenberg complex of g:

  * G nilpotent (Nomizu, Ann. Math. 59, 1954): Gamma\\G is a
    nilmanifold;
  * G completely solvable, every ad X with real eigenvalues (Hattori,
    J. Fac. Sci. Univ. Tokyo 8, 1960): Gamma\\G is a completely
    solvable solvmanifold.

A job names the claim with ``space = nilmanifold`` or
``space = solvmanifold`` in [lie], and the lattice is the job's
assumption: for nilpotent g with rational structure constants, every
job's, Malcev (Izv. Akad. Nauk SSSR 13, 1949) gives one; a solvable
group need not have one.

Both hypotheses are one triangularity test on the job's own basis
e_0, ..., e_(n-1), read off the bracket rows c_ij^k, i < j:

  * weak form, c_ij^k = 0 for k < j: span(e_m, ..., e_(n-1)) is an ideal
    for every m, a complete flag of ideals, so every ad X is triangular
    with rational diagonal and g is completely solvable;
  * strict form, c_ij^k = 0 for k <= j: every step of that flag is
    central, [g, span(e_m, ...)] lies in span(e_(m+1), ...), so g is
    nilpotent.

The test runs on the algebra whose cohomology the job reports, g or
g/h.  A bracket it finds refuses the job, and says only that this basis
is not adapted: a nilpotent algebra given in another basis may fail it.
e(2), with [e_0, e_1] = e_2 and [e_0, e_2] = -e_1, is the classic
failure of Hattori's theorem (its Lie cohomology is (1, 1, 1, 1), while
a lattice quotient of its group is T^3), and the weak form refuses it
at (0, 2, 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .exterior import enumerate_basis

if TYPE_CHECKING:
    from .algebra import LieAlgebra

# space -> how far above j the lowest k of a bracket [e_i, e_j] must lie
_LOWEST_ABOVE_J = {"solvmanifold": 0, "nilmanifold": 1}


def unadapted_bracket(g: LieAlgebra, space: str
                      ) -> tuple[int, int, int] | None:
    """The first (i, j, k) in pair order, i < j, with c_ij^k != 0 that
    space forbids in g's basis (k < j for a solvmanifold, k <= j for a
    nilmanifold), or None when the basis is adapted to space."""
    lowest = _LOWEST_ABOVE_J[space]
    for (i, j), row in zip(enumerate_basis(g.dim, 2), g.table.int_rows):
        # a row lists its nonzero entries by increasing k
        if row and row[0][0] < j + lowest:
            return i, j, row[0][0]
    return None
