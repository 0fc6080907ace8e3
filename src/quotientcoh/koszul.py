"""The acyclicity certificate of a class of nonzero torus Fourier modes.

On one surviving mode the basic complex of a linear torus foliation is
the exterior algebra of the transverse frame, and the differential is
left multiplication by the mode covector w: the cochain.CochainComplex
of the transverse translation algebra R^q with coefficients of weight
w (build_mode_complex).  For a nonzero mode w is itself nonzero, which
makes the complex exact in every degree, with exact ranks that a
monomial submatrix witnesses and the d.d check bounds from above, so a
correctly built mode complex is never eliminated (koszul_certificate).
Only torus jobs import this module.
"""

from __future__ import annotations

from math import comb

from .algebra import abelian
from .cochain import CochainComplex, ce_differential
from .exterior import enumerate_basis
from .lie import betti_numbers
from .matrix import ExactMatrix
from .record import record
from .scalars import rank

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


def build_mode_complex(w: Sequence[int],
                       template: CochainComplex | None = None) -> CochainComplex:
    """The complex of a surviving mode with transverse covector w: the
    cochain complex of R^q with coefficients of weight w, whose d_k is
    ce_differential(abelian(q), k, w), left wedge with w.

    An audit builds it once with w = (1, ..., q), as the template of all
    its classes, and reads every other complex off that template: each
    entry of its d_k is +-u_i for exactly one coordinate i, (-1)^s u_i
    at the face J - J_s of row J for J_s = i, with u_i = i + 1.  So the
    complex of w is the template with u_i replaced by w_i and zero
    entries dropped, and ce_differential stays the only code that
    places a sign.
    """
    if template is None:
        g = abelian(len(w))
        return CochainComplex(tuple(
            ce_differential(g, k, w) for k in range(g.dim)), g, tuple(w))
    # [0, w_0, .., w_{q-1}, -w_{q-1}, .., -w_0]: entry +-u_i indexes +-w_i
    signed = [0, *w, *[-x for x in reversed(w)]]
    return CochainComplex(tuple([ExactMatrix(dk.cols, 1, tuple([
        tuple([(j, y) for j, x in row if (y := signed[x])])
        for row in dk.int_rows])) for dk in template.d]),
        template.algebra, tuple(w))


@record
class KoszulCertificate:
    """Rank evidence that nonzero modes contribute no cohomology.

    ranks are the exact ranks of the complex of mode: C(q - 1, k) by the
    rank witness of koszul_certificate, or eliminated when d.d or the
    witness fails.  ok holds iff the squares d_{k+1} d_k vanish and every
    degree has zero cohomology, and on failure failed_degree records the
    first degree where either fails.  modes counts the audited modes the
    certificate stands for: mode itself and the members of its class
    (see torus_betti), which share its ranks.
    """

    mode: tuple[int, ...]
    ranks: tuple[int, ...]
    ok: bool
    failed_degree: int | None
    modes: int = 1


def koszul_certificate(
    mode: Sequence[int], c: CochainComplex, modes: int = 1,
    witnesses: Sequence[list] = (),
) -> KoszulCertificate:
    """Certify exactness of the complex c of a nonzero mode by d.d and a
    rank witness; modes is the number of audited modes it stands for,
    and witnesses, when given, lists `monomial_witness(c.dim, i)` for
    every i.

    The ranks need no elimination.  Let q = c.dim and i0 the first
    coordinate with w_i0 != 0 for the weight w.  In d_k = (w ^ .), the
    rows J that contain i0, restricted to the columns I that do not,
    have one nonzero each, +-w_i0 at I = J - {i0}: a monomial submatrix
    of size C(q - 1, k), nonsingular, so rank d_k >= C(q - 1, k).  With
    d.d = 0, the image of d_{k-1} lies in the kernel of d_k, so
    rank d_{k-1} + rank d_k <= C(q, k) = C(q - 1, k - 1) + C(q - 1, k).
    The lower bounds then force rank d_k = C(q - 1, k) in every degree,
    and every Betti number is 0.  The submatrices are checked on the
    built integer rows in one scan; the complex itself guarantees the
    shapes C(q, k + 1) x C(q, k) and a weight of length q.  Only when
    d.d or the witness fails are the ranks eliminated (`rank`), so a
    broken complex gets the exact ranks it has.

    Wedging with a nonzero covector is exact, so ok is always true for
    a correctly built complex; a failure therefore indicates an
    implementation bug, which is exactly what the certificate is for.
    Ranks cannot see a non-complex, so the first k with d_{k+1} d_k != 0
    fails at degree k + 1 before any degree with nonzero cohomology
    does.  A zero weight (the zero mode) is rejected: its differential
    vanishes and exactness is the wrong question.
    """
    if not any(c.weight):
        raise ValueError("the zero mode is not eligible for an exactness "
                         "certificate; its differential is zero")
    q = c.dim
    i0 = next(i for i, x in enumerate(c.weight) if x)
    witness = witnesses[i0] if witnesses else monomial_witness(q, i0)
    violation = c.d_squared_violation()
    if violation is None and all(
            [j for j, _ in dk.int_rows[i] if outside[j]] == [face]
            for dk, (outside, pairs) in zip(c.d, witness)
            for i, face in pairs):
        ranks = tuple(comb(q - 1, k) for k in range(q))
    else:
        ranks = tuple(rank(dk) for dk in c.d)
    failed = violation + 1 if violation is not None else next(
        (k for k, b in enumerate(betti_numbers(c.cochains, ranks)) if b), None)
    return KoszulCertificate(tuple(mode), ranks, failed is None, failed, modes)


def monomial_witness(q: int, i0: int) -> list[tuple]:
    """What koszul_certificate checks of each d_k on R^q, for i0 the
    first nonzero coordinate of the weight: the mask of the columns I
    that avoid i0, and the pairs (row J, column J - {i0}) of the rows J
    that contain i0.  Dropping i0 keeps the lexicographic order, so the
    m-th such row J is matched with the m-th such column I.  It depends
    on q and i0 alone, so an audit computes it once for each i0."""
    out = []
    columns = enumerate_basis(q, 0)
    for k in range(q):
        rows = enumerate_basis(q, k + 1)
        outside = [i0 not in mono for mono in columns]
        out.append((outside, list(zip(
            [i for i, mono in enumerate(rows) if i0 in mono],
            [j for j, out in enumerate(outside) if out]))))
        columns = rows
    return out
