"""Invariant basic forms of linear torus foliations, one class of Fourier modes at a time.

A constant-coefficient foliation of the n-torus is spanned by direction
vectors whose entries are rational or rational + rational*alpha for one
fixed irrational alpha.  Forms that are basic for the foliation and
invariant under dense translations in a chosen set of coordinates
decompose over Fourier modes m in Z^n, and a mode contributes iff

  * m . v = 0 exactly for every direction vector v (basic), and
  * m_j = 0 for every invariance coordinate j (invariant).

Constant coefficients along the leaves leave a transverse coordinate
frame.  The echelon rows of the direction matrix span the rational
skeleton of the leaves (alpha replaced by a rational stand-in), a
lie.Subspace, and the basic complex is the exterior algebra of the dual
of R^n modulo that span: its transverse coordinates are the skeleton's
complement, the non-pivot coordinates.  On one surviving mode the whole
complex is the exterior algebra of the transverse frame, and the
differential is left multiplication by the mode covector w (the
overall 2*pi*i factor is normalized to 1; a nonzero scalar never
changes a rank): the cochain.CochainComplex of the transverse
translation algebra R^q with coefficients of weight w.  For a nonzero
mode w is itself nonzero, which makes the complex exact in every degree.
The zero mode has zero differential: a Lie quotient job's route
(quotient, ce_complex, betti) eliminates its complex, that of R^n /
skeleton, into the Betti numbers C(n - p, k); the nonzero-mode audit
shows that no other mode adds to them, with exact ranks that a monomial
submatrix witnesses and the d.d check bounds from above, so a correctly
built mode complex is never eliminated (the koszul module).  A job's
foliation is a foliation.TorusSpec.

The audit covers every surviving mode of sup norm at most the
truncation T without scanning the box.  Survival is a linear system
over the integer modes: the rational and alpha parts of every
direction, plus m_j = 0 on the invariance coordinates.  Its reduced row
echelon form writes each pivot coordinate as a rational combination of
the non-pivot ones.  A surviving mode in the box has all coordinates in
[-T, T], the non-pivot ones included, so enumerating the non-pivot
coordinates over [-T, T] and keeping the derived pivot values that are
integers in [-T, T] finds every survivor, and nothing else, in
(2T + 1)^(n - |inv| - r) steps for r the rank of the constraint rows.
A coordinate that is neither invariant nor reached by any direction is
untouched: no constraint row involves it and it is never a pivot, so
the survivors are S x [-T, T]^U, S the survivors that vanish on the
untouched coordinates U.  Only S is enumerated; the box over U is
counted in closed form.

The surviving modes fall into classes keyed by the sorted absolute
values of the transverse covector divided by their gcd.  Permuting the
transverse coordinates, negating some of them and scaling the covector
by a nonzero factor conjugate the mode complex by invertible maps, so
all members of a class have the same ranks.  Each class is built and
certified once, on its lexicographically least member, in the one
transverse frame of the audit, and reported once with the number of
modes it stands for.  Every class of an audit lives on the same R^q, so
the audit builds one template of q differentials, whose entries name
the coordinate they carry, and reads each class complex off it.

The irrational alpha is handled symbolically: independence and pivot
columns of the direction matrix A + alpha*B are decided by substituting
rationals r for alpha.  Any p x p minor is a polynomial of degree at
most p in alpha, so if no r in {0, ..., p} gives rank p the symbolic
rank is below p, and the first r that does certifies independence and
fixes the pivot columns used by the frame.  The frame keeps the echelon
rows of that trial as its skeleton, and every consumer of the report
reads this one frame.  The --check cross-check tests it against the
spec: the directions keep rank p on the skeleton's pivot columns, and
the symbolic rank, counted again at the other stand-ins 0, ..., p + 1,
gives the transverse dimension the Betti numbers must be binomials of.
"""


from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb, gcd

from .algebra import abelian, quotient
from .cochain import ce_complex
from .errors import InvalidSpec
# wedge_insert is unused here, but perfbench/tracer.py wraps torus.wedge_insert by name
from .exterior import wedge_insert
from .foliation import DEPENDENT_DIRECTIONS, coordinate_names
from .koszul import build_mode_complex, koszul_certificate, monomial_witness
from .lie import Subspace, betti as lie_betti
from .matrix import ExactMatrix
from .ratio import Ratio
from .record import record, replace
from .scalars import rank, rref

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

    from .foliation import TorusSpec
    from .koszul import KoszulCertificate
    from .lie import BettiReport


@record
class TransverseFrame:
    """Coordinate splitting induced by the echelonized direction matrix.

    skeleton is the span of the directions with alpha replaced by
    substitution, the rational stand-in that certified independence (a
    Ratio, (r, 1) for the trial r); its reduced echelon rows, primitive
    integer rows, fix the split.  skeleton.pivots, the leads of those
    rows, carry the leafwise directions, skeleton.complement the
    transverse ones.
    """

    skeleton: Subspace
    substitution: Ratio


def _directions_at(spec: TorusSpec, stand_in: Ratio,
                   columns: Sequence[int] | None = None) -> ExactMatrix:
    """The direction matrix A + r*B of spec.parts for alpha = r = stand_in,
    integer rows (times r's denominator), on the given columns or all."""
    num, den = stand_in
    a, b = spec.parts
    columns = range(spec.n) if columns is None else columns
    return ExactMatrix.from_int_rows(spec.n, 1, [
        {j: den * ra[j] + num * rb[j] for j in columns}
        for ra, rb in zip(a, b)])


def transverse_frame(spec: TorusSpec) -> TransverseFrame:
    """Find the transverse frame, or raise InvalidSpec on dependence.

    Writes the direction matrix as A + alpha*B and tries the rationals
    0..p in place of alpha; degree counting on the p x p minors shows
    this decides symbolic independence.  The first trial of rank p
    gives the frame: its rref rows become the skeleton, and their leads
    the pivot columns.  With no directions the skeleton is the zero
    subspace and every column is transverse.
    """
    for r in range(spec.p + 1):
        reduced = rref(_directions_at(spec, (r, 1)))
        if len(reduced) == spec.p:
            return TransverseFrame(Subspace(spec.n, tuple(reduced.values())),
                                   (r, 1))
    raise InvalidSpec(DEPENDENT_DIRECTIONS)


def _mode_transverse(mode: Sequence[int], frame: TransverseFrame) -> tuple[int, ...]:
    # In the annihilator frame of the leaves, the covector of a
    # surviving mode has exactly the transverse components of the mode:
    # both sides agree on the skeleton's complement, and an annihilator
    # element supported on the pivot columns must vanish.
    return tuple(mode[f] for f in frame.skeleton.complement)


@record
class TorusBettiReport:
    """Betti numbers of the invariant basic complex plus the mode audit.

    spec is the spec the report was computed from.  zero_mode is the
    lie.betti report of R^n / frame.skeleton, on the coordinates
    frame.skeleton.complement, whose betti has length n - p + 1;
    acyclicity_certificates hold one KoszulCertificate per class of
    audited nonzero modes, ordered by their least members.  frame is
    the transverse frame the zero mode was computed on; its skeleton's
    ambient dimension is n.  The summaries are read off these fields.
    """

    spec: TorusSpec
    frame: TransverseFrame
    zero_mode: BettiReport
    acyclicity_certificates: tuple[KoszulCertificate, ...]

    normalization = (
        "fourier differential normalized: the overall 2*pi*i factor is "
        "scaled to 1 (ranks and kernels are unchanged by a nonzero scalar)")

    @property
    def betti(self) -> tuple[int, ...]:
        return self.zero_mode.betti

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        return coordinate_names(self.spec.n)  # foliation's function

    @property
    def audited_modes(self) -> int:
        """The number of audited nonzero modes: the sum of the modes
        counts of the class certificates."""
        return sum(cert.modes for cert in self.acyclicity_certificates)

    @property
    def all_modes_acyclic(self) -> bool:
        return all(cert.ok for cert in self.acyclicity_certificates)


def surviving_modes(spec: TorusSpec, bound: int) -> list[tuple[int, ...]]:
    """All modes with sup norm <= bound that survive, lexicographically.

    Invariance coordinates are pinned to zero up front.  On the other
    (open) coordinates the survival set is the integer kernel of
    spec.parts, the rational and alpha parts of the directions
    (m . (a + alpha*b) = 0 splits into m . a = 0 and m . b = 0), and of
    their reduced row echelon form R, the basis of their `Subspace`
    span.  Each row of R, a primitive integer row, writes lead * pivot
    coordinate as minus an integer combination of non-pivot ones.
    Enumerating the non-pivot coordinates over {-bound..bound} and
    deriving every pivot coordinate exactly, kept only when it is an
    integer inside the box, is complete: every coordinate of a kernel
    point in the box, the non-pivot ones included, lies in
    {-bound..bound}, so the point is reached from its own non-pivot
    coordinates, and the pivot values derived from them are its own.
    It is also sound, since every point kept satisfies R.  The work is
    (2*bound + 1)^(open - r), r the rank of R, not (2*bound + 1)^open.
    """
    open_cols = [j for j in range(spec.n) if j not in spec.invariance_coords]
    a, b = spec.parts
    constraints = Subspace.span(
        len(open_cols), [[row[j] for j in open_cols] for row in a + b])
    enumerated = {open_cols[c] for c in constraints.complement}
    values = range(-bound, bound + 1)
    axes = [values if j in enumerated else (0,) for j in range(spec.n)]
    # pivot coordinate = (sum of coefficient * enumerated coordinate) / lead
    solved = [
        (open_cols[c], lead, tuple((open_cols[k], -x) for k, x in others))
        for (c, lead), *others in constraints.basis
    ]
    out = []
    for point in product(*axes):
        mode = list(point)
        for col, lead, terms in solved:
            value, rest = divmod(sum(a * point[j] for j, a in terms), lead)
            if rest or not -bound <= value <= bound:
                break
            mode[col] = value
        else:
            out.append(tuple(mode))
    out.sort()
    return out


def torus_betti(spec: TorusSpec) -> TorusBettiReport:
    """Betti numbers with an acyclicity audit, one certificate per class.

    The zero mode fixes the Betti numbers, C(n - p, k), eliminated as
    a Lie quotient job's; every other surviving mode with sup norm at most
    spec.truncation is certified exact.  The surviving modes are grouped
    by the canonical form of their transverse covector w: sorted |w_i|
    divided by their gcd.  Two modes with the same form have complexes
    conjugate by invertible maps: a permutation of the transverse
    coordinates permutes the wedge monomials, negating a coordinate
    rescales monomials by signs, and scaling w by a nonzero factor
    scales each differential.  Conjugate complexes have the same rank
    in every degree, so each class is built and certified once, on its
    lexicographically least member, with exact witnessed ranks: its
    complex is read off the audit's one template complex, and its
    witness lists are the audit's for its i0.  The report carries one
    certificate per class, in the order of those least members, and
    each counts the audited modes of its class.

    Untouched coordinates U are counted, not visited: for each survivor
    s vanishing on U and each multiset M of |u| over U, the modes s + u
    share the key sorted(|w of s| + M); there are |U|! / prod(mult!) *
    2^(nonzeros of M) of them, and the least puts -M, ascending, on U.
    The work is |S| * C(T + |U|, |U|), not |S| * (2T + 1)^|U|.
    """
    bound = spec.truncation
    frame = transverse_frame(spec)
    free = frame.skeleton.complement
    q = len(free)
    zero_mode = lie_betti(ce_complex(quotient(abelian(spec.n),
                                              frame.skeleton)))
    untouched = [j for j in range(spec.n) if j not in spec.invariance_coords
                 and not any(row[j] for rows in spec.parts for row in rows)]
    constrained = [f for f in free if f not in untouched]
    multisets = []  # (M descending, the number of modes it stands for)
    for ms in combinations_with_replacement(range(bound, -1, -1),
                                            len(untouched)):
        count, left = 2 ** (len(ms) - ms.count(0)), len(ms)
        for v in set(ms):
            count *= comb(left, ms.count(v))
            left -= ms.count(v)
        multisets.append((list(ms), count))
    # sorted |w| / gcd -> [least member, number of modes]
    classes: dict[tuple[int, ...], list] = {}
    pinned = replace(spec, invariance_coords=spec.invariance_coords.union(
        untouched)) if untouched else spec
    for s in surviving_modes(pinned, bound):
        base = [abs(s[f]) for f in constrained]
        for ms, count in multisets:
            raw = sorted(base + ms)
            g = gcd(*raw)
            if not g:
                continue  # the zero mode, the only one with w = 0
            mode = list(s)
            for j, v in zip(untouched, ms):
                mode[j] = -v
            least = tuple(mode)
            entry = classes.setdefault(tuple(x // g for x in raw), [least, 0])
            entry[0] = min(entry[0], least)
            entry[1] += count
    template = build_mode_complex(range(1, q + 1))
    witnesses = [monomial_witness(q, i0) for i0 in range(q)]
    certificates = [
        koszul_certificate(mode, build_mode_complex(
            _mode_transverse(mode, frame), template), count, witnesses)
        for mode, count in sorted(classes.values())
    ]
    return TorusBettiReport(spec, frame, zero_mode, tuple(certificates))


def cross_check_ce(report: TorusBettiReport) -> bool:
    """Check the frame and the zero-mode Betti numbers of a torus report
    against the report's spec, by ranks the audit never computed.

    The frame must fit the spec: at the frame's stand-in for alpha, the
    directions restricted to the skeleton's pivot columns have rank p.
    The transverse dimension is counted again from the symbolic rank of
    the directions, the largest rank at the stand-ins 0, ..., p + 1
    other than the frame's: a p x p minor that is not identically zero
    is a polynomial of degree at most p in alpha, so at most p of those
    p + 1 stand-ins lose rank.  The check holds iff the frame fits, its
    complement has q = n - (that rank) coordinates and report.betti,
    eliminated from the zero-mode complex, is (C(q, 0), ..., C(q, q)).
    """
    spec, frame = report.spec, report.frame
    skeleton = frame.skeleton
    fits = rank(_directions_at(spec, frame.substitution,
                               skeleton.pivots)) == spec.p
    q = spec.n - max(rank(_directions_at(spec, (r, 1)))
                     for r in range(spec.p + 2)
                     if (r, 1) != frame.substitution)
    return fits and len(skeleton.complement) == q and tuple(
        report.betti) == tuple(comb(q, k) for k in range(q + 1))
