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
changes a rank): the lie.CochainComplex of the transverse translation
algebra R^q with coefficients of weight w.  For a nonzero
mode w is itself nonzero, which makes the complex exact in every degree.
The zero mode has zero differential.  Betti numbers are therefore
binomial coefficients C(n - p, k); the nonzero-mode audit certifies this
with exact ranks that a monomial submatrix witnesses and the d.d check
bounds from above, so a correctly built mode complex is never
eliminated (koszul_certificate).

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
from math import comb, gcd, lcm
from typing import Sequence

from .errors import InvalidSpec
# wedge_insert is unused here, but perfbench/tracer.py wraps torus.wedge_insert by name
from .exterior import MultiIndex, enumerate_basis, wedge_insert
# quotient, ce_complex and lie_betti are unused here, but perfbench/tracer.py
# wraps torus.quotient, torus.ce_complex and torus.lie_betti by name
from .lie import (CochainComplex, Subspace, abelian, betti as lie_betti,
                  betti_numbers, ce_complex, ce_differential, quotient)
from .ratio import Ratio
from .record import record, replace
from .scalars import ExactMatrix, ExtScalar, rank, rref

NORMALIZATION_NOTE = (
    "fourier differential normalized: the overall 2*pi*i factor is scaled "
    "to 1 (ranks and kernels are unchanged by a nonzero scalar)"
)


def coordinate_names(n: int) -> tuple[str, ...]:
    """x, y, z for n <= 3, else x0..x{n-1}."""
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple("x%d" % i for i in range(n))


def monomial_label(mono: MultiIndex, names: Sequence[str]) -> str:
    """Pretty form of a wedge monomial: '1', 'dy', 'dy^dz', ..."""
    if not mono:
        return "1"
    return "^".join("d" + names[i] for i in mono)


@record
class TorusSpec:
    """A linear foliation of T^n with translation-invariance coordinates.

    foliation_dirs are the spanning direction vectors (entries
    ExtScalar); invariance_coords are the coordinates along which dense
    translation invariance is imposed; truncation bounds the sup norm of
    the nonzero modes audited by torus_betti.
    """

    n: int
    foliation_dirs: tuple[tuple[ExtScalar, ...], ...] = ()
    invariance_coords: frozenset[int] = frozenset()
    truncation: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus dimension must be at least 1")
        object.__setattr__(
            self,
            "foliation_dirs",
            tuple(tuple(v) for v in self.foliation_dirs),
        )
        for v in self.foliation_dirs:
            if len(v) != self.n:
                raise ValueError(
                    "direction vector length %d != n = %d" % (len(v), self.n)
                )
            if not all(isinstance(x, ExtScalar) for x in v):
                raise ValueError("direction entries must be ExtScalar")
            if all(x.is_zero() for x in v):
                raise InvalidSpec("a foliation direction vector is zero")
        object.__setattr__(
            self, "invariance_coords", frozenset(self.invariance_coords)
        )
        for j in self.invariance_coords:
            if not 0 <= j < self.n:
                raise ValueError(
                    "invariance coordinate %d out of range for n = %d"
                    % (j, self.n)
                )
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")

    @property
    def p(self) -> int:
        return len(self.foliation_dirs)


def survives(mode: Sequence[int], spec: TorusSpec) -> bool:
    """Exact test that a Fourier mode carries basic invariant forms.

    The mode must annihilate every direction vector and vanish on every
    invariance coordinate.  alpha is a pure symbol, so m . v = 0 holds
    iff m . rat(v) = 0 and m . irr(v) = 0, two exact integer sums once
    v is cleared of its denominators.
    """
    if len(mode) != spec.n:
        raise ValueError("mode length %d != n = %d" % (len(mode), spec.n))
    if any(mode[j] != 0 for j in spec.invariance_coords):
        return False
    a, b = _direction_parts(spec)
    return not any(sum(m_i * x for m_i, x in zip(mode, row))
                   for row in a + b)


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


def _direction_parts(spec: TorusSpec) -> tuple[list[list[int]], list[list[int]]]:
    """(A, B): the rational and alpha parts of each direction, both
    times the lcm of that direction's denominators.  A direction scaled
    by a nonzero constant spans the same line and has the same
    annihilator, so every span, rank and survival test reads these
    integer rows."""
    a, b = [], []
    for v in spec.foliation_dirs:
        den = lcm(*(x.rat[1] for x in v), *(x.irr[1] for x in v))
        a.append([n * (den // d) for n, d in (x.rat for x in v)])
        b.append([n * (den // d) for n, d in (x.irr for x in v)])
    return a, b


def _directions_at(spec: TorusSpec, stand_in: Ratio,
                   columns: Sequence[int] | None = None) -> ExactMatrix:
    """The direction matrix A + r*B for alpha = r = stand_in, as
    integer rows (times r's denominator), on the given columns or all."""
    num, den = stand_in
    a, b = _direction_parts(spec)
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
    raise InvalidSpec(
        "foliation directions are linearly dependent over the scalars"
    )


def _mode_transverse(mode: Sequence[int], frame: TransverseFrame) -> tuple[int, ...]:
    # In the annihilator frame of the leaves, the covector of a
    # surviving mode has exactly the transverse components of the mode:
    # both sides agree on the skeleton's complement, and an annihilator
    # element supported on the pivot columns must vanish.
    return tuple(mode[f] for f in frame.skeleton.complement)


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
    return CochainComplex(tuple([ExactMatrix(dk.rows, dk.cols, 1, tuple([
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
    and witnesses, when given, lists `_monomial_witness(c.dim, i)` for
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
    built integer rows in one scan, after the shapes C(q, k + 1) x
    C(q, k); only when d.d or the witness fails are the ranks eliminated
    (`rank`), so a broken complex gets the exact ranks it has.

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
    witness = witnesses[i0] if witnesses else _monomial_witness(q, i0)
    violation = c.d_squared_violation()
    if violation is None and len(c.d) == q == len(c.weight) and all(
            (dk.rows, dk.cols) == shape and all(
                [j for j, x in dk.int_rows[i] if x and outside[j]] == [face]
                for i, face in pairs)
            for dk, (shape, outside, pairs) in zip(c.d, witness)):
        ranks = tuple(comb(q - 1, k) for k in range(q))
    else:
        ranks = tuple(rank(dk) for dk in c.d)
    failed = violation + 1 if violation is not None else next(
        (k for k, b in enumerate(betti_numbers(q, ranks)) if b), None)
    return KoszulCertificate(tuple(mode), ranks, failed is None, failed, modes)


def _monomial_witness(q: int, i0: int) -> list[tuple]:
    """What koszul_certificate checks of each d_k on R^q, for i0 the
    first nonzero coordinate of the weight: the shape (C(q, k + 1),
    C(q, k)), the mask of the columns I that avoid i0, and the pairs
    (row J, column J - {i0}) of the rows J that contain i0.  Dropping i0
    keeps the lexicographic order, so the m-th such row J is matched
    with the m-th such column I.  It depends on q and i0 alone, so an
    audit computes it once for each i0."""
    out = []
    columns = enumerate_basis(q, 0)
    for k in range(q):
        rows = enumerate_basis(q, k + 1)
        outside = [i0 not in mono for mono in columns]
        out.append(((len(rows), len(columns)), outside, list(zip(
            [i for i, mono in enumerate(rows) if i0 in mono],
            [j for j, out in enumerate(outside) if out]))))
        columns = rows
    return out


@record
class TorusBettiReport:
    """Betti numbers of the invariant basic complex plus the mode audit.

    spec is the spec the report was computed from.  betti has length
    n - p + 1 for its n and p, and equals the zero-mode cohomology;
    acyclicity_certificates hold one
    KoszulCertificate per class of audited nonzero modes, ordered by
    their least members, whose modes counts sum to audited_modes;
    all_modes_acyclic summarizes them.
    frame is the transverse frame the Betti numbers were read from; its
    skeleton's ambient dimension is n.
    """

    spec: TorusSpec
    frame: TransverseFrame
    coordinate_names: tuple[str, ...]
    betti: tuple[int, ...]
    ranks: tuple[int, ...]
    mode_zero_generators: tuple[tuple[str, ...], ...]
    acyclicity_certificates: tuple[KoszulCertificate, ...]
    audited_modes: int
    all_modes_acyclic: bool
    normalization: str = NORMALIZATION_NOTE


def surviving_modes(spec: TorusSpec, bound: int) -> list[tuple[int, ...]]:
    """All modes with sup norm <= bound that survive, lexicographically.

    Invariance coordinates are pinned to zero up front.  On the other
    (open) coordinates the survival set is the integer kernel of the
    rational and alpha parts of the directions (m . (a + alpha*b) = 0
    splits into m . a = 0 and m . b = 0), which is also the kernel of
    their reduced row echelon form R, the basis of their `Subspace`
    span.  Each row of R, a primitive integer row, writes lead * pivot
    coordinate as minus an integer combination of non-pivot ones.
    Enumerating the non-pivot coordinates over {-bound..bound} and
    deriving every pivot coordinate exactly, kept only when it is an
    integer inside the box, is complete: every coordinate of a kernel
    point in the box, the non-pivot ones included, lies in
    {-bound..bound}, so the point is reached from its own non-pivot
    coordinates, and the pivot values derived from them are its own.
    It is also sound, since every point kept satisfies R.  The work is (2*bound + 1)^(open - r) for r the
    rank of the constraint rows, not (2*bound + 1)^open.  `survives` is
    the reference predicate this is tested against.
    """
    open_cols = [j for j in range(spec.n) if j not in spec.invariance_coords]
    a, b = _direction_parts(spec)
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

    The zero mode fixes the Betti numbers, C(n - p, k) on the
    transverse frame; every other surviving mode with sup norm at most
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
    names = coordinate_names(spec.n)
    betti_out = tuple(comb(q, k) for k in range(q + 1))
    gens = tuple(
        tuple(
            monomial_label(tuple(free[i] for i in mono), names)
            for mono in enumerate_basis(q, k)
        )
        for k in range(q + 1)
    )
    untouched = [j for j in range(spec.n) if j not in spec.invariance_coords
                 and all(v[j].is_zero() for v in spec.foliation_dirs)]
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
        untouched))
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
    witnesses = [_monomial_witness(q, i0) for i0 in range(q)]
    certificates = [
        koszul_certificate(mode, build_mode_complex(
            _mode_transverse(mode, frame), template), count, witnesses)
        for mode, count in sorted(classes.values())
    ]
    return TorusBettiReport(
        spec=spec,
        frame=frame,
        coordinate_names=names,
        betti=betti_out,
        ranks=(0,) * q,
        mode_zero_generators=gens,
        acyclicity_certificates=tuple(certificates),
        audited_modes=sum(cert.modes for cert in certificates),
        all_modes_acyclic=all(cert.ok for cert in certificates),
    )


def cross_check_ce(report: TorusBettiReport) -> bool:
    """Check the frame and the Betti numbers of a torus report against
    the report's spec, by ranks the audit never computed.

    The frame must fit the spec: at the frame's stand-in for alpha, the
    directions restricted to the skeleton's pivot columns have rank p.
    The transverse dimension is counted again from the symbolic rank of
    the directions, the largest rank at the stand-ins 0, ..., p + 1
    other than the frame's: a p x p minor that is not identically zero
    is a polynomial of degree at most p in alpha, so at most p of those
    p + 1 stand-ins lose rank.  The check holds iff the frame fits, its
    complement has q = n - (that rank) coordinates and report.betti is
    (C(q, 0), ..., C(q, q)).
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
