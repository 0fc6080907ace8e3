"""Invariant basic forms of linear torus foliations, one class of Fourier modes at a time.

A constant-coefficient foliation of the n-torus is spanned by direction
vectors whose entries are rational or rational + rational*alpha for one
fixed irrational alpha.  Forms that are basic for the foliation and
invariant under dense translations in a chosen set of coordinates
decompose over Fourier modes m in Z^n, and a mode contributes iff

  * m . v = 0 exactly for every direction vector v (basic), and
  * m_j = 0 for every invariance coordinate j (invariant).

Constant coefficients along the leaves leave a transverse coordinate
frame: the free columns of the echelonized direction matrix.  On one
surviving mode the whole complex is the exterior algebra of the
transverse frame, and the differential is left multiplication by the
mode covector w (the overall 2*pi*i factor is normalized to 1; a nonzero
scalar never changes a rank): lie.ce_differential of the transverse
translation algebra R^q with coefficients of weight w.  For a nonzero
mode w is itself nonzero, which makes the complex exact in every degree.
The zero mode has zero differential.  Betti numbers are therefore
binomial coefficients C(n - p, k); the nonzero-mode audit certifies this
with explicit ranks.

The audit visits every surviving mode of sup norm at most the
truncation T without scanning the box.  Survival is an integer linear
system: the rational and alpha parts of every direction, scaled to
integers, plus m_j = 0 on the invariance coordinates.  Its reduced row
echelon form writes each pivot coordinate as a rational combination of
the non-pivot ones.  A surviving mode in the box has all coordinates in
[-T, T], the non-pivot ones included, so enumerating the non-pivot
coordinates over [-T, T] and keeping the derived pivot values that are
integers in [-T, T] finds every survivor, and nothing else, in
(2T + 1)^(n - |inv| - r) steps for r the rank of the constraint rows.

The surviving modes then fall into classes keyed by the sorted absolute
values of the transverse covector divided by their gcd.  Permuting the
transverse coordinates, negating some of them and scaling the covector
by a nonzero factor conjugate the mode complex by invertible maps, so
all members of a class have the same ranks.  Each class is built and
certified once, on its lexicographically first member, and reported
once with the number of modes it stands for.

The irrational alpha is handled symbolically: independence and pivot
columns of the direction matrix A + alpha*B are decided by substituting
rationals r for alpha.  Any p x p minor is a polynomial of degree at
most p in alpha, so if no r in {0, ..., p} gives rank p the symbolic
rank is below p, and the first r that does certifies independence and
fixes the pivot columns used by the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from typing import Sequence

from .errors import InvalidSpec, ModeKilled
# wedge_insert is unused here, but perfbench/tracer.py wraps torus.wedge_insert by name
from .exterior import MultiIndex, enumerate_basis, wedge_insert
from .lie import (Subspace, abelian, betti as lie_betti, betti_numbers, ce_complex,
                  ce_differential, first_d_squared_violation, quotient)
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


@dataclass(frozen=True)
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

    The mode must annihilate every direction vector (an ExtScalar zero
    test, hence exact) and vanish on every invariance coordinate.
    """
    if len(mode) != spec.n:
        raise ValueError("mode length %d != n = %d" % (len(mode), spec.n))
    if any(mode[j] != 0 for j in spec.invariance_coords):
        return False
    for v in spec.foliation_dirs:
        dot = ExtScalar()
        for m_i, v_i in zip(mode, v):
            if m_i != 0:
                dot = dot + v_i * m_i
        if not dot.is_zero():
            return False
    return True


@dataclass(frozen=True)
class TransverseFrame:
    """Coordinate splitting induced by the echelonized direction matrix.

    pivot_cols carry the leafwise directions, free_cols the transverse
    ones; substitution records the rational stand-in for alpha that
    certified independence and fixed the pivots.
    """

    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    substitution: Fraction


def _direction_parts(spec: TorusSpec) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    a = [[x.rat for x in v] for v in spec.foliation_dirs]
    b = [[x.irr for x in v] for v in spec.foliation_dirs]
    return a, b


def transverse_frame(spec: TorusSpec) -> TransverseFrame:
    """Find the transverse frame, or raise InvalidSpec on dependence.

    Writes the direction matrix as A + alpha*B and tries the rationals
    0..p in place of alpha; degree counting on the p x p minors shows
    this decides symbolic independence.
    """
    p = spec.p
    if p == 0:
        return TransverseFrame((), tuple(range(spec.n)), Fraction(0))
    a, b = _direction_parts(spec)
    for r in range(p + 1):
        trial = [
            [aij + Fraction(r) * bij for aij, bij in zip(ra, rb)]
            for ra, rb in zip(a, b)
        ]
        _, pivots = rref(ExactMatrix.from_rows(trial, cols=spec.n))
        if len(pivots) == p:
            free = tuple(c for c in range(spec.n) if c not in set(pivots))
            return TransverseFrame(pivots, free, Fraction(r))
    raise InvalidSpec(
        "foliation directions are linearly dependent over the scalars"
    )


@dataclass(frozen=True)
class Mode:
    """One Fourier mode with its transverse covector coordinates."""

    m: tuple[int, ...]
    transverse: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.m)


@dataclass(frozen=True)
class ModeComplex:
    """The exterior complex one surviving mode contributes.

    It lives on the monomials in the transverse coordinates (whose
    global indices are transverse_cols), in lexicographic order degree
    by degree; d_matrices[k] is left wedge with the mode covector w, the
    weight-w differential of R^q, with the 2*pi*i factor normalized away.
    """

    mode: Mode
    transverse_cols: tuple[int, ...]
    d_matrices: tuple[ExactMatrix, ...]

    @property
    def q(self) -> int:
        return len(self.transverse_cols)


def _mode_transverse(mode: Sequence[int], frame: TransverseFrame) -> tuple[int, ...]:
    # In the annihilator frame of the leaves, the covector of a
    # surviving mode has exactly the free-column components of the mode:
    # both sides agree on free coordinates, and an annihilator element
    # supported on the pivot columns must vanish.
    return tuple(mode[f] for f in frame.free_cols)


def build_mode_complex(mode: Sequence[int], spec: TorusSpec) -> ModeComplex:
    """Assemble the per-mode complex, or raise ModeKilled.

    A surviving mode with transverse covector w contributes the cochain
    complex of the translation algebra R^q with coefficients of weight
    w: d_k is ce_differential(abelian(q), k, w), left wedge with w.
    """
    mode = tuple(int(m) for m in mode)
    if not survives(mode, spec):
        bad_inv = next(
            (j for j in sorted(spec.invariance_coords) if mode[j] != 0), None
        )
        if bad_inv is not None:
            reason = "nonzero on invariance coordinate %d" % bad_inv
        else:
            reason = "mode does not annihilate the foliation directions"
        raise ModeKilled(mode, reason)
    frame = transverse_frame(spec)
    w = _mode_transverse(mode, frame)
    g = abelian(len(w))
    mats = tuple(ce_differential(g, k, w) for k in range(g.dim))
    return ModeComplex(Mode(mode, w), frame.free_cols, mats)


@dataclass(frozen=True)
class KoszulCertificate:
    """Rank evidence that nonzero modes contribute no cohomology.

    ranks are the exact ranks of the complex of mode; ok holds iff the
    squares d_{k+1} d_k vanish and every degree has zero cohomology, and
    on failure failed_degree records the first degree where either
    fails.  modes counts the audited modes the certificate stands for:
    mode itself and the members of its class (see torus_betti), which
    share its ranks.
    """

    mode: tuple[int, ...]
    ranks: tuple[int, ...]
    ok: bool
    failed_degree: int | None
    modes: int = 1


def koszul_certificate(mc: ModeComplex) -> KoszulCertificate:
    """Certify exactness of a nonzero-mode complex by d.d and direct ranks.

    Wedging with a nonzero covector is exact, so ok is always true for
    a correctly built complex; a failure therefore indicates an
    implementation bug, which is exactly what the certificate is for.
    Ranks cannot see a non-complex, so the first k with d_{k+1} d_k != 0
    fails at degree k + 1 before any degree with nonzero cohomology
    does.  The zero mode is rejected: its differential vanishes and
    exactness is the wrong question.
    """
    if mc.mode.is_zero():
        raise ValueError("the zero mode is not eligible for an exactness "
                         "certificate; its differential is zero")
    ranks = tuple(rank(dk) for dk in mc.d_matrices)
    violation = first_d_squared_violation(mc.d_matrices)
    failed = violation + 1 if violation is not None else next(
        (k for k, b in enumerate(betti_numbers(mc.q, ranks)) if b), None)
    return KoszulCertificate(mc.mode.m, ranks, failed is None, failed)


@dataclass(frozen=True)
class TorusBettiReport:
    """Betti numbers of the invariant basic complex plus the mode audit.

    betti has length n - p + 1 and equals the zero-mode cohomology;
    acyclicity_certificates hold one KoszulCertificate per class of
    audited nonzero modes, ordered by their first members, whose modes
    counts sum to audited_modes; all_modes_acyclic summarizes them.
    """

    n: int
    p: int
    truncation: int
    transverse_cols: tuple[int, ...]
    coordinate_names: tuple[str, ...]
    betti: tuple[int, ...]
    ranks: tuple[int, ...]
    mode_zero_generators: tuple[tuple[str, ...], ...]
    acyclicity_certificates: tuple[KoszulCertificate, ...]
    audited_modes: int
    all_modes_acyclic: bool
    normalization: str = NORMALIZATION_NOTE


def _integer_constraints(spec: TorusSpec) -> list[tuple[int, ...]]:
    """Integer row vectors whose simultaneous kernel is the survival set.

    m . (a + alpha*b) = 0 splits into m . a = 0 and m . b = 0; each
    rational part is scaled by its denominator lcm to integers, which
    does not move the kernel.
    """
    rows: list[tuple[int, ...]] = []
    a, b = _direction_parts(spec)
    for part in (a, b):
        for vec in part:
            if all(x == 0 for x in vec):
                continue
            scale = lcm(*(x.denominator for x in vec))
            rows.append(tuple(int(x * scale) for x in vec))
    return rows


def surviving_modes(spec: TorusSpec, bound: int) -> list[tuple[int, ...]]:
    """All modes with sup norm <= bound that survive, lexicographically.

    Invariance coordinates are pinned to zero up front.  On the other
    (open) coordinates the survival set is the integer kernel of the
    constraint rows, which is also the kernel of their reduced row
    echelon form R: each pivot coordinate equals minus the R-combination
    of the non-pivot coordinates of its row.  Enumerating the non-pivot
    coordinates over {-bound..bound} and deriving every pivot coordinate
    exactly, kept only when it is an integer inside the box, is
    complete: every coordinate of a kernel point in the box, the
    non-pivot ones included, lies in {-bound..bound}, so the point is
    reached from its own non-pivot coordinates, and the pivot values
    derived from them are its own.  It is also sound, since every point
    kept satisfies R.  The work is (2*bound + 1)^(open - r) for r the
    rank of the constraint rows, not (2*bound + 1)^open.  `survives` is
    the reference predicate this is tested against.
    """
    open_cols = [j for j in range(spec.n) if j not in spec.invariance_coords]
    rows = [[row[j] for j in open_cols] for row in _integer_constraints(spec)]
    reduced, pivots = rref(ExactMatrix.from_rows(rows, cols=len(open_cols)))
    enumerated = set(open_cols) - {open_cols[c] for c in pivots}
    values = range(-bound, bound + 1)
    axes = [values if j in enumerated else (0,) for j in range(spec.n)]
    if not pivots:
        # the product over per-coordinate ranges is already lexicographic
        return list(product(*axes))
    # pivot coordinate = (sum of coefficient * enumerated coordinate) / denom
    solved = []
    for row, c in zip(reduced, pivots):
        denom = lcm(*(row[k].denominator for k in range(len(row))))
        terms = tuple(
            (open_cols[k], int(-row[k] * denom))
            for k in range(len(row))
            if k != c and row[k] != 0
        )
        solved.append((open_cols[c], denom, terms))
    out = []
    for point in product(*axes):
        mode = list(point)
        for col, denom, terms in solved:
            value, rest = divmod(sum(a * point[j] for j, a in terms), denom)
            if rest or not -bound <= value <= bound:
                break
            mode[col] = value
        else:
            out.append(tuple(mode))
    out.sort()
    return out


def torus_betti(spec: TorusSpec, truncation: int | None = None) -> TorusBettiReport:
    """Betti numbers with an acyclicity audit, one certificate per class.

    The zero mode fixes the Betti numbers, C(n - p, k) on the
    transverse frame; every other surviving mode with sup norm at most
    the truncation is certified exact.  The surviving modes are grouped
    by the canonical form of their transverse covector w: sorted |w_i|
    divided by their gcd.  Two modes with the same form have complexes
    conjugate by invertible maps: a permutation of the transverse
    coordinates permutes the wedge monomials, negating a coordinate
    rescales monomials by signs, and scaling w by a nonzero factor
    scales each differential.  Conjugate complexes have the same rank
    in every degree, so each class is built and certified once, on its
    lexicographically first member, with exact ranks.  The report
    carries one certificate per class, in the order of those first
    members, and each counts the audited modes of its class.
    """
    bound = spec.truncation if truncation is None else truncation
    if bound < 0:
        raise ValueError("truncation must be nonnegative")
    frame = transverse_frame(spec)
    q = len(frame.free_cols)
    names = coordinate_names(spec.n)
    betti_out = tuple(comb(q, k) for k in range(q + 1))
    gens = tuple(
        tuple(
            monomial_label(tuple(frame.free_cols[i] for i in mono), names)
            for mono in enumerate_basis(q, k)
        )
        for k in range(q + 1)
    )
    # Survivors come in lexicographic order, so each sorted |w| first
    # appears with its least mode, and the first such key of a class
    # (dicts keep insertion order) holds the least member of the class.
    by_abs: dict[tuple[int, ...], list] = {}
    for mode in surviving_modes(spec, bound):
        raw = tuple(sorted(map(abs, _mode_transverse(mode, frame))))
        entry = by_abs.get(raw)
        if entry is None:
            by_abs[raw] = [mode, 1]
        else:
            entry[1] += 1
    classes: dict[tuple[int, ...], list] = {}
    for raw, (mode, count) in by_abs.items():
        if not any(raw):
            continue  # the zero mode, the only one with w = 0
        g = gcd(*raw)
        key = tuple(x // g for x in raw)
        if key in classes:
            classes[key][1] += count
        else:
            classes[key] = [mode, count]
    certificates = []
    for mode, count in classes.values():
        cert = koszul_certificate(build_mode_complex(mode, spec))
        certificates.append(replace(cert, modes=count))
    return TorusBettiReport(
        n=spec.n,
        p=spec.p,
        truncation=bound,
        transverse_cols=frame.free_cols,
        coordinate_names=names,
        betti=betti_out,
        ranks=(0,) * q,
        mode_zero_generators=gens,
        acyclicity_certificates=tuple(certificates),
        audited_modes=sum(cert.modes for cert in certificates),
        all_modes_acyclic=all(cert.ok for cert in certificates),
    )


def rational_skeleton(spec: TorusSpec) -> Subspace:
    """The leafwise subspace with alpha replaced by the frame's rational
    stand-in, as a subspace of R^n.

    The substitution preserves the pivot structure by construction, so
    the quotient complement matches the transverse frame.
    """
    frame = transverse_frame(spec)
    a, b = _direction_parts(spec)
    vectors = [
        [aij + frame.substitution * bij for aij, bij in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]
    return Subspace.span(spec.n, vectors)


def cross_check_ce(spec: TorusSpec) -> bool:
    """Compare the torus Betti numbers with an algebraic recomputation.

    The translation algebra of T^n is abelian R^n; quotienting by the
    rational skeleton of the foliation and running the cochain pipeline
    must reproduce the same Betti numbers exactly.  This route goes
    through completely different code (echelon quotient plus cochain
    ranks instead of mode counting), which is the point of the check.
    The torus side runs at truncation 0: its Betti numbers are fixed by
    the transverse frame before any mode is audited, and the audit only
    decides all_modes_acyclic, which this comparison does not read.
    """
    report = torus_betti(spec, truncation=0)
    skeleton = rational_skeleton(spec)
    quot = quotient(abelian(spec.n), skeleton)
    algebraic = lie_betti(ce_complex(quot))
    return tuple(report.betti) == tuple(algebraic.betti)
