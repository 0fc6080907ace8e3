"""Invariant basic forms of linear torus foliations, one Fourier mode at a time.

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
transverse frame, the differential is left multiplication by the mode
covector (the overall 2*pi*i factor is normalized to 1; a nonzero
scalar never changes a rank), and for a nonzero mode that covector is
itself nonzero, which makes the complex exact in every degree.  The
zero mode has zero differential.  Betti numbers are therefore binomial
coefficients C(n - p, k); the nonzero-mode audit certifies this with
explicit ranks.

The irrational alpha is handled symbolically: independence and pivot
columns of the direction matrix A + alpha*B are decided by substituting
rationals r for alpha.  Any p x p minor is a polynomial of degree at
most p in alpha, so if no r in {0, ..., p} gives rank p the symbolic
rank is below p, and the first r that does certifies independence and
fixes the pivot columns used by the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from typing import Sequence

from .errors import InvalidSpec, ModeKilled
from .exterior import MultiIndex, enumerate_basis, wedge_insert
from .lie import Subspace, abelian, betti as lie_betti, ce_complex, quotient
from .scalars import ExactMatrix, ExtScalar, ext_is_zero, rank, rref

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
            if all(ext_is_zero(x) for x in v):
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
        if not ext_is_zero(dot):
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
        mat = ExactMatrix.from_rows(trial, cols=spec.n)
        if rank(mat) == p:
            _, pivots = rref(mat)
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

    transverse_basis lists, degree by degree, the monomials on the
    transverse coordinates (whose global indices are transverse_cols);
    d_matrices[k] is left wedge with the mode covector, with the
    2*pi*i factor normalized away.
    """

    mode: Mode
    transverse_cols: tuple[int, ...]
    transverse_basis: tuple[tuple[MultiIndex, ...], ...]
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

    The differential in degree k sends a transverse monomial to the
    mode covector wedged in from the left, entry by entry through
    wedge_insert.
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
    q = len(w)
    basis = tuple(tuple(enumerate_basis(q, k)) for k in range(q + 1))
    mats = []
    for k in range(q):
        col_basis = basis[k]
        row_index = {mono: r for r, mono in enumerate(basis[k + 1])}
        rows: list[dict[int, int]] = [{} for _ in row_index]
        for c, mono in enumerate(col_basis):
            for pos, weight in enumerate(w):
                if weight == 0:
                    continue
                inserted = wedge_insert(pos, mono)
                if inserted is None:
                    continue
                sign, merged = inserted
                row = rows[row_index[merged]]
                row[c] = row.get(c, 0) + sign * weight
        mats.append(ExactMatrix.from_sparse(len(col_basis), rows))
    return ModeComplex(
        Mode(mode, w), frame.free_cols, basis, tuple(mats)
    )


@dataclass(frozen=True)
class KoszulCertificate:
    """Rank evidence that one nonzero mode contributes no cohomology.

    ok holds iff every degree has zero cohomology; on failure
    failed_degree records the first degree with a nonzero defect.
    """

    mode: tuple[int, ...]
    ranks: tuple[int, ...]
    ok: bool
    failed_degree: int | None


def _certificate_from_ranks(
    mode: tuple[int, ...], q: int, ranks: tuple[int, ...]
) -> KoszulCertificate:
    failed = None
    for k in range(q + 1):
        width = comb(q, k)
        rk = ranks[k] if k < q else 0
        rk_prev = ranks[k - 1] if k >= 1 else 0
        if width - rk - rk_prev != 0:
            failed = k
            break
    return KoszulCertificate(mode, ranks, failed is None, failed)


def koszul_certificate(mc: ModeComplex) -> KoszulCertificate:
    """Certify exactness of a nonzero-mode complex by direct ranks.

    Wedging with a nonzero covector is exact, so ok is always true for
    a correctly built complex; a failure therefore indicates an
    implementation bug, which is exactly what the certificate is for.
    The zero mode is rejected: its differential vanishes and exactness
    is the wrong question.
    """
    if mc.mode.is_zero():
        raise ValueError("the zero mode is not eligible for an exactness "
                         "certificate; its differential is zero")
    ranks = tuple(rank(dk) for dk in mc.d_matrices)
    return _certificate_from_ranks(mc.mode.m, mc.q, ranks)


@dataclass(frozen=True)
class TorusBettiReport:
    """Betti numbers of the invariant basic complex plus the mode audit.

    betti has length n - p + 1 and equals the zero-mode cohomology;
    acyclicity_certificates hold one KoszulCertificate per audited
    nonzero mode in lexicographic order; all_modes_acyclic summarizes
    them.
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

    Invariance coordinates are pinned to zero up front; the remaining
    coordinates run over {-bound..bound} and are filtered by integer
    dot products (equivalent to `survives`, tested as such).
    """
    free_positions = [j for j in range(spec.n) if j not in spec.invariance_coords]
    constraints = _integer_constraints(spec)
    reduced = [tuple(row[j] for j in free_positions) for row in constraints]
    out = []
    values = range(-bound, bound + 1)
    for combo in product(values, repeat=len(free_positions)):
        if all(
            sum(c * m for c, m in zip(row, combo)) == 0 for row in reduced
        ):
            mode = [0] * spec.n
            for j, m in zip(free_positions, combo):
                mode[j] = m
            out.append(tuple(mode))
    return out


def torus_betti(spec: TorusSpec, truncation: int | None = None) -> TorusBettiReport:
    """Betti numbers with a per-mode acyclicity audit.

    The zero mode fixes the Betti numbers, C(n - p, k) on the
    transverse frame; every other surviving mode with sup norm at most
    the truncation is certified exact.  Certified rank profiles are
    cached by the canonical form of the transverse covector (sorted
    absolute values divided by their gcd): permuting or negating
    coordinates and global scaling conjugate the complex by
    invertible maps, so the per-degree ranks agree.
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
    cache: dict[tuple[int, ...], tuple[tuple[int, ...], bool, int | None]] = {}
    certificates = []
    all_ok = True
    for mode in surviving_modes(spec, bound):
        if all(m == 0 for m in mode):
            continue
        w = _mode_transverse(mode, frame)
        g = gcd(*(abs(x) for x in w))
        key = tuple(sorted(abs(x) // g for x in w))
        if key not in cache:
            cert = koszul_certificate(build_mode_complex(mode, spec))
            cache[key] = (cert.ranks, cert.ok, cert.failed_degree)
        ranks, ok, failed = cache[key]
        certificates.append(KoszulCertificate(mode, ranks, ok, failed))
        all_ok = all_ok and ok
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
        audited_modes=len(certificates),
        all_modes_acyclic=all_ok,
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
