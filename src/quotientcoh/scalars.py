"""Exact scalars and exact elimination over the rationals.

Every rank, kernel and echelon form in this package is exact over the
rationals, so results are reproducible.  The elimination runs on the
integer rows of a `matrix.ExactMatrix`.  A rational the core makes or
returns is a `Ratio`, an int pair (numerator, denominator) in lowest
terms: the lead-1 rows (`lead_one`) that reports render and the parts
of an `ExtScalar`.

Echelon rows have one form throughout: primitive integer rows, with
content 1, a positive lead, and (once reduced) a zero at every other
pivot.  `EchelonBasis` reduces one sparse integer row at a time against
the rows it holds, clearing their pivot columns in increasing order by
cross-multiplication, and keeps the residual, divided by its content,
when it is nonzero.  Up to a nonzero factor that residual is the unique
vector of v + span that vanishes on every pivot column, so it is fixed
by the span and the pivot set alone, and as a primitive row with a
positive lead it is unique.  Rank, the reduced row echelon form (the
canonical representative of a row span) and the kernel basis read off
from it are therefore independent of the order in which rows are
eliminated, and of every scaling on the way.  One elimination serves
both the rank and the kernel of a matrix: the kernel basis has
cols - rank members, so callers that need both (the cochain pipeline,
once per differential d_k) call `nullspace_basis` alone and read the
rank off its length.  A kernel vector is fixed by its free-column
entries, so `kernel_survivors` tells which kernel vectors lie outside
the span of given kernel elements from those entries alone.

A single symbolic irrational ``alpha`` is supported through `ExtScalar`,
a pair p + q*alpha with p, q rational.  ``alpha`` carries no polynomial
relation, so p + q*alpha = 0 forces p = q = 0.  ExtScalar is plain data
with no arithmetic: a torus spec clears each direction once into integer
rational and alpha parts (TorusSpec.parts), and the pipeline reads those.
This module parses no text: the job-file grammar, the p + q*alpha
tokens included, lives in config and literals.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, lcm

from .ratio import Ratio, as_ratio, ratio
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping, Sequence

    from .matrix import ExactMatrix, IntRow, SparseRow


@record
class ExtScalar:
    """A number p + q*alpha with p, q rational and alpha a fixed irrational.

    p and q are stored as Ratios (rat, irr); either may be given as an
    int, a Fraction or a Ratio.  alpha is treated as a pure symbol, so
    the scalar vanishes iff both components vanish: iff it equals
    ExtScalar().
    """

    rat: Ratio = (0, 1)
    irr: Ratio = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "rat", as_ratio(self.rat))
        object.__setattr__(self, "irr", as_ratio(self.irr))


def _make_primitive(w: dict[int, int]) -> dict[int, int]:
    """Divide the nonzero integer row w, in place, by its content, signed
    so that its leading entry comes out positive."""
    g = gcd(*w.values())
    if w[min(w)] < 0:
        g = -g
    if g != 1:
        for j in w:
            w[j] //= g
    return w


def lead_one(row: IntRow) -> SparseRow:
    """A nonzero integer row of (column, int) pairs in increasing column
    order divided by its leading entry, as (column, Ratio) pairs."""
    lead = row[0][1]
    return tuple([(j, ratio(x, lead)) for j, x in row])


class EchelonBasis:
    """An echelon basis of sparse integer rows, grown one vector at a time.

    rows maps each pivot column to the row that owns it: a {column:
    value} map of ints with nothing left of the pivot, a positive value
    at the pivot, and content 1 (a primitive row).  Rows are never
    divided by their lead, so no rational is formed: a pivot is cleared
    by cross-multiplication, and the residual is divided by its content
    once at the end.  Every step scales a whole row by a nonzero
    constant, which leaves its span, and hence the rank, the pivots, the
    reduced echelon form and the kernel, unchanged.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def add(self, v: Mapping[int, int] | IntRow) -> dict[int, int] | None:
        """Absorb the integer row v (a {column: value} map or (column,
        value) pairs): return its primitive residual, which vanishes on
        the pivots held before and is now a row of the basis (do not
        mutate it), or None when v lies in the span."""
        w = self._residual(dict(v))
        if not w:
            return None
        self.rows[min(w)] = w
        return w

    def _residual(self, w: dict[int, int]) -> dict[int, int]:
        """Reduce the integer row w in place against the basis.

        Pivot columns are cleared in increasing order.  To clear pivot c
        of w against its row r, with f = w[c], a = r[c] and
        g = gcd(a, f), w becomes (a/g) w - (f/g) r.  That only touches
        columns right of c, so a sorted list of the pivot columns
        present in w visits each in turn.  The result is divided by its
        content once, at the end (a lead of 1 already has content 1).
        """
        pivots = self.rows
        pending = sorted(c for c in w if c in pivots)
        while pending:
            c = pending.pop(0)
            f = w.pop(c, None)
            if f is None:
                continue  # cancelled to zero after it was listed
            row = pivots[c]
            a = row[c]
            g = gcd(a, f)
            if g != 1:
                a //= g
                f //= g
            if a != 1:
                for j in w:
                    w[j] *= a
            for j, x in row.items():
                if j == c:
                    continue
                y = w.get(j)
                if y is None:
                    w[j] = -f * x
                    if j in pivots:
                        insort(pending, j)
                else:
                    y -= f * x
                    if y:
                        w[j] = y
                    else:
                        del w[j]
        if w and w[min(w)] != 1:
            _make_primitive(w)
        return w


def _echelon(mat: ExactMatrix) -> EchelonBasis:
    """The integer rows of mat absorbed in order: all are scaled by the
    one denominator, which changes no span."""
    basis = EchelonBasis()
    for row in mat.int_rows:
        basis.add(row)
    return basis


def rank(m: ExactMatrix) -> int:
    """Exact rank: the number of rows an EchelonBasis absorbs."""
    return len(_echelon(m).rows)


def rref(m: ExactMatrix) -> dict[int, dict[int, int]]:
    """Reduced row echelon form over the rationals, as integer rows.

    Maps each pivot column, in increasing order, to its {column: int}
    row: positive at the pivot, zero at every other pivot, content 1.
    That is the least positive integer multiple of the lead-1 reduced
    row, so the rows are the canonical representative of the row span:
    two matrices have the same row span iff their rref agree.  The rank
    is the number of pivots.
    """
    rows = _echelon(m).rows
    # Back substitution from the last pivot up, against the rows already
    # reduced: they are zero on every other pivot column, so no new pivot
    # entry appears, and the multipliers a/g keep every lead positive.
    reduced = EchelonBasis()
    for p in sorted(rows, reverse=True):
        reduced.rows[p] = reduced._residual(rows[p])
    return dict(sorted(reduced.rows.items()))


def nullspace_basis(m: ExactMatrix) -> list[IntRow]:
    """Deterministic exact kernel basis with one vector per free column.

    Each basis vector is a sparse integer row of (column, int) pairs in
    increasing column order, with content 1, a positive entry at its
    own free column, which is its last entry, and zeros at the other
    free columns.  The list has exactly cols - rank members and
    m @ v = 0 holds exactly for each: one elimination gives both the
    kernel and the rank.  Divided by its free-column entry, the vector
    of free column f holds -r[f] / r[p] at the pivot p of each reduced
    row r; it is scaled by the lcm of those denominators.
    """
    reduced = rref(m)
    by_free: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(m.cols) if f not in reduced
    }
    for p, row in reduced.items():
        lead = row[p]
        for j, x in row.items():
            if j != p:
                g = gcd(lead, x)
                by_free[j].append((p, -x // g, lead // g))
    out = []
    for f, terms in by_free.items():
        scale = lcm(*(den for _, _, den in terms))
        out.append(tuple(sorted((p, num * (scale // den))
                                for p, num, den in terms)) + ((f, scale),))
    return out


def kernel_survivors(kernel: Sequence[IntRow],
                     image: Iterable[Mapping[int, int]]) -> list[IntRow]:
    """The vectors v_f of a nullspace_basis kernel that lie outside the
    span of image and of the v_f' with f' < f, in order, for image
    vectors inside that kernel given by their entries at its free
    columns F.

    A kernel vector is fixed by its entries on F, where v_f is a
    positive multiple of the unit vector at f.  So v_f is in that span
    iff some image vector, restricted to F, has its last nonzero entry
    at f: iff f is a pivot of the restricted image with its columns
    taken in decreasing order.
    """
    restricted = EchelonBasis()
    for v in image:
        restricted.add({-j: x for j, x in v.items()})
    return [v for v in kernel if -v[-1][0] not in restricted.rows]
