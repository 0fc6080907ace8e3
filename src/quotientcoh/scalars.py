"""Exact scalars and sparse exact linear algebra.

Every rank, kernel and echelon form in this package is exact over the
rationals, so results are reproducible.  The arithmetic runs on Python
ints, which avoids the gcd that every Fraction operation pays to
normalise its result: `ExactMatrix` stores integer rows over one
positive denominator.  A rational the core makes or returns is a
`Ratio`, an int pair (numerator, denominator) in lowest terms: the
lead-1 rows (`lead_one`) that reports render and the parts of an
`ExtScalar`.  Inputs may be ints, Fractions or Ratios (`as_ratio` reads
all three), and a `Fraction` is built only by the dense `entries` view,
which imports it when read.

Matrices are row-sparse: `ExactMatrix` keeps, for each row, only its
nonzero entries as (column, value) pairs in increasing column order.
The differentials the pipelines build are mostly zero (a dim-7 cochain
differential has tens of nonzeros among thousands of cells), so
products, ranks and echelon forms cost time in proportion to the
nonzeros and the fill-in they create, not to the number of cells.  A
zero test of a product (`first_nonzero_product_row`) multiplies row by
row and stops at the first nonzero row, without building the product.
Dense rows enter only through `ExactMatrix.from_rows` (job input), and
the dense view `ExactMatrix.entries` is for tests and the bench tracer.

One denominator per matrix is what keeps products exact.  A row times a
nonzero constant spans the same line, so an elimination may clear or
scale each row separately without changing any rank, pivot set,
reduced echelon form or kernel.  A product is different: D * A @ B = 0
iff A @ B = 0 for a single constant D, but scaling the rows of B one by
one inserts a diagonal matrix between the factors, and A @ diag(s) @ B
need not vanish when A @ B does.

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
with an exact zero test and no arithmetic: the torus pipeline splits
every direction into its rational and alpha parts and works on those.
"""

from __future__ import annotations

import re
from bisect import insort
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import DECIMAL_RE
from .ratio import Ratio, as_ratio, parse_ratio, ratio
from .record import record

# an int, a Fraction (read through its numerator and denominator) or a Ratio
RationalLike = Union[int, "Fraction", Ratio]

_EXT_RE = re.compile(
    r"^(?P<rat>-?\d+(?:/\d+)?)"
    r"(?:(?P<sign>[+-])(?P<irr>\d+(?:/\d+)?)\*alpha)?$"
)


@record
class ExtScalar:
    """A number p + q*alpha with p, q rational and alpha a fixed irrational.

    p and q are stored as Ratios (rat, irr); either may be given as an
    int, a Fraction or a Ratio.  alpha is treated as a pure symbol, so
    the zero test is exact: the scalar vanishes iff both components
    vanish.
    """

    rat: Ratio = (0, 1)
    irr: Ratio = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "rat", as_ratio(self.rat))
        object.__setattr__(self, "irr", as_ratio(self.irr))

    def is_zero(self) -> bool:
        return not (self.rat[0] or self.irr[0])


def parse_ext_scalar(text: str) -> ExtScalar:
    """Parse 'p', 'p+q*alpha' or 'p-q*alpha' with p, q integer or fraction.

    Decimal literals are rejected on purpose: exact fields must stay exact.
    """
    raw = text.strip()
    match = _EXT_RE.match(raw)
    if match is None:
        if DECIMAL_RE.search(raw):
            raise ValueError(
                "decimal literal %r not allowed in an exact field; "
                "use an integer or a fraction like 3/10" % raw
            )
        raise ValueError(
            "cannot parse %r as an exact scalar "
            "(expected p or p+q*alpha with p, q rational)" % raw
        )
    try:
        rat = parse_ratio(match.group("rat"))
        irr = parse_ratio(match.group("irr") or "0")
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % raw) from None
    if match.group("sign") == "-":
        irr = (-irr[0], irr[1])
    return ExtScalar(rat, irr)


SparseRow = tuple[tuple[int, Ratio], ...]
IntRow = tuple[tuple[int, int], ...]


@record
class ExactMatrix:
    """Immutable row-sparse rational matrix: integer rows over one denominator.

    int_rows[i] lists the nonzero entries of row i, times den, as
    (column, int) pairs in increasing column order.  den is positive and
    has no common factor with all the numerators, so two matrices are
    equal iff their fields are.
    """

    rows: int
    cols: int
    den: int
    int_rows: tuple[IntRow, ...]

    def __post_init__(self):
        den = self.den
        if den < 1:
            raise ValueError("denominator must be positive, got %d" % den)
        for row in self.int_rows:
            for _, x in row:
                if den == 1:
                    return
                den = gcd(den, x)
        if den != 1:  # also reached by a zero matrix over den > 1
            object.__setattr__(self, "den", self.den // den)
            object.__setattr__(self, "int_rows", tuple(
                tuple((j, x // den) for j, x in row) for row in self.int_rows
            ))

    @classmethod
    def from_int_rows(cls, cols: int, den: int,
                      rows: Sequence[Mapping[int, int]]) -> "ExactMatrix":
        """Build from one {column: numerator} map per row, every value
        read over den; zeros are dropped."""
        out = []
        for row in rows:
            if 0 in row.values():
                row = {j: x for j, x in row.items() if x}
            out.append(tuple(sorted(row.items())))
        return cls(len(rows), cols, den, tuple(out))

    @classmethod
    def from_sparse(cls, cols: int, rows: Sequence[Mapping[int, RationalLike]]
                    ) -> "ExactMatrix":
        """Build from one {column: value} map per row, with int,
        Fraction or Ratio values cleared by their least common
        denominator."""
        outside = [j for row in rows for j in row if not 0 <= j < cols]
        if outside:
            raise ValueError("column %d out of range for width %d"
                             % (outside[0], cols))
        rows = [{j: as_ratio(x) for j, x in row.items()} for row in rows]
        den = lcm(*{d for row in rows for _, d in row.values()})
        return cls.from_int_rows(cols, den, [
            {j: n * (den // d) for j, (n, d) in row.items()} for row in rows
        ])

    @classmethod
    def from_rows(
        cls, rows: Sequence[Iterable[RationalLike]], cols: int | None = None
    ) -> "ExactMatrix":
        """Build from dense rows of ints, Fractions or Ratios."""
        data = [dict(enumerate(r)) for r in rows]
        if cols is None:
            if not data:
                raise ValueError("cannot infer width of a matrix with no rows")
            cols = len(data[0])
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows: %d != %d" % (len(r), cols))
        return cls.from_sparse(cols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, 1, ((),) * rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows of Fractions, built on each access: the one view
        that builds a Fraction, imported here so that no job loads it."""
        from fractions import Fraction

        zero = Fraction(0)
        out = []
        for row in self.int_rows:
            dense = [zero] * self.cols
            for j, x in row:
                dense[j] = Fraction(x, self.den)
            out.append(tuple(dense))
        return tuple(out)

    def _product_rows(self, other: "ExactMatrix"):
        """The integer rows of self @ other, over self.den * other.den,
        one {column: int} map at a time; zeros are not dropped."""
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        right = other.int_rows
        for row in self.int_rows:
            acc: dict[int, int] = {}
            for j, a in row:
                for col, b in right[j]:
                    acc[col] = acc.get(col, 0) + a * b
            yield acc

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The exact product: the integer rows multiplied, over the
        product of the two denominators, then normalised."""
        return ExactMatrix.from_int_rows(
            other.cols, self.den * other.den, list(self._product_rows(other)))

    def first_nonzero_product_row(self, other: "ExactMatrix") -> int | None:
        """The index of the first nonzero row of self @ other, or None
        when the product vanishes: a zero test that multiplies row by
        row, stops at the first nonzero row and builds no product."""
        for i, acc in enumerate(self._product_rows(other)):
            if any(acc.values()):
                return i
        return None

    def is_zero(self) -> bool:
        return not any(self.int_rows)


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


def lead_one(row: Mapping[int, int]) -> SparseRow:
    """A nonzero integer row divided by its leading entry, as (column,
    Ratio) pairs in increasing column order."""
    cols = sorted(row)
    lead = row[cols[0]]
    return tuple((j, ratio(row[j], lead)) for j in cols)


class EchelonBasis:
    """An echelon basis of sparse integer rows, grown one vector at a time.

    rows maps each pivot column to the row that owns it: a {column:
    value} map of ints with nothing left of the pivot, a positive value
    at the pivot, and content 1 (a primitive row).  Rows are never
    divided by their lead, so no rational is formed: a pivot is cleared
    by cross-multiplication, and the residual is divided by its content
    once at the end.  Every step scales a whole row by a nonzero
    constant, which leaves its span, and hence the rank, the pivots, the
    reduced echelon form and the kernel, unchanged; a caller that wants
    the lead-1 form divides by the lead (`lead_one`).
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
    vectors inside that kernel.

    A kernel vector is fixed by its entries on the free columns F, where
    v_f is a positive multiple of the unit vector at f.  So v_f is in
    that span iff some image vector, restricted to F, has its last
    nonzero entry at f: iff f is a pivot of the restricted image with
    its columns taken in decreasing order.
    """
    free = {v[-1][0] for v in kernel}
    restricted = EchelonBasis()
    for v in image:
        restricted.add({-j: x for j, x in v.items() if j in free})
    return [v for v in kernel if -v[-1][0] not in restricted.rows]
