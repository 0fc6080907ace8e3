"""Exact scalars and sparse exact linear algebra.

Every rank, kernel and echelon form in this package is computed over the
rationals with `fractions.Fraction`, so results are exact and runs are
reproducible.  Matrices are row-sparse: `ExactMatrix` keeps, for each
row, only its nonzero entries as (column, value) pairs in increasing
column order.  The differentials the pipelines build are mostly zero (a
dim-7 cochain differential has tens of nonzeros among thousands of
cells), so products, ranks and echelon forms cost time in proportion to
the nonzeros and the fill-in they create, not to the number of cells.
A dense view (`ExactMatrix.entries`) is built only when asked for.

Elimination is incremental.  `EchelonBasis` reduces one sparse row at a
time against the rows it holds, each scaled to leading coefficient 1,
clearing their pivot columns in increasing order, and keeps the residual
when it is nonzero.  That residual is the unique vector of v + span that
vanishes on every pivot column, so it is fixed by the span and the pivot
set alone; rank, the reduced row echelon form (the canonical
representative of a row span) and the kernel basis read off from it are
therefore independent of the order in which rows are eliminated.  One
elimination serves both the rank and the kernel of a matrix: the kernel
basis has cols - rank members, so callers that need both (the cochain
pipeline, once per differential d_k) call `nullspace_basis` alone and
read the rank off its length.  Kernel vectors come back sparse, as
(column, value) pairs, and stay sparse until a caller renders them.

A single symbolic irrational ``alpha`` is supported through `ExtScalar`,
a pair p + q*alpha with p, q rational.  ``alpha`` carries no polynomial
relation, so p + q*alpha = 0 forces p = q = 0, and only the linear
operations the rest of the package needs are defined: sums, negation,
and scaling by rationals.  Two ExtScalars are never multiplied; the
pipelines that consume them are arranged so the product is never needed.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, Fraction]

_EXT_RE = re.compile(
    r"^(?P<rat>-?\d+(?:/\d+)?)"
    r"(?:(?P<sign>[+-])(?P<irr>\d+(?:/\d+)?)\*alpha)?$"
)


@dataclass(frozen=True)
class ExtScalar:
    """A number p + q*alpha with p, q rational and alpha a fixed irrational.

    alpha is treated as a pure symbol, so the zero test is exact:
    the scalar vanishes iff both components vanish.
    """

    rat: Fraction = Fraction(0)
    irr: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "irr", Fraction(self.irr))

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return ExtScalar(self.rat + other.rat, self.irr + other.irr)

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return ExtScalar(self.rat - other.rat, self.irr - other.irr)

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.rat, -self.irr)

    def __mul__(self, other: RationalLike) -> "ExtScalar":
        if isinstance(other, ExtScalar):
            raise TypeError("products of two ExtScalars are not defined")
        c = Fraction(other)
        return ExtScalar(self.rat * c, self.irr * c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.rat == 0 and self.irr == 0

    def __str__(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        sign = "+" if self.irr >= 0 else "-"
        return "%s%s%s*alpha" % (self.rat, sign, abs(self.irr))


def parse_ext_scalar(text: str) -> ExtScalar:
    """Parse 'p', 'p+q*alpha' or 'p-q*alpha' with p, q integer or fraction.

    Decimal literals are rejected on purpose: exact fields must stay exact.
    """
    raw = text.strip()
    match = _EXT_RE.match(raw)
    if match is None:
        if re.search(r"\d\.\d|\.\d|\d\.", raw):
            raise ValueError(
                "decimal literal %r not allowed in an exact field; "
                "use an integer or a fraction like 3/10" % raw
            )
        raise ValueError(
            "cannot parse %r as an exact scalar "
            "(expected p or p+q*alpha with p, q rational)" % raw
        )
    rat = Fraction(match.group("rat"))
    irr = Fraction(0)
    if match.group("irr") is not None:
        irr = Fraction(match.group("irr"))
        if match.group("sign") == "-":
            irr = -irr
    return ExtScalar(rat, irr)


SparseRow = tuple[tuple[int, Fraction], ...]
SparseVector = Union[Mapping[int, Fraction], SparseRow]

_ZERO = Fraction(0)


def dense_row(
    entries: Iterable[tuple[int, Fraction]], width: int
) -> tuple[Fraction, ...]:
    """The dense tuple of a sparse row given as (column, value) pairs."""
    out = [_ZERO] * width
    for j, x in entries:
        out[j] = x
    return tuple(out)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable row-sparse matrix with Fraction entries.

    sparse_rows[i] lists the nonzero entries of row i as (column, value)
    pairs in increasing column order, so two matrices are equal iff
    their fields are.
    """

    rows: int
    cols: int
    sparse_rows: tuple[SparseRow, ...]

    @classmethod
    def from_sparse(
        cls, cols: int, rows: Sequence[Mapping[int, RationalLike]]
    ) -> "ExactMatrix":
        """Build from one {column: value} map per row; zeros are dropped."""
        data = []
        for row in rows:
            for j in row:
                if not 0 <= j < cols:
                    raise ValueError(
                        "column %d out of range for width %d" % (j, cols)
                    )
            data.append(tuple(
                (j, Fraction(row[j])) for j in sorted(row) if row[j] != 0
            ))
        return cls(len(data), cols, tuple(data))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Iterable[RationalLike]], cols: int | None = None
    ) -> "ExactMatrix":
        """Build from dense rows."""
        data = [tuple(Fraction(x) for x in r) for r in rows]
        if cols is None:
            if not data:
                raise ValueError("cannot infer width of a matrix with no rows")
            cols = len(data[0])
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows: %d != %d" % (len(r), cols))
        return cls(len(data), cols, tuple(
            tuple((j, x) for j, x in enumerate(r) if x != 0) for r in data
        ))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, ((),) * rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows, built on each access."""
        return tuple(dense_row(row, self.cols) for row in self.sparse_rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        right = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc: dict[int, Fraction] = {}
            for j, a in row:
                for col, b in right[j]:
                    acc[col] = acc.get(col, _ZERO) + a * b
            out.append(tuple(
                (col, acc[col]) for col in sorted(acc) if acc[col] != 0
            ))
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def columns(self) -> list[dict[int, Fraction]]:
        """Every column as a sparse {row: value} map."""
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                out[j][i] = x
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)


class EchelonBasis:
    """An echelon basis of sparse rows, grown one vector at a time.

    rows maps each pivot column to the row that owns it: a {column:
    value} map with value 1 at the pivot and nothing to its left.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def reduce(self, v: SparseVector) -> dict[int, Fraction]:
        """The residual of v (nonzero entries only, as a {column: value}
        map or (column, value) pairs) that vanishes on every pivot column.

        Pivot columns are cleared in increasing order; subtracting the
        row of pivot c only touches columns right of c, so a sorted list
        of the pivot columns present in the residual visits each in turn.
        """
        w = dict(v)
        pivots = self.rows
        pending = sorted(c for c in w if c in pivots)
        while pending:
            c = pending.pop(0)
            f = w.pop(c, None)
            if f is None:
                continue  # cancelled to zero after it was listed
            for j, x in pivots[c].items():
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
        return w

    def add(self, v: SparseVector) -> dict[int, Fraction] | None:
        """Absorb v: return its residual scaled to leading coefficient 1
        (now a row of the basis; do not mutate it), or None when v lies
        in the span."""
        w = self.reduce(v)
        if not w:
            return None
        lead = min(w)
        inv = w[lead]
        if inv != 1:
            w = {j: x / inv for j, x in w.items()}
        self.rows[lead] = w
        return w


def _echelon(mat: ExactMatrix) -> EchelonBasis:
    basis = EchelonBasis()
    for row in mat.sparse_rows:
        basis.add(row)
    return basis


def rank(m: ExactMatrix) -> int:
    """Exact rank: the number of rows an EchelonBasis absorbs."""
    return len(_echelon(m).rows)


def _reduced_rows(mat: ExactMatrix) -> dict[int, dict[int, Fraction]]:
    """The reduced row echelon rows of mat, sparse, keyed by pivot."""
    basis = _echelon(mat)
    # Back substitution from the last pivot up: a reduced row is zero on
    # every other pivot column, so subtracting it creates no new pivot
    # entries and one pass over each row's pivot entries suffices.
    reduced: dict[int, dict[int, Fraction]] = {}
    for p in sorted(basis.rows, reverse=True):
        row = basis.rows[p]
        for q in [j for j in row if j != p and j in reduced]:
            f = row.pop(q)
            for j, x in reduced[q].items():
                if j == q:
                    continue
                y = row.get(j, _ZERO) - f * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
        reduced[p] = row
    return reduced


def rref(m: ExactMatrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows (dense) and the pivot column indices, so
    the rank is the number of pivots.  The output is the canonical
    representative of the row span: two matrices have the same row span
    iff their rref rows agree.
    """
    reduced = _reduced_rows(m)
    pivots = tuple(sorted(reduced))
    return (
        tuple(dense_row(reduced[p].items(), m.cols) for p in pivots),
        pivots,
    )


def nullspace_basis(m: ExactMatrix) -> list[SparseRow]:
    """Deterministic exact kernel basis with one vector per free column.

    Each basis vector is a sparse row of (column, value) pairs in
    increasing column order.  It has a 1 in its free coordinate and
    zeros in the other free coordinates, so the list has exactly
    cols - rank members and m @ v = 0 holds exactly for each: one
    elimination gives both the kernel and the rank.  The vector of free
    column f holds -r[f] at the pivot of each reduced row r.
    """
    reduced = _reduced_rows(m)
    one = Fraction(1)
    by_free: dict[int, list[tuple[int, Fraction]]] = {
        f: [(f, one)] for f in range(m.cols) if f not in reduced
    }
    for p, row in reduced.items():
        for j, x in row.items():
            if j != p:
                by_free[j].append((p, -x))
    return [tuple(sorted(pairs)) for pairs in by_free.values()]
