"""Row-sparse exact matrices: integer rows over one denominator.

The arithmetic runs on Python ints, which avoids the gcd that every
Fraction operation pays to normalise its result: `ExactMatrix` stores
integer rows over one positive denominator.  Inputs may be ints,
Fractions or Ratios (`as_ratio` reads all three), and a `Fraction` is
built only by the dense `entries` view, which imports it when read.

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
"""

from __future__ import annotations

from math import gcd, lcm

from .ratio import Ratio, as_ratio
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, Mapping, Sequence

    # an int, a Fraction (read through its numerator and denominator) or
    # a Ratio
    RationalLike = int | Fraction | Ratio

SparseRow = tuple[tuple[int, Ratio], ...]
IntRow = tuple[tuple[int, int], ...]


@record
class ExactMatrix:
    """Immutable row-sparse rational matrix: integer rows over one denominator.

    int_rows[i] lists the nonzero entries of row i, times den, as
    (column, int) pairs in strictly increasing column order within
    [0, cols); the row count is len(int_rows).  den is positive and has
    no common factor with all the numerators, so two matrices are equal
    iff their fields are.  The constructor refuses any other row and
    divides out a common factor of den.
    """

    cols: int
    den: int
    int_rows: tuple[IntRow, ...]

    def __post_init__(self):
        cols, den = self.cols, self.den
        if cols < 0:
            raise ValueError("width must be nonnegative, got %d" % cols)
        if den < 1:
            raise ValueError("denominator must be positive, got %d" % den)
        for row in self.int_rows:
            last = -1
            for j, x in row:
                if not (last < j < cols and x):
                    raise ValueError(
                        "row %d entry (%d, %d) is off the normal form: "
                        "nonzeros at increasing columns in [0, %d)"
                        % (self.int_rows.index(row), j, x, cols))
                last = j
        if den > 1:
            den = gcd(den, *[x for row in self.int_rows for _, x in row])
        if den > 1:  # also reached by a zero matrix over den > 1
            object.__setattr__(self, "den", self.den // den)
            object.__setattr__(self, "int_rows", tuple(
                tuple((j, x // den) for j, x in row) for row in self.int_rows
            ))

    @property
    def rows(self) -> int:
        return len(self.int_rows)

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
        return cls(cols, den, tuple(out))

    @classmethod
    def from_sparse(cls, cols: int, rows: Sequence[Mapping[int, RationalLike]]
                    ) -> "ExactMatrix":
        """Build from one {column: value} map per row, with int,
        Fraction or Ratio values cleared by their least common
        denominator."""
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
        return cls(cols, 1, ((),) * rows)

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
