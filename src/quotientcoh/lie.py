"""Finite-dimensional Lie algebras, quotients, and their cochain cohomology.

A Lie algebra is presented by its bracket matrix, the linear map
Lambda^2 g -> g as one sparse ExactMatrix: row p holds the coordinates
of [e_i, e_j] for the p-th pair i < j in the lexicographic order of
exterior.enumerate_basis(n, 2).  The differential on alternating forms
follows the convention

    (d a)(Y_0, ..., Y_k) = sum_{i<j} (-1)^(i+j) a([Y_i, Y_j], Y_0, ...,
                           ^Y_i, ..., ^Y_j, ..., Y_k),

so in degree one (d a)(X, Y) = -a([X, Y]): d_1 is minus the bracket
matrix, and d_2 d_1 = 0 is the Jacobi identity, which is how
jacobi_check tests it.  ce_differential also takes coefficients of
weight w, and a CochainComplex records the weight it was built with;
on abelian R^q that is the complex of a class of torus Fourier modes.
The d.d and Jacobi checks are zero tests that multiply row by row and
stop at the first nonzero row, building no product matrix.
Each differential is eliminated once, from the top degree down and on
the rows that d.d = 0 leaves independent of the others (see betti): its
kernel basis gives both its rank (the width minus the kernel size, from
which the Betti numbers follow) and the candidate cocycles.  The
representatives are the kernel vectors that lie outside the image of
the previous differential and the earlier kernel vectors, exactly one
per cohomology dimension, read off the image restricted to the free
columns of the differential; the report divides each by its lead.

A Subspace owns the coordinate splitting given by its echelon form:
its complement is the non-pivot coordinates and its scale the lcm of
its leads.  The quotient by an ideal h is the LieAlgebra on
h.complement whose bracket is the residual of the integer parent
bracket row after reduction by h, over the parent's denominator times
h.scale.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .errors import NotAnIdeal
# remove_pair and wedge_insert are unused here, but perfbench/tracer.py
# wraps lie.remove_pair and lie.wedge_insert by name
from .exterior import MultiIndex, enumerate_basis, remove_pair, wedge_insert
from .ratio import Ratio, as_ratio
from .record import record
from .scalars import (
    ExactMatrix,
    IntRow,
    RationalLike,
    SparseRow,
    kernel_survivors,
    lead_one,
    nullspace_basis,
    rank,  # unused here, but perfbench/tracer.py wraps lie.rank by name
    rref,
)

@record
class LieAlgebra:
    """A Lie algebra given by its bracket matrix Lambda^2 g -> g.

    Row p of table is [e_i, e_j] for the p-th pair i < j of
    enumerate_basis(dim, 2), so table has shape C(dim, 2) x dim and is
    minus the degree-one differential d_1.  Only pairs i < j are stored,
    so antisymmetry holds by construction; the Jacobi identity is
    checked separately by jacobi_check so deliberately broken tables can
    still be built and examined.
    """

    dim: int
    table: ExactMatrix

    def __post_init__(self):
        n = self.dim
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if (self.table.rows, self.table.cols) != (comb(n, 2), n):
            raise ValueError(
                "bracket matrix must be %d x %d" % (comb(n, 2), n)
            )

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int, int], RationalLike],
    ) -> "LieAlgebra":
        """Build from sparse entries {(i, j, k): c_ij^k}.

        Values may be ints, Fractions or Ratios.  An entry with i > j is
        stored as c_ji^k = -c_ij^k; giving both sides is allowed only
        when they are consistent.
        """
        pairs: dict[tuple[int, int, int], Ratio] = {}
        for (i, j, k), raw in brackets.items():
            v = as_ratio(raw)
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(
                        "bracket index %d out of range for dim %d" % (idx, dim)
                    )
            if i == j:
                if v[0]:
                    raise ValueError(
                        "antisymmetry forces [e_%d, e_%d] = 0" % (i, i)
                    )
                continue
            key, val = ((i, j, k), v) if i < j else ((j, i, k), (-v[0], v[1]))
            if pairs.setdefault(key, val) != val:
                raise ValueError(
                    "conflicting values for c[%d][%d][%d]" % (i, j, k)
                )
        row_of = {pair: p for p, pair in enumerate(enumerate_basis(dim, 2))}
        rows: list[dict[int, Ratio]] = [{} for _ in row_of]
        for (i, j, k), v in pairs.items():
            rows[row_of[i, j]][k] = v
        return cls(dim, ExactMatrix.from_sparse(dim, rows))


def _cleared_brackets(
    g: LieAlgebra, weight: Sequence[RationalLike]
) -> tuple[int, dict[tuple[int, int], IntRow], list[int]]:
    """(D, brackets, w): the least common denominator D of the bracket
    matrix and the weight, {(i, j): D [e_i, e_j] as (k, int) pairs} for
    every i < j, and D times the weight."""
    table = g.table
    weight = [as_ratio(x) for x in weight]
    den = lcm(table.den, *(d for _, d in weight))
    scale = den // table.den
    rows = [tuple((k, c * scale) for k, c in row) for row in table.int_rows]
    return den, dict(zip(enumerate_basis(g.dim, 2), rows)), [
        n * (den // d) for n, d in weight]


def abelian(n: int) -> LieAlgebra:
    """The abelian Lie algebra R^n (all brackets zero)."""
    return LieAlgebra(n, ExactMatrix.zero(comb(n, 2), n))


def heisenberg() -> LieAlgebra:
    """The 3-dimensional algebra with [e_0, e_1] = e_2 and center e_2."""
    return LieAlgebra.from_brackets(3, {(0, 1, 2): 1})


def sl2() -> LieAlgebra:
    """sl(2) in the basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra.from_brackets(
        3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
    )


def jacobi_check(
    g: LieAlgebra,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact Jacobi test, read off d_2 d_1.

    Row (i, j, k), column m of d_2 d_1 is (d d e^m)(e_i, e_j, e_k), the
    e_m coordinate of the cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
    + [[e_k, e_i], e_j].  Rows follow the lexicographic order of the
    triples i < j < k, so the first nonzero row names the first failing
    triple; the product is tested row by row and never built.  Returns
    (True, None), or (False, (i, j, k)) with that triple.
    """
    row = ce_differential(g, 2).first_nonzero_product_row(
        ce_differential(g, 1))
    if row is None:
        return True, None
    return False, enumerate_basis(g.dim, 3)[row]


@record
class Subspace:
    """A linear subspace stored as the reduced echelon basis of its span.

    The rows are `rref`'s primitive integer rows, as (column, int)
    pairs: content 1, a positive lead, and zero at every other row's
    pivot.  They are a canonical representative: two spanning sets give
    equal Subspace objects iff they span the same subspace.
    """

    ambient_dim: int
    basis: tuple[IntRow, ...]

    def __post_init__(self):
        # each row as sorted (column, value) pairs, zeros dropped
        basis = tuple(tuple((j, x) for j, x in sorted(dict(row).items()) if x)
                      for row in self.basis)
        object.__setattr__(self, "basis", basis)
        # reduce() reads the pivots off the leads: accept only rref's form
        leads = [row[0][0] if row else -1 for row in basis]
        if any(b <= a for a, b in zip([-1] + leads, leads)):
            raise ValueError("subspace rows need strictly increasing leads")
        if any(row[0][1] < 1 for row in basis):
            raise ValueError("subspace rows need a positive lead")
        if any(gcd(*(x for _, x in row)) != 1 for row in basis):
            raise ValueError("subspace rows need content 1")
        pivots = set(leads)
        if any(j in pivots for row in basis for j, _ in row[1:]):
            raise ValueError("a subspace row is nonzero at another row's pivot")

    @classmethod
    def span(
        cls, ambient_dim: int, vectors: Sequence[Sequence[RationalLike]]
    ) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    "vector length %d != ambient dim %d" % (len(v), ambient_dim)
                )
        reduced = rref(ExactMatrix.from_rows(vectors, cols=ambient_dim))
        return cls(ambient_dim, tuple(reduced.values()))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.basis)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        """The non-pivot coordinates, ascending: the coordinates of the
        quotient by this subspace."""
        pivots = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    @cached_property
    def scale(self) -> int:
        """L, the lcm of the leads of the rows (1 for the zero subspace)."""
        return lcm(*(row[0][1] for row in self.basis))

    def reduce(self, v: Mapping[int, int] | IntRow) -> dict[int, int]:
        """L times the residual of the integer vector v (a {column:
        value} map or (column, value) pairs) along the pivots, with L =
        self.scale: L v - sum_p v[p] (L / a_p) r_p for a_p the lead of
        r_p, as its nonzero entries.  One pass suffices because each row
        r_p vanishes on the other pivots.  Empty iff v is in the subspace.
        """
        scale = self.scale
        w = {j: scale * x for j, x in dict(v).items()}
        for row in self.basis:
            p, a = row[0]
            f = w.get(p)
            if f:
                f //= a
                for j, x in row:
                    w[j] = w.get(j, 0) - f * x
        return {j: x for j, x in w.items() if x}


def _ideal_failure(g: LieAlgebra, h: Subspace) -> tuple[int, int] | None:
    """The first (i, bi) with [e_i, h.basis[bi]] outside h, or None.

    The brackets are one integer sparse product: the rows
    e_i ^ h.basis[bi], in the pair basis of Lambda^2 g, times the
    bracket matrix.
    """
    if h.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    pair_row = {pair: p for p, pair in enumerate(enumerate_basis(g.dim, 2))}
    wedges = [
        {pair_row[min(i, j), max(i, j)]: x if i < j else -x
         for j, x in b if j != i}
        for i in range(g.dim) for b in h.basis
    ]
    brackets = ExactMatrix.from_int_rows(g.table.rows, 1, wedges) @ g.table
    for r, row in enumerate(brackets.int_rows):
        if h.reduce(row):
            return divmod(r, h.dim)
    return None


def ideal_check(g: LieAlgebra, h: Subspace) -> bool:
    """True iff [g, h] lies in h, tested on basis vectors exactly."""
    return _ideal_failure(g, h) is None


def quotient(g: LieAlgebra, h: Subspace) -> LieAlgebra:
    """g/h on the coordinates h.complement, raising NotAnIdeal when h is
    not bracket-closed.

    Basis vector p of the quotient is e_c for c = h.complement[p].  The
    induced bracket of two complement coordinates is the sparse residual
    of their parent bracket row after reduction by h, which vanishes on
    every pivot of h.  `Subspace.reduce` returns it times h.scale from
    integer rows over the table's denominator, so the induced table is
    those rows over den * h.scale.
    """
    failure = _ideal_failure(g, h)
    if failure is not None:
        raise NotAnIdeal(*failure)
    position = {c: p for p, c in enumerate(h.complement)}
    # parent pairs of complement coordinates come in the lexicographic
    # order of their positions, since complement is increasing
    rows = []
    for (a, b), row in zip(enumerate_basis(g.dim, 2), g.table.int_rows):
        if a in position and b in position:
            rows.append({position[k]: x for k, x in h.reduce(row).items()})
    return LieAlgebra(len(position), ExactMatrix.from_int_rows(
        len(position), g.table.den * h.scale, rows))


@record
class CochainComplex:
    """The alternating-forms complex of an n-dimensional algebra.

    n is algebra.dim, read as the property dim.  d[k] is the matrix of
    the degree-k differential with respect to the lexicographic monomial
    bases, shape C(n, k+1) x C(n, k); the tuple has length n since the
    top differential is zero.  d[k] is ce_differential(algebra, k,
    weight), with trivial coefficients when weight is empty; a torus
    mode class has a nonzero weight on R^q.
    """

    d: tuple[ExactMatrix, ...]
    algebra: LieAlgebra
    weight: tuple[RationalLike, ...] = ()

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def d_squared_violation(self) -> int | None:
        """First degree k with d_{k+1} d_k != 0, or None; each product
        is tested row by row and never built."""
        d = self.d
        for k in range(len(d) - 1):
            if d[k + 1].first_nonzero_product_row(d[k]) is not None:
                return k
        return None

    def d_squared_is_zero(self) -> bool:
        return self.d_squared_violation() is None


def ce_differential(
    g: LieAlgebra, k: int, weight: Sequence[RationalLike] = ()
) -> ExactMatrix:
    """Degree-k Chevalley-Eilenberg differential of g, shape C(n, k+1) x
    C(n, k), with coefficients in the character of the given weight
    (trivial when empty).  For J = (J_0 < ... < J_k), entry (J, I) is

        sum_s (-1)^s w[J_s] [I = J - J_s]
        + sum_{s<t} (-1)^(s+t) sum_u c_{J_s J_t}^u eps(u, J - {J_s, J_t} -> I)

    with eps the sign of wedge_insert (0 when u repeats an index); d^2 = 0
    iff w vanishes on [g, g].  On abelian R^q only the first sum is left:
    left wedge with w, the complex of one torus Fourier mode of weight w.
    Only index pairs with a nonzero bracket row are visited; entries are
    summed as the integers _cleared_brackets gives.  A term is placed by
    one bisection of rest, the rule of wedge_insert without its input
    check: rest is a sub-tuple of the increasing J, so it is increasing.
    """
    n = g.dim
    if weight and len(weight) != n:
        raise ValueError("weight length %d != dim %d" % (len(weight), n))
    den, brackets, w = _cleared_brackets(g, weight)
    w = w or [0] * n
    partners: dict[int, dict[int, IntRow]] = {}
    for (i, j), bracket in brackets.items():
        if bracket:
            partners.setdefault(i, {})[j] = bracket
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
    rows = []
    for jmono in enumerate_basis(n, k + 1):
        # the faces J - J_s are distinct columns: no sums in the first term
        row = {col_index[jmono[:s] + jmono[s + 1:]]: -w[i] if s % 2 else w[i]
               for s, i in enumerate(jmono) if w[i]}
        for s, i in enumerate(jmono):
            with_i = partners.get(i)
            if with_i is None:
                continue
            for t in range(s + 1, k + 1):
                bracket = with_i.get(jmono[t])
                if bracket is None:
                    continue
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                sign = -1 if (s + t) % 2 else 1
                for u, c in bracket:
                    pos = bisect_left(rest, u)
                    if pos < k - 1 and rest[pos] == u:
                        continue
                    col = col_index[rest[:pos] + (u,) + rest[pos:]]
                    value = -sign * c if pos % 2 else sign * c
                    row[col] = row.get(col, 0) + value
        rows.append(row)
    return ExactMatrix.from_int_rows(len(col_index), den, rows)


def ce_complex(g: LieAlgebra) -> CochainComplex:
    """Build every differential matrix of the cochain complex of g."""
    return CochainComplex(tuple(ce_differential(g, k) for k in range(g.dim)), g)


@record
class BettiReport:
    """Cohomology of one cochain complex with audit data.

    betti[k] = C(n, k) - rank d_k - rank d_{k-1}, with each rank read
    off the one elimination of d_k that also gave its kernel;
    generators[k] holds the representative cocycles, the kernel vectors
    of d_k that survive the image of d_{k-1} (see betti), as sparse
    rows of (column, Ratio) pairs over monomials[k], in increasing
    column order, each divided by its leading coefficient.
    """

    dim: int
    betti: tuple[int, ...]
    ranks: tuple[int, ...]
    generators: tuple[tuple[SparseRow, ...], ...]
    monomials: tuple[tuple[MultiIndex, ...], ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def betti_numbers(n: int, ranks: Sequence[int]) -> tuple[int, ...]:
    """C(n, k) - rank d_k - rank d_{k-1} for k = 0..n, where ranks lists
    the n differentials of a complex of exterior powers of R^n."""
    return tuple(
        comb(n, k) - (ranks[k] if k < n else 0) - (ranks[k - 1] if k else 0)
        for k in range(n + 1)
    )


def betti(c: CochainComplex, *, checked: bool = False) -> BettiReport:
    """Betti numbers and representative cocycles, one elimination per d_k.

    The kernel basis of d_k has C(n, k) - rank d_k members, so a single
    nullspace_basis call per degree yields both the rank and the
    candidate cocycles.  The kernels are computed from the top degree
    down, and d_k is eliminated on the rows at the free columns of
    d_{k+1} alone, the last entries of its kernel vectors (clearing, as
    in Chen and Kerber's persistent homology "with a twist").  Since
    d_{k+1} d_k = 0, every column of d_k lies in the kernel of d_{k+1},
    and a kernel vector is fixed by its free-column entries: its entry
    at a pivot p of d_{k+1} is the same combination of them for every
    column.  So the row of d_k at p is that combination of the rows at
    the free columns, the row space is unchanged, and rref and the
    kernel of the rows kept are exactly those of the full d_k.  Of those
    rows, rank d_k are independent and betti[k+1] reduce to zero.

    The representatives in degree k are the kernel vectors v_f of d_k
    that lie outside the span of the image of d_{k-1} and of the v_f'
    with f' < f, each divided by its lead.  Exactly betti[k] of them do,
    and they are independent modulo coboundaries.  kernel_survivors
    picks them from the pivot columns of d_{k-1}, which span its image,
    restricted to the free columns of d_k; a degree with betti[k] = 0
    looks at nothing.

    A non-complex raises ValueError before any kernel is computed, since
    clearing rests on d.d = 0.  checked=True says the caller has already
    found d_squared_violation() to be None, and skips the products that
    test it.
    """
    violation = None if checked else c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    n = c.dim
    kernels = [[((0, 1),)]]  # the top form; d_n = 0
    for dk in reversed(c.d):
        rows = tuple([dk.int_rows[v[-1][0]] for v in kernels[-1]])
        # the integer rows read over 1: a scaled matrix has the same kernel
        kernels.append(nullspace_basis(ExactMatrix(len(rows), dk.cols, 1,
                                                   rows)))
    kernels.reverse()
    ranks = tuple([comb(n, k) - len(kernel) for k, kernel in
                   enumerate(kernels[:n])])
    numbers = betti_numbers(n, ranks)
    gens_out = []
    for k, kernel in enumerate(kernels):
        survivors = kernel if numbers[k] else ()
        if survivors and k and ranks[k - 1]:
            # the pivot columns of d_{k-1} span its image: those that are
            # no kernel vector's free column, which is its last entry;
            # read on the rows at the free columns of d_k
            image = {p: {} for p in range(comb(n, k - 1))}
            for v in kernels[k - 1]:
                del image[v[-1][0]]
            for v in kernel:
                f = v[-1][0]
                for j, x in c.d[k - 1].int_rows[f]:
                    if j in image:
                        image[j][f] = x
            survivors = kernel_survivors(kernel, image.values())
        gens_out.append(tuple([lead_one(v) for v in survivors]))
    return BettiReport(
        n, numbers, ranks, tuple(gens_out),
        tuple(tuple(enumerate_basis(n, k)) for k in range(n + 1)),
    )


def _permutation_sign(seq: Sequence[int]) -> int:
    """(-1) to the number of inversions of seq."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _evaluation_differential(
    g: LieAlgebra, k: int, weight: Sequence[RationalLike]
) -> ExactMatrix:
    """d_k rebuilt from the evaluation formula alone.

    Entry (J, I) is (d e^I)(e_J0, ..., e_Jk) = sum over s of (-1)^s
    w[J_s] e^I(e_{J - J_s}) plus the sum over s < t and u of
    (-1)^(s+t) c_{J_s J_t}^u e^I(e_u, e_rest), where rest is J without
    J_s and J_t, and e^I(e_u, e_rest) is the sign of the permutation that
    sorts (u, rest) into I, or 0 when (u, rest) does not list I.  The
    first sum is the action of e_{J_s} on the coefficients, absent when
    weight is empty.  Entries are summed as _cleared_brackets gives them.
    """
    den, brackets, w = _cleared_brackets(g, weight)
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(g.dim, k))}
    # (u, rest) -> (column or None, permutation sign), for this call only
    placed: dict[MultiIndex, tuple[int | None, int]] = {}
    rows = []
    for jmono in enumerate_basis(g.dim, k + 1):
        row: dict[int, int] = {}
        for s in range(k + 1):
            if weight:
                col = col_index[jmono[:s] + jmono[s + 1:]]
                row[col] = row.get(col, 0) + (-1) ** s * w[jmono[s]]
            for t in range(s + 1, k + 1):
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                for u, c in brackets[jmono[s], jmono[t]]:
                    args = (u,) + rest
                    if args not in placed:
                        placed[args] = (col_index.get(tuple(sorted(args))),
                                        _permutation_sign(args))
                    col, sign = placed[args]
                    if col is None:
                        continue  # u repeats an index of rest
                    value = (-1) ** (s + t) * sign * c
                    row[col] = row.get(col, 0) + value
        rows.append(row)
    return ExactMatrix.from_int_rows(len(col_index), den, rows)


def phi_sign_check(c: CochainComplex) -> bool:
    """Certify the signs of c against the evaluation formula.

    Each D_k is rebuilt from c.algebra and c.weight by
    _evaluation_differential, which reads the same bracket matrix and
    weight but shares none of ce_differential's sign code (no
    wedge_insert).  With the degreewise
    twist S_k = (-1)^k I, the certificate is the identity S_{k+1} (-D_k)
    = d_k S_k, which matches evaluation on basis vectors against the
    algebraic differential.  Both sides are (-1)^k times D_k and d_k, so
    the identity holds iff D_k = d_k: the two matrices are compared in
    their normal forms, and the check fails as soon as one entry of one
    d_k differs from the formula.
    """
    g = c.algebra
    if len(c.d) != g.dim or len(c.weight) not in (0, g.dim):
        return False
    for k, dk in enumerate(c.d):
        if (dk.rows, dk.cols) != (comb(g.dim, k + 1), comb(g.dim, k)):
            return False
        if _evaluation_differential(g, k, c.weight) != dk:
            return False
    return True
