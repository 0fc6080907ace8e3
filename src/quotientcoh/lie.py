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
Each differential is eliminated once: its kernel basis gives both its rank
(the width minus the kernel size, from which the Betti numbers follow)
and the candidate cocycles.  Representatives are those integer kernel
vectors reduced against the image of the previous differential, which
leaves exactly one representative per cohomology dimension; only the
report's copies are divided by their lead.

A Subspace owns the coordinate splitting given by its echelon form:
its complement is the non-pivot coordinates and its scale the lcm of
its leads.  The quotient by an ideal h is the LieAlgebra on
h.complement whose bracket is the residual of the integer parent
bracket row after reduction by h, over the parent's denominator times
h.scale.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .errors import NotAnIdeal
# remove_pair is unused here, but perfbench/tracer.py wraps lie.remove_pair by name
from .exterior import MultiIndex, enumerate_basis, remove_pair, wedge_insert
from .ratio import Ratio, as_ratio
from .record import record
from .scalars import (
    EchelonBasis,
    ExactMatrix,
    IntRow,
    RationalLike,
    SparseRow,
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
    return LieAlgebra.from_brackets(n, {})


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
    triple.  Returns (True, None), or (False, (i, j, k)) with that
    triple.
    """
    product = ce_differential(g, 2) @ ce_differential(g, 1)
    for triple, row in zip(enumerate_basis(g.dim, 3), product.int_rows):
        if row:
            return False, triple
    return True, None


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
        """First degree k with d_{k+1} d_k != 0, or None."""
        d = self.d
        for k in range(len(d) - 1):
            if not (d[k + 1] @ d[k]).is_zero():
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
    summed as the integers _cleared_brackets gives.
    """
    n = g.dim
    if weight and len(weight) != n:
        raise ValueError("weight length %d != dim %d" % (len(weight), n))
    den, brackets, w = _cleared_brackets(g, weight)
    partners: dict[int, dict[int, IntRow]] = {}
    for (i, j), bracket in brackets.items():
        if bracket:
            partners.setdefault(i, {})[j] = bracket
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
    rows = []
    for jmono in enumerate_basis(n, k + 1):
        row: dict[int, int] = {}
        for s, i in enumerate(jmono):
            if weight and w[i]:
                col = col_index[jmono[:s] + jmono[s + 1:]]
                row[col] = row.get(col, 0) + (-w[i] if s % 2 else w[i])
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
                    inserted = wedge_insert(u, rest)
                    if inserted is None:
                        continue
                    sign_w, imono = inserted
                    col = col_index[imono]
                    row[col] = row.get(col, 0) + sign * sign_w * c
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
    generators[k] holds the chosen representative cocycles as sparse
    rows of (column, Ratio) pairs over monomials[k], in increasing
    column order, each normalized to leading coefficient 1.
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
    candidate cocycles.  Representatives in degree k are those sparse
    kernel vectors reduced against the image of d_{k-1}, spanned by its
    rank-many pivot columns, plus the representatives already chosen;
    exactly betti[k] of them survive.

    A non-complex raises ValueError.  checked=True says the caller has
    already found d_squared_violation() to be None, and skips the
    products that test it.
    """
    violation = None if checked else c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    n = c.dim
    ranks = []
    gens_out = []
    monos_out = []
    kernel: list[IntRow] = []
    for k in range(n + 1):
        acc = EchelonBasis()
        if k:
            # the pivot columns of d_{k-1} span its image: those that are
            # no kernel vector's free column, which is its last entry
            image = {p: {} for p in range(c.d[k - 1].cols)}
            for v in kernel:
                del image[v[-1][0]]
            for i, row in enumerate(c.d[k - 1].int_rows):
                for j, x in row:
                    if j in image:
                        image[j][i] = x
            for column in image.values():
                acc.add(column)
        if k < n:
            kernel = nullspace_basis(c.d[k])
            ranks.append(comb(n, k) - len(kernel))
        else:
            kernel = [((0, 1),)]  # the top form; d_n = 0
        chosen = []
        for v in kernel:
            residual = acc.add(v)
            if residual is not None:
                chosen.append(lead_one(residual))
        gens_out.append(tuple(chosen))
        monos_out.append(tuple(enumerate_basis(n, k)))
    return BettiReport(
        n, betti_numbers(n, ranks), tuple(ranks), tuple(gens_out),
        tuple(monos_out),
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
                    col = col_index.get(tuple(sorted(args)))
                    if col is None:
                        continue  # u repeats an index of rest
                    value = (-1) ** (s + t) * _permutation_sign(args) * c
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
