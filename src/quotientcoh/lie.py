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
weight w, which on abelian R^q give one torus Fourier mode.  Each
differential is eliminated once: its kernel basis gives both its rank
(the width minus the kernel size, from which the Betti numbers follow)
and the candidate cocycles.  Representatives are those kernel vectors
reduced against the image of the previous differential, which leaves
exactly one representative per cohomology dimension; they stay sparse
(column, value) rows.

Quotients by an ideal h use the coordinate splitting given by the
echelon form of h: the non-pivot coordinates form a complement, and the
induced bracket is the residual of the parent bracket after reduction
by h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .errors import NotAnIdeal
# remove_pair is unused here, but perfbench/tracer.py wraps lie.remove_pair by name
from .exterior import MultiIndex, enumerate_basis, remove_pair, wedge_insert
from .scalars import (
    EchelonBasis,
    ExactMatrix,
    RationalLike,
    SparseRow,
    dense_row,
    lead_one,
    nullspace_basis,
    rank,  # unused here, but perfbench/tracer.py wraps lie.rank by name
    rref,
)

@dataclass(frozen=True)
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

        An entry with i > j is stored as c_ji^k = -c_ij^k; giving both
        sides is allowed only when they are consistent.
        """
        pairs: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), raw in brackets.items():
            v = Fraction(raw)
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(
                        "bracket index %d out of range for dim %d" % (idx, dim)
                    )
            if i == j:
                if v != 0:
                    raise ValueError(
                        "antisymmetry forces [e_%d, e_%d] = 0" % (i, i)
                    )
                continue
            key, val = ((i, j, k), v) if i < j else ((j, i, k), -v)
            if pairs.setdefault(key, val) != val:
                raise ValueError(
                    "conflicting values for c[%d][%d][%d]" % (i, j, k)
                )
        row_of = {pair: p for p, pair in enumerate(enumerate_basis(dim, 2))}
        rows: list[dict[int, Fraction]] = [{} for _ in row_of]
        for (i, j, k), v in pairs.items():
            rows[row_of[i, j]][k] = v
        return cls(dim, ExactMatrix.from_sparse(dim, rows))

    def bracket(
        self, x: Sequence[RationalLike], y: Sequence[RationalLike]
    ) -> tuple[Fraction, ...]:
        """Bilinear extension of the bracket matrix."""
        x = [Fraction(t) for t in x]
        y = [Fraction(t) for t in y]
        out = [Fraction(0)] * self.dim
        for (i, j), row in _pair_rows(self).items():
            if not row:
                continue
            coeff = x[i] * y[j] - x[j] * y[i]
            if coeff != 0:
                for k, c in row:
                    out[k] += coeff * c
        return tuple(out)


def _pair_rows(g: LieAlgebra) -> dict[tuple[int, int], SparseRow]:
    """{(i, j): [e_i, e_j] as sparse (k, c_ij^k) pairs} for every i < j."""
    return dict(zip(enumerate_basis(g.dim, 2), g.table.sparse_rows))


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
    for triple, row in zip(enumerate_basis(g.dim, 3), product.sparse_rows):
        if row:
            return False, triple
    return True, None


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored as the echelon basis of its span.

    The reduced row echelon rows are a canonical representative: two
    spanning sets give equal Subspace objects iff they span the same
    subspace.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]

    @classmethod
    def span(
        cls, ambient_dim: int, vectors: Sequence[Sequence[RationalLike]]
    ) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    "vector length %d != ambient dim %d" % (len(v), ambient_dim)
                )
        if not vectors:
            return cls(ambient_dim, (), ())
        rows, pivots = rref(ExactMatrix.from_rows(vectors, cols=ambient_dim))
        return cls(ambient_dim, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Residual of v after subtracting its projection along the pivots."""
        w = [Fraction(x) for x in v]
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f != 0:
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence[RationalLike]) -> bool:
        return all(x == 0 for x in self.reduce(v))


def _ideal_failure(g: LieAlgebra, h: Subspace) -> tuple[int, int] | None:
    """The first (i, bi) with [e_i, h.basis[bi]] outside h, or None."""
    if h.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    for i in range(g.dim):
        e_i = tuple(Fraction(int(t == i)) for t in range(g.dim))
        for bi, b in enumerate(h.basis):
            if not h.contains(g.bracket(e_i, b)):
                return i, bi
    return None


def ideal_check(g: LieAlgebra, h: Subspace) -> bool:
    """True iff [g, h] lies in h, tested on basis vectors exactly."""
    return _ideal_failure(g, h) is None


@dataclass(frozen=True)
class QuotientAlgebra:
    """g/h with the complement of h given by non-pivot coordinates.

    ``complement`` lists the ambient coordinates that survive as the
    quotient basis, in increasing order; ``algebra`` is the induced
    bracket matrix on those coordinates.
    """

    parent: LieAlgebra
    ideal: Subspace
    complement: tuple[int, ...]
    algebra: LieAlgebra


def quotient(g: LieAlgebra, h: Subspace) -> QuotientAlgebra:
    """Form g/h, raising NotAnIdeal when h is not bracket-closed."""
    failure = _ideal_failure(g, h)
    if failure is not None:
        raise NotAnIdeal(*failure)
    complement = tuple(c for c in range(g.dim) if c not in set(h.pivots))
    position = {c: p for p, c in enumerate(complement)}
    # parent pairs of complement coordinates come in the lexicographic
    # order of their positions, since complement is increasing
    rows = []
    for (a, b), row in _pair_rows(g).items():
        if a in position and b in position:
            residual = h.reduce(dense_row(row, g.dim))
            rows.append({position[k]: residual[k] for k in complement})
    induced = LieAlgebra(
        len(complement), ExactMatrix.from_sparse(len(complement), rows)
    )
    return QuotientAlgebra(g, h, complement, induced)


def first_d_squared_violation(d: Sequence[ExactMatrix]) -> int | None:
    """First degree k with d[k+1] @ d[k] != 0, or None."""
    for k in range(len(d) - 1):
        if not (d[k + 1] @ d[k]).is_zero():
            return k
    return None


@dataclass(frozen=True)
class CochainComplex:
    """The alternating-forms complex of an n-dimensional algebra.

    d[k] is the matrix of the degree-k differential with respect to the
    lexicographic monomial bases, shape C(n, k+1) x C(n, k); the tuple
    has length n since the top differential is zero.  algebra is the
    Lie algebra the differentials were built from.
    """

    dim: int
    d: tuple[ExactMatrix, ...]
    algebra: LieAlgebra

    def d_squared_violation(self) -> int | None:
        """First degree k with d_{k+1} d_k != 0, or None."""
        return first_d_squared_violation(self.d)

    def d_squared_is_zero(self) -> bool:
        return self.d_squared_violation() is None


AlgebraLike = Union[LieAlgebra, QuotientAlgebra]


def _algebra_of(x: AlgebraLike) -> LieAlgebra:
    return x.algebra if isinstance(x, QuotientAlgebra) else x


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
    Only index pairs with a nonzero bracket row are visited.
    """
    n = g.dim
    if weight and len(weight) != n:
        raise ValueError("weight length %d != dim %d" % (len(weight), n))
    partners: dict[int, dict[int, SparseRow]] = {}
    for (i, j), bracket in _pair_rows(g).items():
        if bracket:
            partners.setdefault(i, {})[j] = bracket
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
    rows = []
    for jmono in enumerate_basis(n, k + 1):
        row: dict[int, Fraction] = {}
        for s, i in enumerate(jmono):
            if weight and weight[i]:
                col = col_index[jmono[:s] + jmono[s + 1:]]
                row[col] = row.get(col, 0) + (-1) ** s * weight[i]
            with_i = partners.get(i)
            if with_i is None:
                continue
            for t in range(s + 1, k + 1):
                bracket = with_i.get(jmono[t])
                if bracket is None:
                    continue
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                for u, c in bracket:
                    inserted = wedge_insert(u, rest)
                    if inserted is None:
                        continue
                    sign_w, imono = inserted
                    col = col_index[imono]
                    row[col] = row.get(col, 0) + (-1) ** (s + t) * sign_w * c
        rows.append(row)
    return ExactMatrix.from_sparse(len(col_index), rows)


def ce_complex(x: AlgebraLike) -> CochainComplex:
    """Build every differential matrix of the cochain complex of x."""
    g = _algebra_of(x)
    return CochainComplex(
        g.dim, tuple(ce_differential(g, k) for k in range(g.dim)), g
    )


@dataclass(frozen=True)
class BettiReport:
    """Cohomology of one cochain complex with audit data.

    betti[k] = C(n, k) - rank d_k - rank d_{k-1}, with each rank read
    off the one elimination of d_k that also gave its kernel;
    generators[k] holds the chosen representative cocycles as sparse
    rows of (column, value) pairs over monomials[k], in increasing
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


def betti(c: CochainComplex) -> BettiReport:
    """Betti numbers and representative cocycles, one elimination per d_k.

    The kernel basis of d_k has C(n, k) - rank d_k members, so a single
    nullspace_basis call per degree yields both the rank and the
    candidate cocycles.  Representatives in degree k are those sparse
    kernel vectors reduced against the span of the columns of d_{k-1}
    plus the representatives already chosen; exactly betti[k] of them
    survive.
    """
    violation = c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    n = c.dim
    ranks = []
    gens_out = []
    monos_out = []
    for k in range(n + 1):
        if k < n:
            kernel = nullspace_basis(c.d[k])
            ranks.append(comb(n, k) - len(kernel))
        else:
            kernel = [((0, Fraction(1)),)]  # the top form; d_n = 0
        acc = EchelonBasis()
        if k >= 1:
            for column in c.d[k - 1].columns():
                acc.add(column)
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
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


def _evaluation_differential(
    g: LieAlgebra, k: int
) -> list[dict[int, Fraction]]:
    """The rows of d_k rebuilt from the evaluation formula alone.

    Entry (J, I) is (d e^I)(e_J0, ..., e_Jk) = sum over s < t and u of
    (-1)^(s+t) c_{J_s J_t}^u e^I(e_u, e_rest), where rest is J without
    J_s and J_t, and e^I(e_u, e_rest) is the sign of the permutation that
    sorts (u, rest) into I, or 0 when (u, rest) does not list I.
    """
    brackets = _pair_rows(g)
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(g.dim, k))}
    rows = []
    for jmono in enumerate_basis(g.dim, k + 1):
        row: dict[int, Fraction] = {}
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                for u, c in brackets[jmono[s], jmono[t]]:
                    args = (u,) + rest
                    col = col_index.get(tuple(sorted(args)))
                    if col is None:
                        continue  # u repeats an index of rest
                    value = (-1) ** (s + t) * _permutation_sign(args) * c
                    row[col] = row.get(col, 0) + value
        rows.append({j: x for j, x in row.items() if x != 0})
    return rows


def phi_sign_check(c: CochainComplex) -> bool:
    """Certify the signs of c against the evaluation formula.

    Each D_k is rebuilt from c.algebra by _evaluation_differential,
    which reads the same bracket matrix but shares none of
    ce_differential's sign code (no wedge_insert).  With the degreewise
    twist S_k = (-1)^k I, the certificate is the identity S_{k+1} (-D_k)
    = d_k S_k, which matches evaluation on basis vectors against the
    algebraic differential; it is checked entrywise on sparse rows and
    fails as soon as one entry of one d_k differs from the formula.
    """
    g = c.algebra
    if len(c.d) != g.dim:
        return False
    for k, dk in enumerate(c.d):
        if (dk.rows, dk.cols) != (comb(g.dim, k + 1), comb(g.dim, k)):
            return False
        twist_k, twist_k1 = (-1) ** k, (-1) ** (k + 1)
        for built, row in zip(_evaluation_differential(g, k), dk.sparse_rows):
            lhs = {j: twist_k1 * -x for j, x in built.items()}
            rhs = {j: x * twist_k for j, x in row}
            if lhs != rhs:
                return False
    return True
