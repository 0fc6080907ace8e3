"""Finite-dimensional Lie algebras, quotients, and their cochain cohomology.

A Lie algebra is presented by rational structure constants
c[i][j][k] = coefficient of e_k in [e_i, e_j].  The differential on
alternating forms follows the convention

    (d a)(Y_0, ..., Y_k) = sum_{i<j} (-1)^(i+j) a([Y_i, Y_j], Y_0, ...,
                           ^Y_i, ..., ^Y_j, ..., Y_k),

so in degree one (d a)(X, Y) = -a([X, Y]), and d o d = 0 is equivalent
to the Jacobi identity.  Betti numbers come from exact ranks of the
differential matrices; representatives are kernel vectors reduced
against the image of the previous differential, which leaves exactly
one representative per cohomology dimension.

Quotients by an ideal h use the coordinate splitting given by the
echelon form of h: the non-pivot coordinates form a complement, and the
induced bracket is the residual of the parent bracket after reduction
by h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence, Union

from .errors import NotAnIdeal
from .exterior import MultiIndex, enumerate_basis, remove_pair, wedge_insert
from .scalars import (
    EchelonBasis,
    ExactMatrix,
    RationalLike,
    dense_row,
    nullspace_basis,
    rank,
    rref,
)

StructureTable = tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by an antisymmetric structure-constant table.

    Antisymmetry is enforced at construction; the Jacobi identity is
    checked separately by jacobi_check so deliberately broken tables can
    still be built and examined.
    """

    dim: int
    structure: StructureTable

    def __post_init__(self):
        n = self.dim
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.structure) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in self.structure
        ):
            raise ValueError("structure table must be %d x %d x %d" % (n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if self.structure[i][j][k] != -self.structure[j][i][k]:
                        raise ValueError(
                            "antisymmetry fails at c[%d][%d][%d]" % (i, j, k)
                        )

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int, int], RationalLike],
    ) -> "LieAlgebra":
        """Build from sparse entries {(i, j, k): c_ij^k}.

        The mirrored entry c_ji^k is filled in automatically; giving
        both sides is allowed only when they are consistent.
        """
        table = [
            [[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)
        ]
        seen: dict[tuple[int, int, int], Fraction] = {}
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
            for key, val in (((i, j, k), v), ((j, i, k), -v)):
                if key in seen and seen[key] != val:
                    raise ValueError(
                        "conflicting values for c[%d][%d][%d]" % key
                    )
                seen[key] = val
                table[key[0]][key[1]][key[2]] = val
        return cls(dim, tuple(tuple(tuple(r) for r in p) for p in table))

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[e_i, e_j] as a coordinate vector."""
        return self.structure[i][j]

    def bracket(
        self, x: Sequence[RationalLike], y: Sequence[RationalLike]
    ) -> tuple[Fraction, ...]:
        """Bilinear extension of the structure table."""
        n = self.dim
        out = [Fraction(0)] * n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                coeff = Fraction(xi) * Fraction(yj)
                for k in range(n):
                    c = self.structure[i][j][k]
                    if c != 0:
                        out[k] += coeff * c
        return tuple(out)


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
    """Exact Jacobi test.

    Returns (True, None), or (False, (i, j, k)) with the first basis
    triple, in lexicographic order, where the cyclic sum is nonzero.
    """
    n = g.dim
    c = g.structure
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    total = Fraction(0)
                    for u in range(n):
                        total += (
                            c[i][j][u] * c[u][k][m]
                            + c[j][k][u] * c[u][i][m]
                            + c[k][i][u] * c[u][j][m]
                        )
                    if total != 0:
                        return False, (i, j, k)
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
    bracket table on those coordinates.
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
    q = len(complement)
    table = [[[Fraction(0)] * q for _ in range(q)] for _ in range(q)]
    for a_pos, a in enumerate(complement):
        for b_pos, b in enumerate(complement):
            residual = h.reduce(g.bracket_basis(a, b))
            for k_pos, k in enumerate(complement):
                table[a_pos][b_pos][k_pos] = residual[k]
    induced = LieAlgebra(
        q, tuple(tuple(tuple(r) for r in p) for p in table)
    )
    return QuotientAlgebra(g, h, complement, induced)


@dataclass(frozen=True)
class CochainComplex:
    """The alternating-forms complex of an n-dimensional algebra.

    d[k] is the matrix of the degree-k differential with respect to the
    lexicographic monomial bases, shape C(n, k+1) x C(n, k); the tuple
    has length n since the top differential is zero.  algebra is the
    structure table the differentials were built from.
    """

    dim: int
    d: tuple[ExactMatrix, ...]
    algebra: LieAlgebra

    @property
    def degrees(self) -> tuple[int, ...]:
        """All form degrees carried by the complex: 0 through dim."""
        return tuple(range(self.dim + 1))

    def d_squared_violation(self) -> int | None:
        """First degree k with d_{k+1} d_k != 0, or None."""
        for k in range(len(self.d) - 1):
            if not (self.d[k + 1] @ self.d[k]).is_zero():
                return k
        return None

    def d_squared_is_zero(self) -> bool:
        return self.d_squared_violation() is None


AlgebraLike = Union[LieAlgebra, QuotientAlgebra]


def _algebra_of(x: AlgebraLike) -> LieAlgebra:
    return x.algebra if isinstance(x, QuotientAlgebra) else x


def ce_complex(x: AlgebraLike) -> CochainComplex:
    """Build every differential matrix of the cochain complex of x.

    The entry recipe: for a degree-(k+1) monomial J and each index pair
    inside it, contract the pair out (remove_pair), bracket it through
    the structure table, and wedge the result back in (wedge_insert).
    The pair (-1)^(s+t) prefactor equals minus the contraction sign, so
    each contribution is -sign_rm * sign_w * c.  Rows are assembled as
    sparse {column: value} maps.
    """
    g = _algebra_of(x)
    n = g.dim
    brackets = {
        (i, j): [(u, c) for u, c in enumerate(g.structure[i][j]) if c != 0]
        for i in range(n)
        for j in range(i + 1, n)
    }
    mats = []
    for k in range(n):
        col_index = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
        rows = []
        for jmono in enumerate_basis(n, k + 1):
            row: dict[int, Fraction] = {}
            for s in range(k + 1):
                for t in range(s + 1, k + 1):
                    removed = remove_pair(jmono, jmono[s], jmono[t])
                    assert removed is not None
                    sign_rm, rest = removed
                    for u, c in brackets[jmono[s], jmono[t]]:
                        inserted = wedge_insert(u, rest)
                        if inserted is None:
                            continue
                        sign_w, imono = inserted
                        col = col_index[imono]
                        row[col] = row.get(col, 0) - sign_rm * sign_w * c
            rows.append(row)
        mats.append(ExactMatrix.from_sparse(len(col_index), rows))
    return CochainComplex(n, tuple(mats), g)


@dataclass(frozen=True)
class BettiReport:
    """Cohomology of one cochain complex with audit data.

    betti[k] = C(n, k) - rank d_k - rank d_{k-1}; generators[k] holds
    the chosen representative cocycles as coordinate vectors over
    monomials[k], each normalized to leading coefficient 1.
    """

    dim: int
    betti: tuple[int, ...]
    ranks: tuple[int, ...]
    generators: tuple[tuple[tuple[Fraction, ...], ...], ...]
    monomials: tuple[tuple[MultiIndex, ...], ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def betti(c: CochainComplex) -> BettiReport:
    """Betti numbers and representative cocycles from exact ranks.

    Representatives in degree k are the kernel basis vectors of d_k
    reduced against the span of the columns of d_{k-1} plus the
    representatives already chosen; exactly betti[k] of them survive.
    """
    violation = c.d_squared_violation()
    if violation is not None:
        raise ValueError(
            "not a cochain complex: d.d != 0 at degree %d" % violation
        )
    n = c.dim
    ranks = tuple(rank(dk) for dk in c.d)
    betti_out = []
    gens_out = []
    monos_out = []
    for k in range(n + 1):
        width = comb(n, k)
        rk = ranks[k] if k < n else 0
        rk_prev = ranks[k - 1] if k >= 1 else 0
        betti_out.append(width - rk - rk_prev)
        if k < n:
            kernel = nullspace_basis(c.d[k])
        else:
            kernel = [(Fraction(1),)]  # the top form; d_n = 0
        acc = EchelonBasis()
        if k >= 1:
            for column in c.d[k - 1].columns():
                acc.add(column)
        chosen = []
        for v in kernel:
            residual = acc.add({j: x for j, x in enumerate(v) if x})
            if residual is not None:
                chosen.append(dense_row(residual.items(), width))
        gens_out.append(tuple(chosen))
        monos_out.append(tuple(enumerate_basis(n, k)))
    return BettiReport(
        n, tuple(betti_out), ranks, tuple(gens_out), tuple(monos_out)
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
    (-1)^(s+t) c[J_s][J_t][u] e^I(e_u, e_rest), where rest is J without
    J_s and J_t, and e^I(e_u, e_rest) is the sign of the permutation that
    sorts (u, rest) into I, or 0 when (u, rest) does not list I.
    """
    col_index = {mono: c for c, mono in enumerate(enumerate_basis(g.dim, k))}
    rows = []
    for jmono in enumerate_basis(g.dim, k + 1):
        row: dict[int, Fraction] = {}
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = jmono[:s] + jmono[s + 1:t] + jmono[t + 1:]
                for u, c in enumerate(g.structure[jmono[s]][jmono[t]]):
                    if c == 0:
                        continue
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
    which shares no code with ce_complex (no remove_pair, no
    wedge_insert).  With the degreewise twist S_k = (-1)^k I, the
    certificate is the identity S_{k+1} (-D_k) = d_k S_k, which matches
    evaluation on basis vectors against the algebraic differential; it
    is checked entrywise on sparse rows and fails as soon as one entry
    of one d_k differs from the formula.
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
