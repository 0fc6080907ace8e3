"""Independent slow recomputations used to pin expected values.

Everything here is deliberately naive: plain Gaussian and Gauss-Jordan
elimination over dense rows of Fractions, determinant expansion by
minors, a dense n x n x n structure-constant cube read off the bracket
matrix, differential entries (with an optional character weight)
evaluated from the alternating-sum definition with determinant
evaluation of monomials, the Jacobiator as a cyclic sum over that cube,
the bump-sup level ratios in closed form, and the bump's derivative
polynomials expanded in x and evaluated exactly.  None of it shares code
paths with the package internals it checks.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from quotientcoh import LieAlgebra, abelian, heisenberg, sl2
from quotientcoh.exterior import enumerate_basis


def gauss_rank(rows) -> int:
    """Textbook Gaussian elimination rank over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def naive_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions on dense rows, scanning the
    columns in order; returns (nonzero rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a[:r]), tuple(pivots)


def densify(vector, width):
    """The dense tuple of a sparse vector: (index, value) pairs or an
    {index: value} map, every index absent from it read as zero."""
    pairs = dict(vector)
    return tuple(Fraction(pairs.get(i, 0)) for i in range(width))


def det_laplace(rows) -> Fraction:
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [row[c] for c in range(n) if c != j] for row in rows[1:]
        ]
        total += (-1) ** j * Fraction(rows[0][j]) * det_laplace(minor)
    return total


def minor_rank(rows) -> int:
    """Largest square submatrix with nonzero determinant (<= 4x4 use)."""
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for size in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), size):
            for ci in combinations(range(ncols), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_laplace(sub) != 0:
                    return size
    return 0


def dense_cube(g: LieAlgebra):
    """c[i][j][k] = coefficient of e_k in [e_i, e_j], from g.table."""
    n = g.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in zip(combinations(range(n), 2), g.table.sparse_rows):
        for k, v in row:
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def jacobi_failure(g: LieAlgebra):
    """The first triple i < j < k, in lexicographic order, where some
    coordinate of the cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i] +
    [[e_k, e_i], e_j] is nonzero, or None."""
    n = g.dim
    c = dense_cube(g)
    for i, j, k in combinations(range(n), 3):
        for m in range(n):
            total = Fraction(0)
            for u in range(n):
                total += (
                    c[i][j][u] * c[u][k][m]
                    + c[j][k][u] * c[u][i][m]
                    + c[k][i][u] * c[u][j][m]
                )
            if total != 0:
                return i, j, k
    return None


def eval_monomial(mono, vectors) -> Fraction:
    """e_mono evaluated on a list of coordinate vectors, as a determinant."""
    k = len(mono)
    assert len(vectors) == k
    grid = [[Fraction(vectors[t][mono[s]]) for t in range(k)] for s in range(k)]
    return det_laplace(grid)


def ce_entry_bruteforce(g: LieAlgebra, col_mono, row_mono, weight=()) -> Fraction:
    """One differential entry from the alternating-sum definition.

    (d a)(Y_0..Y_k) = sum_s (-1)^s w(Y_s) a(others)
                      + sum_{s<t} (-1)^(s+t) a([Y_s, Y_t], others),
    with a = e_col_mono evaluated on coordinate vectors by determinants,
    Y_i the basis vectors named by row_mono, and w(Y) the dot product
    of the weight with Y (the first sum is absent for an empty weight).
    """
    k1 = len(row_mono)
    cube = dense_cube(g)
    units = [_unit(g.dim, i) for i in row_mono]
    total = Fraction(0)
    if weight:
        for s in range(k1):
            acts = sum(Fraction(w) * y for w, y in zip(weight, units[s]))
            others = units[:s] + units[s + 1:]
            total += (-1) ** s * acts * eval_monomial(col_mono, others)
    for s in range(k1):
        for t in range(s + 1, k1):
            bracket = cube[row_mono[s]][row_mono[t]]
            others = [units[u] for u in range(k1) if u != s and u != t]
            value = eval_monomial(col_mono, [bracket] + others)
            total += (-1) ** (s + t) * value
    return total


def _unit(n, i):
    return [Fraction(int(t == i)) for t in range(n)]


def ce_matrix_bruteforce(g: LieAlgebra, k: int, weight=()):
    """Full degree-k differential matrix from the definition, with
    coefficients in the character of the given weight (trivial when
    empty)."""
    rows = enumerate_basis(g.dim, k + 1)
    cols = enumerate_basis(g.dim, k)
    return [
        [ce_entry_bruteforce(g, cm, rm, weight) for cm in cols] for rm in rows
    ]


def invert_fraction_matrix(rows):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def change_basis(g: LieAlgebra, p_rows) -> LieAlgebra:
    """Transport the bracket through the invertible matrix P.

    New basis f_i = sum_j P[i][j] e_j; the new constants c'_ij^k are the
    P^-1-coordinates of [f_i, f_j].
    """
    n = g.dim
    p_inv = invert_fraction_matrix(p_rows)
    cube = dense_cube(g)
    table = {}
    for i, j in combinations(range(n), 2):
        # [f_i, f_j] in old coordinates, then w @ P^-1 (rows act)
        w = [
            sum(p_rows[i][a] * p_rows[j][b] * cube[a][b][t]
                for a in range(n) for b in range(n))
            for t in range(n)
        ]
        for kk in range(n):
            table[(i, j, kk)] = sum(
                Fraction(w[t]) * p_inv[t][kk] for t in range(n)
            )
    return LieAlgebra.from_brackets(n, table)


def random_invertible(rng: random.Random, n: int):
    """Small-entry invertible rational matrix."""
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
        if det_laplace(rows) != 0:
            return rows


def filiform(n: int) -> LieAlgebra:
    """The standard filiform algebra: [e_0, e_i] = e_{i+1} for 0 < i < n-1."""
    return LieAlgebra.from_brackets(
        n, {(0, i, i + 1): 1 for i in range(1, n - 1)}
    )


def solvable2() -> LieAlgebra:
    """The nonabelian 2-dimensional algebra [e_0, e_1] = e_1."""
    return LieAlgebra.from_brackets(2, {(0, 1, 1): 1})


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    table = {}
    for offset, part in ((0, g), (g.dim, h)):
        cube = dense_cube(part)
        for i, j, k in product(range(part.dim), repeat=3):
            if cube[i][j][k] != 0:
                table[(offset + i, offset + j, offset + k)] = cube[i][j][k]
    return LieAlgebra.from_brackets(g.dim + h.dim, table)


def random_lie_algebra(rng: random.Random, dim: int) -> LieAlgebra:
    """A Jacobi-passing table: a known family in a random rational basis."""
    assert dim >= 2
    seeds = [abelian(dim)]
    if dim >= 3:
        seeds.append(direct_sum(heisenberg(), abelian(dim - 3)))
        seeds.append(direct_sum(sl2(), abelian(dim - 3)))
        seeds.append(filiform(dim))
    seeds.append(direct_sum(solvable2(), abelian(dim - 2)))
    base = seeds[rng.randrange(len(seeds))]
    return change_basis(base, random_invertible(rng, dim))


def random_nonjacobi_table(rng: random.Random, dim: int) -> LieAlgebra:
    """An antisymmetric table that fails the Jacobi identity."""
    # below dim 3 there is no triple to break, so every table passes
    assert dim >= 3
    while True:
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    if rng.random() < 0.4:
                        v = rng.randint(-2, 2)
                        if v:
                            brackets[(i, j, k)] = v
        g = LieAlgebra.from_brackets(dim, brackets)
        if jacobi_failure(g) is not None:
            return g


def predicted_monotone_breaks(levels, max_order: int) -> dict:
    """Closed-form monotonicity breaks of the bump derivative sups.

    sup |f_k^(m)| = C_m * exp(-k^2) * 2^(2km), and the rescaled family
    2^k f_k carries an extra 2^k, so between levels a < b the order-m
    sup changes by the ratio exp(-(b^2 - a^2)) * 2^((b - a)(2m + e)),
    with e = 0 for "f" and e = 1 for "scaled".  Returns
    {(family, m, a, b): ratio} for every pair of consecutive levels and
    every order m <= max_order where that ratio is >= 1, i.e. where
    the log-ratio -(b^2 - a^2) + (b - a)(2m + e) ln 2 is >= 0.
    """
    ks = sorted(set(levels))
    breaks = {}
    for family, extra in (("f", 0), ("scaled", 1)):
        for m in range(max_order + 1):
            for a, b in zip(ks, ks[1:]):
                log_ratio = (
                    -(b * b - a * a) + (b - a) * (2 * m + extra) * math.log(2)
                )
                if log_ratio >= 0:
                    breaks[(family, m, a, b)] = math.exp(log_ratio)
    return breaks


def bump_polynomials_x(max_order: int) -> list[list[int]]:
    """P_0..P_max_order with phi^(m) = P_m * phi / q^(2m), q = x(1-x),
    as integer coefficients in x, lowest first.

    Expanded straight from P_(m+1) = q^2 P_m' + q'(1 - 2mq) P_m in the
    monomial basis of x, without the q-basis the package uses.
    """
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def add(a, b):
        out = [0] * max(len(a), len(b))
        for i, u in enumerate(a):
            out[i] += u
        for i, v in enumerate(b):
            out[i] += v
        return out

    q = [0, 1, -1]
    dq = [1, -2]
    polys = [[1]]
    for m in range(max_order):
        p = polys[-1]
        deriv = [i * c for i, c in enumerate(p)][1:] or [0]
        polys.append(add(mul(mul(q, q), deriv),
                         mul(mul(dq, add([1], [-2 * m * c for c in q])), p)))
    return polys


def exact_profile_constants(max_order: int, samples: int) -> list[float]:
    """max |phi^(m)| over the grid i/(n+1), i = 1..n, with P_m(x)
    evaluated exactly at every grid point and only the factor
    exp(-1/q - 2m log q) taken in floats."""
    n1 = samples + 1
    out = []
    for m, poly in enumerate(bump_polynomials_x(max_order)):
        deg = len(poly) - 1
        best = 0.0
        for i in range(1, samples + 1):
            # n1^deg * P_m(i / n1), in integers
            num = sum(c * i ** j * n1 ** (deg - j) for j, c in enumerate(poly))
            q = float(Fraction(i * (n1 - i), n1 * n1))
            value = abs(float(Fraction(num, n1 ** deg)))
            best = max(best, value * math.exp(-1.0 / q - 2 * m * math.log(q)))
        out.append(best)
    return out
