"""Independent slow recomputations used to pin expected values.

Everything here is deliberately naive: plain Gaussian and Gauss-Jordan
elimination over dense rows of Fractions, determinant expansion by
minors, the minors of exterior powers by Gaussian elimination, a
dense n x n x n structure-constant cube read off the bracket matrix,
the bilinear bracket, ideal test and quotient table over that
cube, differential entries (with an optional character weight)
evaluated from the alternating-sum definition with determinant
evaluation of monomials, cohomology representatives read off the
Gauss-Jordan kernel by rank tests and, as residuals, reduced against
Gauss-Jordan rows of every column of the previous differential, the
Jacobiator as a cyclic sum over that cube,
the bump-sup level ratios in closed form, the bump's derivative
polynomials expanded in x and evaluated exactly, at every point of a
grid for the grid sups, torus mode survival by dot products, the
torus mode classes grouped from every point of the mode box, and the
forms that meet dense condition rows, by Gauss-Jordan kernels.  None of
it shares code paths with the package internals it checks.
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
    {index: value} map, every index absent from it read as zero; a value
    is a number or a (numerator, denominator) pair."""
    pairs = dict(vector)
    return tuple(_fraction(pairs.get(i, 0)) for i in range(width))


def _fraction(x) -> Fraction:
    return Fraction(*x) if isinstance(x, tuple) else Fraction(x)


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


def det_gauss(rows) -> Fraction:
    """Determinant by textbook Gaussian elimination over Fractions: the
    product of the pivots, negated once for each row swap."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


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
    for (i, j), row in zip(combinations(range(n), 2), g.table.entries):
        for k, v in enumerate(row):
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def naive_bracket(g: LieAlgebra, x, y):
    """[x, y] for dense coordinate vectors: sum of x_i y_j c[i][j]."""
    n = g.dim
    c = dense_cube(g)
    return [
        sum((Fraction(x[i]) * y[j] * c[i][j][k]
             for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    ]


def naive_ideal_failure(g: LieAlgebra, vectors):
    """The first (i, bi), i outermost, such that [e_i, r] leaves the span
    of the dense vectors, where r is row bi of their Gauss-Jordan form;
    None when the span is an ideal.  Membership is a rank test."""
    rows, _ = naive_rref(vectors, g.dim)
    for i in range(g.dim):
        for bi, row in enumerate(rows):
            image = naive_bracket(g, _unit(g.dim, i), row)
            if gauss_rank(list(rows) + [image]) > len(rows):
                return i, bi
    return None


def naive_quotient_table(g: LieAlgebra, vectors):
    """{(a, b, k): c} for g modulo the span of the dense vectors, on the
    coordinates that are not pivots of their Gauss-Jordan form, numbered
    0, 1, ... in increasing order: [e_a, e_b] minus, for every pivot p,
    its p-th coordinate times the Gauss-Jordan row of p, read on those
    coordinates."""
    rows, pivots = naive_rref(vectors, g.dim)
    kept = [c for c in range(g.dim) if c not in pivots]
    table = {}
    for a, b in combinations(range(len(kept)), 2):
        w = naive_bracket(g, _unit(g.dim, kept[a]), _unit(g.dim, kept[b]))
        for row, p in zip(rows, pivots):
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
        for k, c in enumerate(kept):
            if w[c] != 0:
                table[(a, b, k)] = w[c]
    return table


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


def _gauss_jordan_kernel(rows, width):
    """One kernel vector per free column of the Gauss-Jordan form of the
    dense rows: 1 there and minus that column of each reduced row at the
    row's pivot."""
    reduced, pivots = naive_rref(rows, width)
    kernel = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(width)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        kernel.append(v)
    return kernel


def _kernels_and_images(d, n):
    """(width, Gauss-Jordan kernel of d_k, columns of d_{k-1}) for
    k = 0..n; the top form spans the kernel of d_n = 0."""
    for k in range(n + 1):
        width = math.comb(n, k)
        kernel = (_gauss_jordan_kernel(d[k], width) if k < n
                  else [[Fraction(1)]])
        yield width, kernel, [list(col) for col in zip(*d[k - 1])] if k else []


def _raises_rank(vectors):
    """For each dense vector in order, whether it lies outside the span of
    those before it: textbook elimination against the lead-1 rows kept so
    far, each of which vanishes at the pivots of the rows before it."""
    basis = []
    out = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        for p, row in basis:
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x != 0), None)
        out.append(p is not None)
        if p is not None:
            basis.append((p, [x / v[p] for x in v]))
    return out


def naive_kernel_generators(d, n):
    """Representative cocycles per degree of a complex of exterior powers
    of R^n, given its differentials as dense rows: the Gauss-Jordan
    kernel vector at free column f is kept, scaled to lead 1, iff it
    raises the rank of the columns of d_{k-1} and the kernel vectors at
    the free columns before f."""
    out = []
    for width, kernel, span in _kernels_and_images(d, n):
        kept = []
        for v, raises in zip(kernel, _raises_rank(span + kernel)[len(span):]):
            if raises:
                lead = next(x for x in v if x != 0)
                kept.append(tuple(x / lead for x in v))
        out.append(kept)
    return out


def naive_generators(d, n, candidates=None):
    """Representative cocycles per degree of a complex of exterior powers
    of R^n, given its differentials as dense rows, as residuals.

    Each candidate cocycle in turn (by default the Gauss-Jordan kernel
    vectors of d_k, one per free column) is reduced against the
    Gauss-Jordan rows of every column of d_{k-1} plus the
    representatives already kept, and kept, scaled to lead 1, when
    something is left.  candidates[k], when given, lists dense vectors
    of degree k instead.
    """
    out = []
    for k, (width, kernel, span) in enumerate(_kernels_and_images(d, n)):
        if candidates is not None:
            kernel = [list(v) for v in candidates[k]]
        kept = []
        basis, pivots = naive_rref(span, width)
        for v in kernel:
            for row, p in zip(basis, pivots):
                v = [x - v[p] * y for x, y in zip(v, row)]
            lead = next((x for x in v if x != 0), None)
            if lead is not None:
                kept.append([x / lead for x in v])
                basis, pivots = naive_rref(span + kept, width)
        out.append([tuple(v) for v in kept])
    return out


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


def exact_profile_constants(max_order: int, samples: int,
                            min_order: int = 0) -> list[float]:
    """max |phi^(m)| over the grid i/(n+1), i = 1..n, for m from
    min_order to max_order, with P_m(x) evaluated exactly at every grid
    point (and rounded once to a float) and only the factor
    exp(-1/q - 2m log q) taken in floats."""
    n1 = samples + 1
    out = []
    for m, poly in enumerate(bump_polynomials_x(max_order)):
        if m < min_order:
            continue
        deg = len(poly) - 1
        powers = [n1 ** e for e in range(deg + 1)]
        best = 0.0
        for i in range(1, samples + 1):
            # n1^deg * P_m(i / n1), in integers, by Horner
            num = poly[deg]
            for j in range(deg - 1, -1, -1):
                num = num * i + poly[j] * powers[deg - j]
            # int / int rounds the exact quotient once
            q = i * (n1 - i) / (n1 * n1)
            value = abs(num) / powers[deg]
            best = max(best, value * math.exp(-1.0 / q - 2 * m * math.log(q)))
        out.append(best)
    return out


def _q_basis(poly, odd: bool) -> list[int]:
    """S with poly(x) = (1-2x)^odd * S(x(1-x)), in q = x(1-x), lowest
    first: divide out 1-2x, then peel the top power of q off the top
    coefficient of what is left, (x - x^2)^j starting with (-1)^j x^(2j).
    """
    rest = list(poly)
    if odd:
        # (1-2x) r = p: r_0 = p_0, r_i = p_i + 2 r_(i-1)
        quotient = []
        for c in rest[:-1]:
            quotient.append(c + 2 * quotient[-1] if quotient else c)
        assert rest[-1] == -2 * quotient[-1]
        rest = quotient
    out = [0] * (len(rest) // 2 + 1)
    while any(rest):
        while rest[-1] == 0:
            rest.pop()
        j = (len(rest) - 1) // 2
        out[j] = rest[-1] * (-1) ** j
        power = [1]
        for _ in range(j):
            power = [a - b for a, b in zip(power + [0, 0], [0] + power + [0])]
            power = [0] + power[:-1]
        for i, c in enumerate(power):
            rest[i] -= out[j] * c
    return out


def grid_sup_bruteforce(order: int, points) -> float:
    """max |phi^(order)| over every point of (0, 1) in points.

    P_order comes from bump_polynomials_x and is rewritten exactly as
    (1-2x)^(order mod 2) * S(q); each point is then evaluated the way
    the package documents its float formula (Horner in q, times 1-2x,
    times exp(-1/q - 2m log q)), so a mismatch with the package's sup
    means a point it should have visited, not a rounding difference.
    exact_profile_constants checks the formula's accuracy itself.
    """
    s = [float(c) for c in _q_basis(bump_polynomials_x(order)[order],
                                     order % 2 == 1)]
    best = 0.0
    for x in points:
        q = x * (1.0 - x)
        acc = s[-1]
        for c in reversed(s[:-1]):
            acc = acc * q + c
        if order % 2:
            acc = acc * (1.0 - 2.0 * x)
        value = abs(acc * math.exp(-1.0 / q - 2 * order * math.log(q)))
        if not value <= best:
            best = value
    return best


def naive_survives(mode, spec) -> bool:
    """Whether the Fourier mode carries basic invariant forms of the
    TorusSpec spec: zero on every invariance coordinate, and zero dot
    product with the rational and with the alpha part of every
    direction, in Fractions of each entry's rat and irr."""
    return not (any(mode[j] for j in spec.invariance_coords)
                or any(sum(m * Fraction(*x.rat) for m, x in zip(mode, v))
                       or sum(m * Fraction(*x.irr) for m, x in zip(mode, v))
                       for v in spec.foliation_dirs))


def naive_mode_classes(spec, bound: int):
    """(classes, audited) for the torus audit of the TorusSpec spec up to
    sup norm bound: classes lists (least member, number of modes) per
    class of nonzero surviving modes, ordered by least member, and
    audited counts them all.

    Every point of the (2*bound + 1)^n box is tested by naive_survives,
    its own dot products.  The transverse columns are the non-pivot
    columns of the first substitution r = 0..p of alpha that gives the
    directions rank p, and a mode's class is the sorted absolute values
    of its transverse components divided by their gcd.
    """
    for r in range(spec.p + 1):
        rows = [[Fraction(*x.rat) + r * Fraction(*x.irr) for x in v]
                for v in spec.foliation_dirs]
        _, pivots = naive_rref(rows, spec.n)
        if len(pivots) == spec.p:
            break
    free = [j for j in range(spec.n) if j not in pivots]
    classes: dict = {}
    for mode in product(range(-bound, bound + 1), repeat=spec.n):
        if not any(mode) or not naive_survives(mode, spec):
            continue
        raw = sorted(abs(mode[j]) for j in free)
        g = math.gcd(*raw)
        members = classes.setdefault(tuple(x // g for x in raw), [])
        members.append(mode)
    found = sorted((min(members), len(members))
                   for members in classes.values())
    return found, sum(count for _, count in found)


def fixed_form_dimensions(a) -> list[int]:
    """dim ker(Lambda^k A^T - I) for k = 0..n, densely: entry (J, I) of
    Lambda^k A^T is the minor det A[I, J] by Gaussian elimination, and
    the kernel dimension is C(n, k) minus a Gaussian elimination rank."""
    n = len(a)
    out = []
    for k in range(n + 1):
        monomials = list(combinations(range(n), k))
        rows = [[det_gauss([[a[i][j] for j in cols] for i in mono])
                 - (mono == cols) for mono in monomials]
                for cols in monomials]
        out.append(len(monomials) - gauss_rank(rows))
    return out


def condition_kernels(conditions, q: int):
    """For k = 0..q, the Gauss-Jordan kernel of the dense rows
    conditions[k] over the C(q, k) monomials of Lambda^k(R^q): the
    k-forms that meet every condition.  On abelian R^q d = 0, so every
    condition set cuts out a subcomplex, whose b_k is the kernel's size
    and whose cocycles span the kernel."""
    return [_gauss_jordan_kernel(rows, math.comb(q, k))
            for k, rows in enumerate(conditions)]


def _dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def dense_order(a, bound: int = 120):
    """The least j <= bound with A^j = I, by dense products, or None."""
    identity = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    power = [list(row) for row in a]
    for j in range(1, bound + 1):
        if power == identity:
            return j
        power = _dense_product(power, a)
    return None


def _int_minor(a, rows, cols) -> int:
    """The minor det A[rows, cols] by Gaussian elimination, as an int: A
    has integer minors."""
    minor = det_gauss([[a[i][j] for j in cols] for i in rows])
    assert minor.denominator == 1, (a, rows, cols)
    return minor.numerator


def averaged_form_dimensions(a, order: int) -> list[int]:
    """dim of the forms Lambda^k A^T fixes, for A of the given order, by
    averaging over the group: sum_j (Lambda^k A^T)^j over j < order is
    order times the projection onto those forms, so its rank is their
    dimension.  Lambda^k A^T is built from integer minors by Gaussian
    elimination, so its powers and their sum stay on ints, and order is
    checked: its power of Lambda^k A^T is I."""
    n = len(a)
    out = []
    for k in range(n + 1):
        monomials = list(combinations(range(n), k))
        step = [[_int_minor(a, mono, cols) for mono in monomials]
                for cols in monomials]
        identity = [[int(i == j) for j in range(len(monomials))]
                    for i in range(len(monomials))]
        power, total = identity, [[0] * len(monomials) for _ in monomials]
        for _ in range(order):
            total = [[x + y for x, y in zip(r, s)]
                     for r, s in zip(total, power)]
            power = _dense_product(power, step)
        assert power == identity, (a, order, k)
        out.append(gauss_rank(total))
    return out
