"""Where a grid sup of the profile's derivatives can sit, and the grids.

derivative_polynomials gives the integer polynomials S_m in q = x(1-x)
of the profile's derivatives (the witness module derives them).
critical_brackets covers the real roots of the next derivative with
float brackets, from integer Sturm brackets in q (sturm.root_brackets,
imported only when a family is built); a grid sup of phi^(m) sits at a
grid end or at a grid point in or next to such a bracket, and insertion
finds those points by bisection.

A Grid holds no points: it computes a point when it is read, so finding
the peak candidates of a grid materialises only the candidates, and
neither the time nor the memory of a witness job grows with the grid.
level_resolves is the float test that decides whether the points of
level k stay apart from the ends of I_k; the witness applies it to each
level it samples, and witness_job, which reads the [witness] section, to
each level of a job before any bump is built.
"""

from __future__ import annotations

from math import nextafter, sqrt

from .ratio import Ratio


class Points(tuple):
    """Points phi_derivative is evaluated at, held at once: the peak
    candidates of a grid, or a slice of a Grid.  A tuple that also
    answers to ``size``, the point count a caller timing phi_derivative
    reads (perfbench/tracer.py)."""

    __slots__ = ()
    size = property(len)


class Grid:
    """The ascending sample points (left + width * x - left) * scale at the
    points x = i / n1, i = 1, ..., n1 - 1, of the unit grid, computed when
    read instead of stored.

    With the defaults every x maps to itself: that is the unit grid.  An
    index gives one float and a slice gives the Points it covers.
    """

    __slots__ = ("n1", "left", "width", "scale")

    def __init__(self, n1: int, left: float = 0.0, width: float = 1.0,
                 scale: float = 1.0):
        self.n1 = n1
        self.left = left
        self.width = width
        self.scale = scale

    def __len__(self) -> int:
        return self.n1 - 1

    def __getitem__(self, index):
        i = range(1, self.n1)[index]
        n1, left, width, scale = self.n1, self.left, self.width, self.scale
        if isinstance(i, range):
            return Points([(left + width * (j / n1) - left) * scale
                           for j in i])
        return (left + width * (i / n1) - left) * scale


def level_resolves(k: int, n1: int) -> bool:
    """Whether the level-k sample points of the unit grid Grid(n1) stay
    inside I_k: t = 2^-k + 2^-2k * s rounds once, and a point is lost
    when 2^-2k * s is below half the float spacing at 2^-k, when t
    rounds onto an end of I_k (every point does from k = 53 on).
    Rounding is monotone, so the offsets t - 2^-k grow with s and the
    two outermost points show whether any is lost."""
    left = 2.0 ** (-k)
    width = 2.0 ** (-2 * k)
    s = Grid(n1)
    return (left + width * s[0] - left > 0.0
            and left + width * s[-1] - left < width)


def derivative_polynomials(max_order: int) -> tuple[tuple[int, ...], ...]:
    """S_0, ..., S_max_order as integer coefficients in q, lowest first.

    phi^(m)(x) = (1-2x)^(m mod 2) * S_m(q) * phi(x) / q^(2m) with
    q = x(1-x); the witness module docstring derives the recursion.
    """
    polys = [(1,)]
    for m in range(max_order):
        s = polys[-1]
        odd = m % 2
        # the factor multiplying S_m itself
        factor = (1, -(2 * m + 4), 8 * m - 2) if odd else (1, -2 * m)
        out = [0] * (len(s) + 2)
        for j, c in enumerate(s):
            # q^2 S_m', times (1 - 4q) when m is odd
            out[j + 1] += j * c
            if odd:
                out[j + 2] -= 4 * j * c
            for i, a in enumerate(factor):
                out[j + i] += a * c
        while out[-1] == 0:
            out.pop()
        polys.append(tuple(out))
    return tuple(polys)


def _x_of_q(q: Ratio, inward: bool) -> tuple[float, float]:
    """Floats on one side of the two roots x(q) = (1 - sqrt(1 - 4q))/2
    and 1 - x(q) of x(1-x) = q: toward 1/2 with inward, else away from
    it, each checked exactly.  x -> x(1-x) increases on [0, 1/2] and
    decreases on [1/2, 1], so a float y lies between the roots iff
    y(1-y) >= q, which for y = n/d is n(d - n) q_d >= q_n d^2."""
    qn, qd = q
    qf = qn / qd
    x = min(2.0 * qf / (1.0 + sqrt(max(1.0 - 4.0 * qf, 0.0))), 0.5)
    bounds = []
    for y, edge in ((x, 0.0), (1.0 - x, 1.0)):
        while True:
            n, d = y.as_integer_ratio()
            value, bound = n * (d - n) * qd, qn * d * d
            if (value >= bound) if inward else (value <= bound):
                break
            y = nextafter(y, 0.5 if inward else edge)
        bounds.append(y)
    return bounds[0], bounds[1]


def critical_brackets(
    s_next: tuple[int, ...], odd: bool, width: float
) -> tuple[tuple[float, float], ...]:
    """Float brackets [lo, hi], sorted, that hold every real root in
    (0, 1) of (1-2x)^odd * s_next(x(1-x)).  Brackets may overlap;
    peak_candidates merges their grid ranges.

    The roots of s_next in q on (0, 1/4] come from root_brackets, fine
    enough that each x bracket is at most width wide
    (|x(q) - x(q')| <= sqrt(|q - q'|)); a q bracket [a, b] gives the
    floats around both of its x roots, [x(a), x(b)] on (0, 1/2] and
    [1 - x(b), 1 - x(a)] on [1/2, 1).  x = 1/2 is added when odd.
    """
    from .sturm import root_brackets

    n, d = width.as_integer_ratio()
    fine = (n * n, d * d)  # width^2, in lowest terms as width is
    brackets = [(0.5, 0.5)] if odd else []
    for a, b in root_brackets(s_next, fine):
        lo, mirror_hi = _x_of_q(a, False)
        hi, mirror_lo = _x_of_q(b, True)
        brackets += [(lo, hi), (mirror_lo, mirror_hi)]
    return tuple(sorted(brackets))


def sup_abs(values) -> float:
    """max |v| over values, NaN if any value is NaN (max alone would
    skip a NaN that does not come first), 0.0 for none."""
    top = 0.0
    for v in values:
        a = abs(v)
        if a > top:
            top = a
        elif a != a:
            return a
    return top


def insertion(find, grid, x: float) -> int:
    """find(grid, x), for find bisect_left or bisect_right and any
    ascending grid of n points.

    The points of every grid here lie near (i + 1) / (n + 1), so the
    search runs first in the four points around x's place on that
    uniform grid, which reads two or three points of a Grid instead of
    about log2(n).  An answer at an inner edge of the window may lie
    outside it, and is searched again over the whole grid.
    """
    n = len(grid)
    guess = int(x * (n + 1))
    lo, hi = max(guess - 2, 0), min(guess + 2, n)
    if lo < hi:
        i = find(grid, x, lo, hi)
        if (lo < i or lo == 0) and (i < hi or hi == n):
            return i
    return find(grid, x)
