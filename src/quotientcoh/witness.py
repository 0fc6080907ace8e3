"""Bump families that witness the failure of smooth local lifts near zero.

The profile is the classical bump phi(x) = exp(-1/(x(1-x))) on (0, 1),
extended by zero.  For each level k >= 1 a copy is squeezed into the
dyadic interval I_k = (2^-k, 2^-k + 2^-2k) and damped:

    f_k(t) = exp(-k^2) * phi(2^(2k) * (t - 2^-k)).

The chain rule turns every derivative sup into an identity,

    sup |f_k^(m)| = C_m * exp(-k^2) * 2^(2km),   C_m = sup |phi^(m)|,

and the rescaled family 2^k f_k obeys the same bound with an extra 2^k.
verify_bounds samples both families on a shared unit grid, so measured
sups and certified bounds agree to rounding, and it also records how
the sups move level to level.  A fact of this construction worth
stating up front: the sups tend to zero in k for every fixed m, but
they are not monotone, because the ratio between consecutive levels
is exp(-(2k+1)) * 2^(2m), which exceeds 1 for m = 4 at k = 2.  The
report records exactly such monotonicity breaks.

The derivatives of phi come from exact integer polynomials.  With
q = x(1-x) and q' = 1-2x, phi^(m) = P_m * phi / q^(2m), where P_0 = 1
and P_(m+1) = q^2 P_m' + q'(1 - 2mq) P_m.  Since phi(1-x) = phi(x),
P_m(1-x) = (-1)^m P_m(x), so P_m = q'^(m mod 2) * S_m(q) with S_m an
integer polynomial in q.  Using q'^2 = 1 - 4q the recursion becomes

    S_0 = 1,
    S_(m+1) = q^2 S_m' + (1 - 2mq) S_m                          (m even),
    S_(m+1) = q^2 (1-4q) S_m' + (1 - (2m+4)q + (8m-2)q^2) S_m   (m odd),

with S_m' the derivative in q.  The grid evaluation is Horner in q on
(0, 1/4], times q'^(m mod 2) * exp(-1/q - 2m log q); folding q^(2m)
into the exponent keeps it from underflowing against the exponential
(0 * inf) at high orders or near the edges.  Horner in x on the
expanded P_m would be ill-conditioned: its coefficients are large and
alternate, and the profile constants drift by 0.3 relative at order
10 on a 2,001-point grid.

A grid sup is found without scanning the grid.  The next derivative is
phi^(m+1) = q'^((m+1) mod 2) * S_(m+1)(q) * phi / q^(2m+2), and
phi / q^(2m+2) > 0 on (0, 1), so phi^(m) is monotone between
consecutive real roots of q'^((m+1) mod 2) * S_(m+1)(x(1-x)).  On any
sorted grid the largest |phi^(m)| therefore sits at a grid end or at a
grid point in or next to a bracket around such a root.  The roots of
S_(m+1) on (0, 1/4] are isolated once per order by an integer Sturm
chain bisected at dyadic points (sturm.root_brackets, imported only
when a family is built), mapped to x on (0, 1/2] and mirrored by
x -> 1 - x, with each float end checked exactly against its rational
bracket (critical_brackets); x = 1/2 joins them when m + 1 is odd.
peak_candidates then picks the grid ends and the points in or next to
each bracket by bisection, and phi^(m) is evaluated only there.

No grid is stored.  s_grid and level_arguments return a Grid, which
computes a point when it is read, so finding the candidates
materialises only the candidates, and neither the time nor the memory
of verify_bounds grows with the grid.

The level k is read off the ratio of the two families: beta / alpha
for alpha = f_k and beta = 2^k f_k.  In floats that ratio is 2^k at
every alpha > 0 as an identity of the construction, since scaling a
finite positive float by a power of two is exact short of overflow and
the division is correctly rounded; it is not checked again at run time.
What can fail is that a level has no positive sample at all, when
exp(-k^2) * phi underflows.  The largest sample of f_k is among the
order-0 peak candidates, so that is read off the order-0 sup of the
level, which the sup tables hold anyway.

This is the only module that computes with floats, all of it in plain
Python floats and the math module.  Everything it certifies is either
an interval statement checked exactly or a bound with an explicit
relative slack, and a non-finite sup, bound or profile constant raises
NonFiniteValue instead of passing a comparison.  The exact side is
integers: the support intervals and the Sturm brackets are dyadic
Ratios, (numerator, denominator) int pairs, and a float is compared
with one through the integer pair of float.as_integer_ratio().
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import exp, inf, isfinite, log, nextafter, sqrt

from .errors import BoundViolated, LevelNotRecovered, NonFiniteValue
from .exterior import enumerate_basis
from .ratio import Ratio
from .record import record

RELATIVE_SLACK = 1e-9


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
    index gives one float and a slice gives the Points it covers;
    ``size`` is the point count, as on Points.
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

    size = property(__len__)

    def __getitem__(self, index):
        i = range(1, self.n1)[index]
        n1, left, width, scale = self.n1, self.left, self.width, self.scale
        if isinstance(i, range):
            return Points([(left + width * (j / n1) - left) * scale
                           for j in i])
        return (left + width * (i / n1) - left) * scale


def interval(k: int) -> tuple[Ratio, Ratio]:
    """The open support interval I_k = (2^-k, 2^-k + 2^-2k), exactly:
    (1/2^k, (2^k + 1)/4^k), both in lowest terms since 2^k + 1 is odd."""
    if k < 1:
        raise ValueError("levels start at k = 1")
    return (1, 2 ** k), (2 ** k + 1, 4 ** k)


def intervals_are_disjoint(k_max: int) -> bool:
    """Exact check that I_{k+1} sits strictly below I_k for k < k_max."""
    for k in range(1, k_max):
        (a, b), (c, d) = interval(k + 1)[1], interval(k)[0]
        if not a * d < c * b:  # a/b < c/d over positive denominators
            return False
    return True


def derivative_polynomials(max_order: int) -> tuple[tuple[int, ...], ...]:
    """S_0, ..., S_max_order as integer coefficients in q, lowest first.

    phi^(m)(x) = (1-2x)^(m mod 2) * S_m(q) * phi(x) / q^(2m) with
    q = x(1-x); the module docstring derives the recursion.
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


def _x_of_q(q: Ratio, up: bool) -> float:
    """A float x in [0, 1/2] below (or, with up, above) the root
    x(q) = (1 - sqrt(1 - 4q))/2 of x(1-x) = q, checked exactly: on
    [0, 1/2] the map x -> x(1-x) increases, so x <= x(q) iff
    x(1-x) <= q, which for x = n/d is n(d - n) q_d <= q_n d^2."""
    qn, qd = q
    qf = qn / qd
    x = min(2.0 * qf / (1.0 + sqrt(max(1.0 - 4.0 * qf, 0.0))), 0.5)
    step = 0.5 if up else 0.0
    while True:
        n, d = x.as_integer_ratio()
        value, bound = n * (d - n) * qd, qn * d * d
        if (value >= bound) if up else (value <= bound):
            return x
        x = nextafter(x, step)


def _one_minus(x: float, up: bool) -> float:
    """A float below (or, with up, above) 1 - x, checked exactly: for
    x = a/b and y = c/d, y - (1 - x) has the sign of c b - (b - a) d."""
    y = 1.0 - x
    a, b = x.as_integer_ratio()
    while True:
        c, d = y.as_integer_ratio()
        gap = c * b - (b - a) * d
        if (gap >= 0) if up else (gap <= 0):
            return y
        y = nextafter(y, 1.0 if up else 0.0)


def critical_brackets(
    s_next: tuple[int, ...], odd: bool, width: float
) -> tuple[tuple[float, float], ...]:
    """Float brackets [lo, hi], sorted and disjoint, that hold every real
    root in (0, 1) of (1-2x)^odd * s_next(x(1-x)).

    The roots of s_next in q on (0, 1/4] come from root_brackets, fine
    enough that each x bracket is at most width wide
    (|x(q) - x(q')| <= sqrt(|q - q'|)); each is rounded outward to
    floats on (0, 1/2] and mirrored by x -> 1 - x.  x = 1/2 is added
    when odd.
    """
    from .sturm import root_brackets

    n, d = width.as_integer_ratio()
    fine = (n * n, d * d)  # width^2, in lowest terms as width is
    brackets = [(0.5, 0.5)] if odd else []
    for a, b in root_brackets(s_next, fine):
        lo, hi = _x_of_q(a, False), _x_of_q(b, True)
        brackets.append((lo, hi))
        brackets.append((_one_minus(hi, False), _one_minus(lo, True)))
    brackets.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in brackets:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _sup_abs(values) -> float:
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


def _insertion(find, grid, x: float) -> int:
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


def _level_scale(k: int, order: int) -> float:
    """exp(-k^2) * 2^(2k*order), the factor f_k^(order) carries over
    phi^(order); inf when the power of two overflows a float."""
    try:
        return exp(-float(k * k)) * 2.0 ** (2 * k * order)
    except OverflowError:
        return inf


@record
class BumpFamily:
    """The bumps f_k for k in k_range with derivative data up to max_order.

    samples_per_interval interior points are shared between the
    reference constants C_m and every level, so measured ratios carry
    no gridding bias.  _brackets[m] holds the critical_brackets of
    phi^(m), the places where a grid sup of |phi^(m)| can sit.
    """

    k_range: tuple[int, ...]
    max_derivative_order: int
    samples_per_interval: int
    _polys: tuple[tuple[int, ...], ...]
    _brackets: tuple[tuple[tuple[float, float], ...], ...]

    def s_grid(self) -> Grid:
        """Interior sample points i / n1 of the unit interval, ascending,
        with n1 = samples_per_interval + 1."""
        return Grid(self.samples_per_interval + 1)

    def phi_derivative(self, order: int, s) -> list[float]:
        """phi^(order) at the points s of (0, 1).

        An exponential that overflows becomes inf, which the callers'
        finiteness checks refuse.
        """
        if not 0 <= order <= self.max_derivative_order:
            raise ValueError("derivative order %d out of range" % order)
        coeffs = [float(c) for c in reversed(self._polys[order])]
        lead, rest = coeffs[0], coeffs[1:]
        twice = 2 * order
        out = []
        for x in s:
            q = x * (1.0 - x)
            acc = lead
            for c in rest:
                acc = acc * q + c
            if order % 2:
                acc = acc * (1.0 - 2.0 * x)
            try:
                out.append(acc * exp(-1.0 / q - twice * log(q)))
            except OverflowError:
                out.append(acc * inf)
        return out

    def peak_candidates(self, order: int, grid) -> Points:
        """The points of the ascending grid where max |phi^(order)| over
        the grid can sit: both ends, and every point in or next to a
        critical bracket.  Between two brackets phi^(order) is monotone,
        so the grid points there peak at their outermost two.
        """
        n = len(grid)
        ranges = [(0, 1)]
        for lo, hi in self._brackets[order]:
            ranges.append((max(_insertion(bisect_left, grid, lo) - 1, 0),
                         min(_insertion(bisect_right, grid, hi) + 1, n)))
        ranges.append((n - 1, n))
        # the index ranges start in ascending order; merge the ones that
        # touch, and take each merged range as one slice of the grid
        spans = []
        for first, last in ranges:
            if spans and first <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], last)
            else:
                spans.append([first, last])
        return Points([x for first, last in spans for x in grid[first:last]])

    def grid_sup(self, order: int, grid) -> float:
        """max |phi^(order)| over the ascending grid, NaN if a value
        evaluated is NaN."""
        return _sup_abs(
            self.phi_derivative(order, self.peak_candidates(order, grid)))

    def profile_constants(self) -> tuple[float, ...]:
        """C_m = max |phi^(m)| over the shared grid, for each order."""
        s = self.s_grid()
        return tuple(
            self.grid_sup(m, s) for m in range(self.max_derivative_order + 1)
        )

    def level_arguments(self, k: int) -> Grid:
        """The unit-interval preimages of the level-k sample points,
        ascending, as a Grid.

        t = 2^-k + 2^-2k * s rounds once; t - 2^-k is then exact
        (the two floats are within a factor of two), so mapping back
        multiplies by a power of two and loses nothing further.

        A point is lost when 2^-2k * s is below half the float spacing
        at 2^-k: t rounds onto an end of I_k (every point does from
        k = 53 on).  Rounding is monotone, so the offsets t - 2^-k grow
        with s and the two outermost points show whether any is lost.
        A lost point raises LevelNotRecovered, before 2^(2k) is formed,
        which would overflow a float from k = 512 on.
        """
        left = 2.0 ** (-k)
        width = 2.0 ** (-2 * k)
        s = self.s_grid()
        if not (left + width * s[0] - left > 0.0
                and left + width * s[-1] - left < width):
            raise LevelNotRecovered(
                "level %d lies below float resolution: its sample points "
                "round onto the ends of I_%d" % (k, k)
            )
        return Grid(s.n1, left, width, 2.0 ** (2 * k))

    def bump_values(self, k: int, order: int = 0, s=None) -> list[float]:
        """Samples of f_k^(order) at the level-k preimages s, by default
        at every point of the level-k grid."""
        if s is None:
            s = self.level_arguments(k)
        scale = _level_scale(k, order)
        return [scale * v for v in self.phi_derivative(order, s)]


def build_bumps(
    k_range,
    max_derivative_order: int = 4,
    samples_per_interval: int = 10001,
) -> BumpFamily:
    """Construct the family, validating levels and exact disjointness,
    and cover the critical points of phi^(m) for every order m."""
    ks = tuple(sorted(set(int(k) for k in k_range)))
    if not ks:
        raise ValueError("k_range must be nonempty")
    if ks[0] < 1:
        raise ValueError("levels start at k = 1")
    if max_derivative_order < 0:
        raise ValueError("max_derivative_order must be nonnegative")
    if samples_per_interval < 3:
        raise ValueError("need at least 3 samples per interval")
    if not intervals_are_disjoint(ks[-1]):
        raise ValueError("support intervals overlap; construction broken")
    polys = derivative_polynomials(max_derivative_order + 1)
    # one grid spacing: a bracket then holds at most a few grid points
    spacing = 1.0 / (samples_per_interval + 1)
    return BumpFamily(
        ks,
        max_derivative_order,
        samples_per_interval,
        polys[:-1],
        tuple(
            critical_brackets(polys[m + 1], (m + 1) % 2 == 1, spacing)
            for m in range(max_derivative_order + 1)
        ),
    )


@record
class SupRecord:
    """Measured derivative sup against its certified bound."""

    level: int
    order: int
    family: str
    measured: float
    bound: float


@record
class MonotoneViolation:
    """Consecutive levels where a derivative sup grew instead of shrinking."""

    family: str
    order: int
    level_from: int
    level_to: int
    ratio: float


@record
class WitnessReport:
    """Everything verify_bounds measured, plus the lift obstruction.

    forced_levels pairs each k with the level read off the ratio of the
    two families on I_k.  lift_obstruction is true iff two of those
    levels differ: with the supports marching down to zero and a
    different level forced on each, no neighbourhood of zero admits a
    single choice, which is the obstruction.
    """

    k_range: tuple[int, ...]
    max_derivative_order: int
    samples_per_interval: int
    profile_constants: tuple[float, ...]
    sup_records: tuple[SupRecord, ...]
    monotone_violations: tuple[MonotoneViolation, ...]
    forced_levels: tuple[tuple[int, int], ...]
    lift_obstruction: bool
    relative_slack: float = RELATIVE_SLACK


def _level_sup(b: BumpFamily, k: int, order: int, grid: Grid) -> float:
    """max |f_k^(order)| over the level-k grid, read at its peak
    candidates."""
    return _sup_abs(b.bump_values(k, order, b.peak_candidates(order, grid)))


def _sup_tables(
    b: BumpFamily, constants: tuple[float, ...]
) -> dict[str, dict[tuple[int, int], tuple[float, float]]]:
    """measured and bound for both families at every (k, m)."""
    out: dict[str, dict[tuple[int, int], tuple[float, float]]] = {
        "f": {}, "scaled": {}
    }
    for k in b.k_range:
        grid = b.level_arguments(k)
        for m in range(b.max_derivative_order + 1):
            measured = _level_sup(b, k, m, grid)
            bound = constants[m] * _level_scale(k, m)
            out["f"][(k, m)] = (measured, bound)
            # the rescaled family 2^k f_k; the factor is exact in floats
            out["scaled"][(k, m)] = (2.0 ** k * measured, 2.0 ** k * bound)
    return out


def _recovered_levels(
    order0_sups: dict[int, float]
) -> tuple[tuple[int, int], ...]:
    """The pairs (k, k) for the levels of order0_sups, level -> max f_k
    over the level grid.

    A level whose sup is not positive has no positive sample, so no
    ratio to read the level off: it raises LevelNotRecovered.  The
    finiteness test comes first, since NaN > 0.0 is false and inf > 0.0
    is true; a NaN or infinite sup raises NonFiniteValue.
    """
    for k, sup in order0_sups.items():
        if not isfinite(sup):
            raise NonFiniteValue("order-0 sup of f at level k=%d" % k, sup)
        if not sup > 0.0:
            raise LevelNotRecovered(
                "no positive samples at level %d: the grid is too coarse "
                "or exp(-k^2) underflows" % k)
    return tuple((k, k) for k in order0_sups)


def verify_bounds(b: BumpFamily) -> WitnessReport:
    """Measure every derivative sup, check it against its bound, and
    record how the sups move in k.

    A measured sup exceeding its bound beyond the relative slack raises
    BoundViolated: the bounds are identities of the construction, so
    that can only mean an implementation bug.  A NaN or infinite
    profile constant, sup or bound raises NonFiniteValue, since no
    comparison with it means anything.  A level with no positive
    sample raises LevelNotRecovered, after every bound is checked.
    Monotonicity breaks are not errors; they are facts of the family
    and land in the report.
    """
    constants = b.profile_constants()
    for m, c in enumerate(constants):
        if not isfinite(c):
            raise NonFiniteValue("profile constant C_%d" % m, c)
    tables = _sup_tables(b, constants)
    records = []
    violations = []
    for family in ("f", "scaled"):
        table = tables[family]
        for k in b.k_range:
            for m in range(b.max_derivative_order + 1):
                measured, bound = table[(k, m)]
                for what, value in (("sup", measured), ("bound", bound)):
                    if not isfinite(value):
                        raise NonFiniteValue(
                            "%s of %s at level k=%d, order m=%d"
                            % (what, family, k, m),
                            value,
                        )
                if measured > bound * (1.0 + RELATIVE_SLACK):
                    raise BoundViolated(k, m, measured, bound)
                records.append(SupRecord(k, m, family, measured, bound))
        for m in range(b.max_derivative_order + 1):
            for k_prev, k_next in zip(b.k_range, b.k_range[1:]):
                prev = table[(k_prev, m)][0]
                here = table[(k_next, m)][0]
                if prev > 0.0 and here >= prev:
                    violations.append(
                        MonotoneViolation(family, m, k_prev, k_next, here / prev)
                    )
    forced = _recovered_levels(
        {k: tables["f"][(k, 0)][0] for k in b.k_range})
    return WitnessReport(
        k_range=b.k_range,
        max_derivative_order=b.max_derivative_order,
        samples_per_interval=b.samples_per_interval,
        profile_constants=constants,
        sup_records=tuple(records),
        monotone_violations=tuple(violations),
        forced_levels=forced,
        lift_obstruction=len({lvl for _, lvl in forced}) >= 2,
    )


@record
class DegreeOneCertificate:
    """Dimension bookkeeping for the degree-one pullback obstruction.

    The quotient in question is a point, so it has no one-forms at all,
    while the invariant constant-coefficient complex upstairs keeps the
    span of dx.  The pullback therefore cannot be surjective in degree
    one.
    """

    quotient_degree1_dim: int
    invariant_basic_degree1_dim: int
    invariant_witness: str
    pullback_surjective_degree1: bool
    conclusion: str


def degree_one_obstruction() -> DegreeOneCertificate:
    """Static certificate that the point quotient misses the form dx.

    Dimensions are read off the monomial bases: one-forms on a
    0-dimensional space versus constant-coefficient one-forms on a
    line.  A surjection onto a bigger space from a smaller one is
    impossible, which is the whole argument.
    """
    quotient_dim = len(enumerate_basis(0, 1))
    upstairs_dim = len(enumerate_basis(1, 1))
    surjective = quotient_dim >= upstairs_dim
    return DegreeOneCertificate(
        quotient_degree1_dim=quotient_dim,
        invariant_basic_degree1_dim=upstairs_dim,
        invariant_witness="dx",
        pullback_surjective_degree1=surjective,
        conclusion=(
            "pullback-not-surjective" if not surjective else "no-obstruction"
        ),
    )
