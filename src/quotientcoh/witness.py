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
chain bisected at dyadic points (grid.critical_brackets, through
sturm.root_brackets, imported only when a family is built).  One exact integer test bounds both x roots,
x(q) and 1 - x(q), of each q bracket end (critical_brackets); x = 1/2
joins them when m + 1 is odd.  peak_candidates picks the grid ends and
the points in or next to each bracket by bisection, merging the index
ranges that touch, so overlapping brackets merge once, as grid ranges;
phi^(m) is evaluated only there.

No grid is stored.  s_grid and level_arguments return a grid.Grid,
which computes a point when it is read, so finding the candidates
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
level, which verify_bounds tables anyway.

This is the only module that computes with floats, all of it in plain
Python floats and the math module.  Everything it certifies is either
an interval statement checked exactly or a bound with an explicit
relative slack, and a non-finite sup, bound or profile constant raises
NonFiniteValue instead of passing a comparison.  The exact side is
integers: the support intervals and the Sturm brackets are dyadic
Ratios, (numerator, denominator) int pairs, and a float is compared
with one through the integer pair of float.as_integer_ratio().

The report's records and the static degree-one certificate live in the
witness_job module, beside the [witness] section reader.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import exp, inf, isfinite, ldexp, log

from .errors import BoundViolated, LevelNotRecovered, NonFiniteValue
from .grid import (Grid, Points, critical_brackets, derivative_polynomials,
                   insertion, level_resolves, sup_abs)
from .ratio import Ratio
from .record import record
from .witness_job import MonotoneViolation, SupRecord, WitnessReport


def interval(k: int) -> tuple[Ratio, Ratio]:
    """The open support interval I_k = (2^-k, 2^-k + 2^-2k), exactly:
    (1/2^k, (2^k + 1)/4^k), both in lowest terms since 2^k + 1 is odd."""
    if k < 1:
        raise ValueError("levels start at k = 1")
    return (1, 2 ** k), (2 ** k + 1, 4 ** k)


def _level_scale(k: int, order: int) -> float:
    """exp(-k^2) * 2^(2k*order), the factor f_k^(order) carries over
    phi^(order), scaled exactly: 0.0 wherever exp(-k^2) underflows
    (k >= 28), and inf only past the float range, at orders >= 39."""
    try:
        return ldexp(exp(-float(k * k)), 2 * k * order)
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
        so the grid points there peak at their outermost two.  Brackets
        that overlap give index ranges that touch, which merge here.
        """
        n = len(grid)
        ranges = [(0, 1)]
        for lo, hi in self._brackets[order]:
            ranges.append((max(insertion(bisect_left, grid, lo) - 1, 0),
                         min(insertion(bisect_right, grid, hi) + 1, n)))
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
        return sup_abs(
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

        A point is lost when t rounds onto an end of I_k
        (grid.level_resolves).  A lost point raises LevelNotRecovered,
        before 2^(2k) is formed, which would overflow a float from
        k = 512 on.
        """
        s = self.s_grid()
        if not level_resolves(k, s.n1):
            raise LevelNotRecovered(
                "level %d lies below float resolution: its sample points "
                "round onto the ends of I_%d" % (k, k)
            )
        return Grid(s.n1, 2.0 ** (-k), 2.0 ** (-2 * k), 2.0 ** (2 * k))


def build_bumps(
    k_range,
    max_derivative_order: int = 4,
    samples_per_interval: int = 10001,
) -> BumpFamily:
    """Construct the family, validating levels and sampling, and cover
    the critical points of phi^(m) for every order m.  The supports need
    no check: I_(k+1) ends at 2^-(k+1) + 2^-(2k+2) < 2^-k for k >= 1."""
    ks = tuple(sorted(set(int(k) for k in k_range)))
    if not ks:
        raise ValueError("k_range must be nonempty")
    if ks[0] < 1:
        raise ValueError("levels start at k = 1")
    if max_derivative_order < 0:
        raise ValueError("max_derivative_order must be nonnegative")
    if samples_per_interval < 3:
        raise ValueError("need at least 3 samples per interval")
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


def verify_bounds(b: BumpFamily) -> WitnessReport:
    """Measure every derivative sup, check it against its bound, and
    record how the sups move in k.  The sups and bounds of f are tabled
    once; those of the rescaled family are 2^k times them.  A level sup
    is _level_scale(k, m) times grid_sup on the level grid: rounding a
    finite scale >= 0 times v is monotone in |v|, so that is the largest
    |f_k^(m)| sample bit for bit, and a bad sample still makes it NaN or inf.

    A measured sup exceeding its bound beyond the relative slack raises
    BoundViolated: the bounds are identities of the construction, so
    that can only mean an implementation bug.  A NaN or infinite
    profile constant, sup or bound raises NonFiniteValue, since no
    comparison with it means anything.  Then the first level whose
    order-0 sup is not positive (no sample to read the level off) raises
    LevelNotRecovered; every other level k forces k itself.
    Monotonicity breaks are not errors; they are facts of the family
    and land in the report.
    """
    constants = b.profile_constants()
    for m, c in enumerate(constants):
        if not isfinite(c):
            raise NonFiniteValue("profile constant C_%d" % m, c)
    orders = range(b.max_derivative_order + 1)
    sups = {}  # (k, m) -> measured and bound of f
    for k in b.k_range:
        grid = b.level_arguments(k)
        for m in orders:
            scale = _level_scale(k, m)
            sups[k, m] = (scale * b.grid_sup(m, grid), scale * constants[m])
    records = []
    violations = []
    for family in ("f", "scaled"):
        measured_at = {}
        for (k, m), (measured, bound) in sups.items():
            # the rescaled family 2^k f_k; the factor is exact in floats
            factor = 2.0 ** k if family == "scaled" else 1.0
            measured, bound = factor * measured, factor * bound
            for what, value in (("sup", measured), ("bound", bound)):
                if not isfinite(value):
                    raise NonFiniteValue(
                        "%s of %s at level k=%d, order m=%d"
                        % (what, family, k, m),
                        value,
                    )
            if measured > bound * (1.0 + WitnessReport.relative_slack):
                raise BoundViolated(k, m, measured, bound)
            records.append(SupRecord(k, m, family, measured, bound))
            measured_at[k, m] = measured
        for m in orders:
            for k_prev, k_next in zip(b.k_range, b.k_range[1:]):
                prev, here = measured_at[k_prev, m], measured_at[k_next, m]
                if prev > 0.0 and here >= prev:
                    violations.append(
                        MonotoneViolation(family, m, k_prev, k_next, here / prev)
                    )
    for k in b.k_range:
        if not sups[k, 0][0] > 0.0:
            raise LevelNotRecovered(
                "no positive samples at level %d: the grid is too coarse "
                "or exp(-k^2) underflows" % k)
    return WitnessReport(
        k_range=b.k_range,
        max_derivative_order=b.max_derivative_order,
        samples_per_interval=b.samples_per_interval,
        profile_constants=constants,
        sup_records=tuple(records),
        monotone_violations=tuple(violations),
    )
