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

This is the only module that computes with floats, and the only one
that needs numpy, which it imports inside the functions that touch
grids, so the other pipelines start without it.  Everything it
certifies is either an interval statement checked with Fractions or a
bound with an explicit relative slack; a non-finite sup, bound or
profile constant raises NonFiniteValue instead of passing a comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, inf, isfinite
from typing import TYPE_CHECKING

from .errors import BoundViolated, LevelNotRecovered, NonFiniteValue
from .exterior import enumerate_basis
from .record import record

if TYPE_CHECKING:
    import numpy as np

RELATIVE_SLACK = 1e-9


def interval(k: int) -> tuple[Fraction, Fraction]:
    """The open support interval I_k = (2^-k, 2^-k + 2^-2k), exactly."""
    if k < 1:
        raise ValueError("levels start at k = 1")
    left = Fraction(1, 2 ** k)
    return left, left + Fraction(1, 4 ** k)


def intervals_are_disjoint(k_max: int) -> bool:
    """Exact check that I_{k+1} sits strictly below I_k for k < k_max."""
    for k in range(1, k_max):
        sup_next = interval(k + 1)[1]
        inf_here = interval(k)[0]
        if not sup_next < inf_here:
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
    no gridding bias.
    """

    k_range: tuple[int, ...]
    max_derivative_order: int
    samples_per_interval: int
    _polys: tuple[tuple[int, ...], ...]

    def s_grid(self) -> np.ndarray:
        """Interior sample points of the unit interval."""
        import numpy as np

        n = self.samples_per_interval
        return np.arange(1, n + 1, dtype=float) / (n + 1)

    def phi_derivative(self, order: int, s: np.ndarray) -> np.ndarray:
        """phi^(order) at the points s of (0, 1)."""
        import numpy as np

        if not 0 <= order <= self.max_derivative_order:
            raise ValueError("derivative order %d out of range" % order)
        s = np.asarray(s, dtype=float)
        q = s * (1.0 - s)
        coeffs = self._polys[order]
        acc = np.full_like(q, float(coeffs[-1]))
        for c in reversed(coeffs[:-1]):
            acc = acc * q + float(c)
        if order % 2:
            acc = acc * (1.0 - 2.0 * s)
        return acc * np.exp(-1.0 / q - 2 * order * np.log(q))

    def profile_constants(self) -> tuple[float, ...]:
        """C_m = max |phi^(m)| over the shared grid, for each order."""
        s = self.s_grid()
        return tuple(
            float(abs(self.phi_derivative(m, s)).max())
            for m in range(self.max_derivative_order + 1)
        )

    def level_arguments(self, k: int) -> np.ndarray:
        """The unit-interval preimages of the level-k sample points.

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
        offsets = left + width * self.s_grid() - left
        if not (offsets[0] > 0.0 and offsets[-1] < width):
            raise LevelNotRecovered(
                "level %d lies below float resolution: its sample points "
                "round onto the ends of I_%d" % (k, k)
            )
        return offsets * 2.0 ** (2 * k)

    def bump_values(self, k: int, order: int = 0) -> np.ndarray:
        """Samples of f_k^(order) on the level-k grid."""
        s_back = self.level_arguments(k)
        return _level_scale(k, order) * self.phi_derivative(order, s_back)


def build_bumps(
    k_range,
    max_derivative_order: int = 4,
    samples_per_interval: int = 10001,
) -> BumpFamily:
    """Construct the family, validating levels and exact disjointness."""
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
    return BumpFamily(
        ks,
        max_derivative_order,
        samples_per_interval,
        derivative_polynomials(max_derivative_order),
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
    """Everything verify_bounds measured, plus the lift obstruction."""

    k_range: tuple[int, ...]
    max_derivative_order: int
    samples_per_interval: int
    profile_constants: tuple[float, ...]
    sup_records: tuple[SupRecord, ...]
    monotone_violations: tuple[MonotoneViolation, ...]
    forced_levels: tuple[tuple[int, int], ...]
    lift_obstruction: bool
    relative_slack: float = RELATIVE_SLACK


def _sup_tables(
    b: BumpFamily, constants: tuple[float, ...]
) -> dict[str, dict[tuple[int, int], tuple[float, float]]]:
    """measured and bound for both families at every (k, m)."""
    out: dict[str, dict[tuple[int, int], tuple[float, float]]] = {
        "f": {}, "scaled": {}
    }
    for k in b.k_range:
        for m in range(b.max_derivative_order + 1):
            measured = float(abs(b.bump_values(k, m)).max())
            bound = constants[m] * _level_scale(k, m)
            out["f"][(k, m)] = (measured, bound)
            # the rescaled family 2^k f_k; the factor is exact in floats
            out["scaled"][(k, m)] = (2.0 ** k * measured, 2.0 ** k * bound)
    return out


def forced_levels(b: BumpFamily) -> tuple[tuple[int, int], ...]:
    """On each I_k, read the level off the ratio of the two families.

    With alpha = f_k and beta = 2^k f_k, beta/alpha is the constant 2^k
    wherever alpha > 0, exactly in floating point since the scale is a
    power of two.  The returned pairs are (k, recovered level).  A level
    with no positive sample, or with an inexact ratio, raises
    LevelNotRecovered.
    """
    out = []
    for k in b.k_range:
        a = b.bump_values(k, 0)
        beta = 2.0 ** k * a
        positive = a > 0.0
        if not positive.any():
            raise LevelNotRecovered(
                "no positive samples at level %d: the grid is too coarse "
                "or exp(-k^2) underflows" % k
            )
        ratios = beta[positive] / a[positive]
        if not (ratios == 2.0 ** k).all():
            raise LevelNotRecovered(
                "the two families fail to have exact ratio 2^%d" % k
            )
        out.append((k, k))
    return tuple(out)


def _levels_differ(forced: tuple[tuple[int, int], ...]) -> bool:
    return len({lvl for _, lvl in forced}) >= 2


def lift_obstruction(b: BumpFamily) -> bool:
    """True iff the forced levels cannot be locally constant near zero.

    Needs at least two levels; with the supports marching down to zero
    and a different level forced on each, no neighbourhood of zero
    admits a single choice, which is the obstruction.
    """
    if len(b.k_range) < 2:
        raise ValueError(
            "need at least two levels to witness non-constancy near zero"
        )
    return _levels_differ(forced_levels(b))


def verify_bounds(b: BumpFamily) -> WitnessReport:
    """Measure every derivative sup, check it against its bound, and
    record how the sups move in k.

    A measured sup exceeding its bound beyond the relative slack raises
    BoundViolated: the bounds are identities of the construction, so
    that can only mean an implementation bug.  A NaN or infinite
    profile constant, sup or bound raises NonFiniteValue, since no
    comparison with it means anything.  Monotonicity breaks are not
    errors; they are facts of the family and land in the report.
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
    forced = forced_levels(b)
    return WitnessReport(
        k_range=b.k_range,
        max_derivative_order=b.max_derivative_order,
        samples_per_interval=b.samples_per_interval,
        profile_constants=constants,
        sup_records=tuple(records),
        monotone_violations=tuple(violations),
        forced_levels=forced,
        lift_obstruction=_levels_differ(forced),
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
