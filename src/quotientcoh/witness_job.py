"""The [witness] section of a job file and the records of a witness report.

    [witness]
    k_min = 2
    k_max = 8
    max_derivative_order = 4
    samples_per_interval = 10001

Each key is an integer read by config.int_key, and each limit is checked
here, as the section is read, before any bump is built: the level and
order ranges, and the float resolution of every level's sample points
(grid.level_resolves, the test the witness applies).  parse_config
imports this module for a [witness] section only.

The records verify_bounds fills (SupRecord, MonotoneViolation,
WitnessReport) and the static degree-one certificate live here too, the
seam between the witness computation and its report: a witness job
loads this module anyway, and the witness module keeps the bump family
and its float evaluation.
"""

from __future__ import annotations

from math import comb

from .config import int_key
from .errors import ValidationError
from .record import record

# Highest bump derivative order the float evaluation in witness.py may
# carry.  Against exact evaluation of P_m on grids of 3 to 10,001 points,
# the Horner evaluation in q puts C_m within 1e-10 relative through order
# 11 and within 5e-8 through order 16 (C_16 is off by 3.6e-8 on 3
# points, C_14 by 4.7e-9), past the 1e-9 slack of verify_bounds from
# order 12 on; it drifts to 1.7e-7 at order 17.  From order 86 exp
# overflows, and from order 152 the integer coefficients no longer fit in
# a float.
MAX_DERIVATIVE_ORDER = 16


@record
class WitnessJob:
    """Levels and sampling resolution for the bump-family witness."""

    k_min: int
    k_max: int
    max_derivative_order: int
    samples_per_interval: int


def build_witness(section: dict) -> WitnessJob:
    k_min = int_key(section, "witness", "k_min")
    k_max = int_key(section, "witness", "k_max")
    if k_min < 1:
        raise ValidationError("k_min", "levels start at 1")
    if k_max <= k_min:
        raise ValidationError(
            "k_max",
            "need at least two levels (k_max > k_min) to witness the "
            "obstruction",
        )
    order = int_key(section, "witness", "max_derivative_order", 4)
    if order < 0:
        raise ValidationError("max_derivative_order", "must be nonnegative")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValidationError(
            "max_derivative_order",
            "at most %d: the floating-point bump derivatives drift "
            "from their exact values as the order grows (5e-8 relative "
            "at order 16)" % MAX_DERIVATIVE_ORDER,
        )
    samples = int_key(section, "witness", "samples_per_interval", 10001)
    if samples < 3:
        raise ValidationError("samples_per_interval", "need at least 3 samples")
    # No job can run 2^51 samples: level k keeps its points off the ends of
    # I_k only while samples + 1 < about 2^(53 - k) (at k = 2 up to
    # 2,001,599,834,386,887), and every job has a level k >= 2; far above
    # it len() of a 2^63-point grid overflows.  Below it each level is
    # tested with the float test that level_arguments applies, before any
    # bump is built, and the first level that fails is named, as
    # level_arguments would at run time.  Work and memory do not grow
    # with the grid.
    if samples >= 2 ** 51:
        raise ValidationError("samples_per_interval", "must be below 2^51: "
                              "from there on level 2, which every job has, "
                              "rounds its sample points onto the ends of I_2")
    from .grid import level_resolves

    for k in range(k_min, k_max + 1):
        if not level_resolves(k, samples + 1):
            raise ValidationError(
                "samples_per_interval",
                "level %d lies below float resolution: its sample points "
                "round onto the ends of I_%d" % (k, k))
    return WitnessJob(k_min, k_max, order, samples)


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

    relative_slack is the slack every sup was checked against.
    """

    k_range: tuple[int, ...]
    max_derivative_order: int
    samples_per_interval: int
    profile_constants: tuple[float, ...]
    sup_records: tuple[SupRecord, ...]
    monotone_violations: tuple[MonotoneViolation, ...]

    relative_slack = 1e-9

    @property
    def forced_levels(self) -> tuple[tuple[int, int], ...]:
        """Each k paired with the level read off the ratio of the two
        families on I_k, which is k itself: verify_bounds refuses a
        level it cannot read (see the witness module docstring)."""
        return tuple((k, k) for k in self.k_range)

    @property
    def lift_obstruction(self) -> bool:
        """True iff two forced levels differ: with the supports marching
        down to zero and a different level forced on each, no
        neighbourhood of zero admits a single choice, which is the
        obstruction."""
        return len({level for _, level in self.forced_levels}) > 1


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

    Dimensions are the numbers of degree-one monomials, C(n, 1): one-forms
    on a 0-dimensional space versus constant-coefficient one-forms on a
    line.  A surjection onto a bigger space from a smaller one is
    impossible, which is the whole argument.
    """
    quotient_dim = comb(0, 1)
    upstairs_dim = comb(1, 1)
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
