"""Linear torus foliations, as a torus job states them.

A constant-coefficient foliation of the n-torus is spanned by direction
vectors whose entries are rational or rational + rational*alpha for one
fixed irrational alpha (scalars.ExtScalar).  A TorusSpec holds those
directions, the coordinates of dense translation invariance, the
truncation of the mode audit, the coordinates of discrete translations
(the discrete module) and the rows of an automorphism A (the
automorphism module), and clears each direction once into the integer
rows every span, rank and survival test of the torus pipeline reads.
One [torus] section is one TorusSpec, and its mode names the module
that runs it.  The spec is the one holder of the section's shape: the
job file reader only parses tokens, and the spec refuses, with the key
each refusal concerns, a count or length that is not n, a row entry
that is no integer, and invariance or discrete coordinates or an alpha
part beside automorphism rows.  It is all a job needs to be read and
refused, so a torus job refused while its spec is built compiles none
of that pipeline, the automorphism module included.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .errors import InvalidSpec
from .record import record
from .scalars import ExtScalar

# the refusal of directions that span less than their number, raised by
# the torus frame and by an automorphism job's induced map
DEPENDENT_DIRECTIONS = (
    "foliation directions are linearly dependent over the scalars")


def coordinate_names(n: int) -> tuple[str, ...]:
    """The names of the coordinates of T^n: x, y, z for n <= 3, else
    x0..x{n-1}."""
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple("x%d" % i for i in range(n))


@record
class TorusSpec:
    """A linear foliation of T^n with translation-invariance coordinates.

    foliation_dirs are the spanning direction vectors (entries
    ExtScalar), and parts their one integer form; invariance_coords are
    the coordinates of dense translation invariance; truncation bounds
    the sup norm of the nonzero modes audited by torus_betti;
    discrete_coords are the coordinates j of a job modulo every
    translation along e_j with the discrete topology, and automorphism
    the n integer rows of a matrix A for T^n modulo the group A
    generates, none for a plain job.  torus_betti reads neither of the
    last two (see the discrete and automorphism modules), and A goes
    with no invariance or discrete coordinates and no alpha part.
    """

    n: int
    foliation_dirs: tuple[tuple[ExtScalar, ...], ...] = ()
    invariance_coords: frozenset[int] = frozenset()
    truncation: int = 3
    discrete_coords: frozenset[int] = frozenset()
    automorphism: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("torus dimension must be at least 1")
        rows = tuple(map(tuple, self.automorphism))
        dirs = tuple(map(tuple, self.foliation_dirs))
        object.__setattr__(self, "automorphism", rows)
        object.__setattr__(self, "foliation_dirs", dirs)
        if rows and len(rows) != n:
            raise ValueError("automorphism: %d row%s, expected n = %d"
                             % (len(rows), "" if len(rows) == 1 else "s", n))
        for key, noun, vectors in (("automorphism", "row", rows),
                                   ("foliation", "direction", dirs)):
            for v in vectors:
                if len(v) != n:
                    raise ValueError(
                        "%s: %s vector has %d entr%s, expected n = %d"
                        % (key, noun, len(v), "y" if len(v) == 1 else "ies",
                           n))
        odd = [x for row in rows for x in row if not isinstance(x, int)]
        if odd:
            raise ValueError("automorphism: entry %s is not an integer"
                             % (odd[0],))
        if not all(isinstance(x, ExtScalar) for v in dirs for x in v):
            raise ValueError("direction entries must be ExtScalar")
        for kind in ("invariance", "discrete"):
            coords = frozenset(getattr(self, kind + "_coords"))
            object.__setattr__(self, kind + "_coords", coords)
            if rows and coords:
                raise ValueError("%s: not allowed with automorphism rows"
                                 % kind)
        if rows and any(map(any, self.parts[1])):
            raise ValueError(
                "foliation: a direction with an alpha part is ROADMAP item "
                "24 phase 3: the modes an irrational foliation leaves form "
                "a lattice of lower rank than its transverse frame")
        if not all(any(a) or any(b) for a, b in zip(*self.parts)):
            raise InvalidSpec("a foliation direction vector is zero")
        for kind in ("invariance", "discrete"):
            for j in getattr(self, kind + "_coords"):
                if not 0 <= j < n:
                    raise ValueError("%s coordinate %d out of range for "
                                     "n = %d" % (kind, j, n))
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")

    @property
    def mode(self) -> str:
        """The cli runner of this job: automorphism when it has rows."""
        return "automorphism" if self.automorphism else "torus"

    @property
    def p(self) -> int:
        return len(self.foliation_dirs)

    @cached_property
    def parts(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(A, B): the rational and alpha parts of each direction, both
        times the lcm of that direction's denominators.  A direction
        scaled by a nonzero constant spans the same line and has the
        same annihilator, so every span, rank and survival test reads
        these integer rows."""
        a, b = [], []
        for v in self.foliation_dirs:
            den = lcm(*(x.rat[1] for x in v), *(x.irr[1] for x in v))
            a.append(tuple(n * (den // d) for n, d in (x.rat for x in v)))
            b.append(tuple(n * (den // d) for n, d in (x.irr for x in v)))
        return tuple(a), tuple(b)
