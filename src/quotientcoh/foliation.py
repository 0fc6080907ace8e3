"""Linear torus foliations, as a torus job states them.

A constant-coefficient foliation of the n-torus is spanned by direction
vectors whose entries are rational or rational + rational*alpha for one
fixed irrational alpha (scalars.ExtScalar).  A TorusSpec holds those
directions, the coordinates of dense translation invariance, the
truncation of the mode audit and the coordinates of discrete
translations (the discrete module), and clears each direction once into
the integer rows every span, rank and survival test of the torus
pipeline reads.  It is all a job needs to be read and refused, so a torus job
refused while its spec is built compiles none of that pipeline.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .errors import InvalidSpec
from .record import record
from .scalars import ExtScalar


@record
class TorusSpec:
    """A linear foliation of T^n with translation-invariance coordinates.

    foliation_dirs are the spanning direction vectors (entries
    ExtScalar), and parts their one integer form; invariance_coords are
    the coordinates of dense translation invariance; truncation bounds
    the sup norm of the nonzero modes audited by torus_betti;
    discrete_coords are the coordinates j of a job modulo every
    translation along e_j with the discrete topology, which torus_betti
    does not read (see the discrete module).
    """

    n: int
    foliation_dirs: tuple[tuple[ExtScalar, ...], ...] = ()
    invariance_coords: frozenset[int] = frozenset()
    truncation: int = 3
    discrete_coords: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus dimension must be at least 1")
        object.__setattr__(
            self,
            "foliation_dirs",
            tuple(tuple(v) for v in self.foliation_dirs),
        )
        for v in self.foliation_dirs:
            if len(v) != self.n:
                raise ValueError(
                    "direction vector length %d != n = %d" % (len(v), self.n)
                )
            if not all(isinstance(x, ExtScalar) for x in v):
                raise ValueError("direction entries must be ExtScalar")
        if not all(any(a) or any(b) for a, b in zip(*self.parts)):
            raise InvalidSpec("a foliation direction vector is zero")
        for kind in ("invariance", "discrete"):
            coords = frozenset(getattr(self, kind + "_coords"))
            object.__setattr__(self, kind + "_coords", coords)
            for j in coords:
                if not 0 <= j < self.n:
                    raise ValueError("%s coordinate %d out of range for "
                                     "n = %d" % (kind, j, self.n))
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")

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
