"""Exception hierarchy shared across the package.

Errors split into two families: mathematical refusals (the input is
well-formed but names an object the theory rejects, such as a subspace
that is not an ideal) and input errors (the job file itself is bad).
The command line maps the first family to exit code 2 and the second,
together with genuine internal failures, to exit code 1.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised deliberately by this package."""


class MathematicalRefusal(EngineError):
    """The job is syntactically fine but mathematically inadmissible."""


class NotAnIdeal(MathematicalRefusal):
    """The requested quotient subspace is not closed under the bracket."""

    def __init__(self, basis_index: int, generator_index: int):
        self.basis_index = basis_index
        self.generator_index = generator_index
        super().__init__(
            "bracket of basis vector %d with subspace generator %d "
            "leaves the subspace" % (basis_index, generator_index)
        )


class NotASubalgebra(MathematicalRefusal):
    """The vectors of a dense_subalgebra job span no subalgebra."""

    def __init__(self, first: int, second: int):
        super().__init__(
            "bracket of subalgebra generators %d and %d leaves their span"
            % (first, second)
        )


class NotALieAlgebra(MathematicalRefusal):
    """A bracket matrix fails the Jacobi identity."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(
            "Jacobi identity fails at basis triple %r" % (triple,)
        )


class NotAdapted(MathematicalRefusal):
    """A Lie job's basis is not adapted to the lattice quotient it names:
    a bracket leaves the flag of ideals that the claim rests on."""

    def __init__(self, space: str, bracket: tuple[str, str, str]):
        self.space = space
        self.bracket = bracket
        super().__init__(
            "this basis is not adapted to a %s: [%s, %s] has a nonzero %s "
            "component" % (space, *bracket)
        )


class InvalidSpec(MathematicalRefusal):
    """A foliation description is degenerate (dependent direction vectors)."""


class BoundViolated(EngineError):
    """A measured derivative sup exceeded its certified bound.

    The bounds are mathematical identities of the construction, so this
    error always indicates an implementation bug, never bad input.
    """

    def __init__(self, level: int, order: int, measured: float, bound: float):
        self.level = level
        self.order = order
        self.measured = measured
        self.bound = bound
        super().__init__(
            "derivative sup at level k=%d, order m=%d measured %.17g "
            "exceeds bound %.17g" % (level, order, measured, bound)
        )


class NonFiniteValue(EngineError):
    """A float the witness pipeline certifies came out NaN or infinite.

    Every comparison with NaN is false, so such a value would pass any
    bound check; it is refused instead.  Like BoundViolated it points at
    an implementation or range problem, never at bad input syntax.
    """

    def __init__(self, what: str, value: float):
        self.what = what
        self.value = value
        super().__init__("%s is not finite (%r)" % (what, value))


class LevelNotRecovered(EngineError):
    """The witness could not read a level off its sampled bumps.

    At a high level the damping exp(-k^2) underflows to 0.0, so no
    sample of f_k is positive and no ratio can be taken; higher still,
    the sample points of I_k round onto its ends and the level cannot
    be sampled at all.  Like
    BoundViolated it points at a range or implementation problem, never
    at bad input syntax.
    """


class ParseError(EngineError):
    """A job file line could not be parsed.

    Carries the 1-based line number and the offending key when known.
    """

    def __init__(self, line_no: int, key: str | None, reason: str):
        self.line_no = line_no
        self.key = key
        self.reason = reason
        where = "line %d" % line_no
        if key:
            where += ", key %r" % key
        super().__init__("%s: %s" % (where, reason))


class ValidationError(EngineError):
    """A job file parsed but its values are inconsistent or out of range."""

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__("key %r: %s" % (key, reason))
