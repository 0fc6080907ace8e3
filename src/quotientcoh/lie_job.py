"""The [lie] section of a job file.

    [lie]
    dim = 3
    bracket = 0 1 2 1
    ideal = 0,0,1
    space = nilmanifold

``bracket`` lines are ``i j k value``, [e_i, e_j] = value * e_k, read by
the literals module as exact integers and a ratio; ``ideal`` and
``dense_subalgebra`` vectors are read by config.vectors into the
lie.Subspace they span, whose constructor checks their length, and
``space`` by config.choice.  parse_config imports this module for a
[lie] section only, and it imports the algebra and lie modules once the
section's values have parsed, so a Lie job whose values do not parse
loads no pipeline.
"""

from __future__ import annotations

from .config import choice, int_key, vectors
from .errors import ParseError, ValidationError
from .literals import exact_int, exact_ratio
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .lie import Subspace

# the lattice quotients [lie] space may name (see quotientcoh.space)
SPACES = ("nilmanifold", "solvmanifold")


@record
class LieJob:
    """A lie-algebra cohomology job: an algebra, the subspace of an
    optional quotient and the lattice quotient space, if any, it claims
    the cohomology of.  With dense, ideal is the Lie algebra of a dense
    subgroup, and the quotient is by the ideal it generates."""

    algebra: LieAlgebra
    ideal: Subspace | None
    space: str | None = None
    dense: bool = False


def build_lie(section: dict) -> LieJob:
    dim = int_key(section, "lie", "dim")
    if dim < 0:
        raise ValidationError("dim", "dimension must be nonnegative")
    brackets = {}  # (i, j, k) -> the Ratio of [e_i, e_j] at e_k
    for value, line_no in section.get("bracket", ()):
        tokens = value.split()
        if len(tokens) != 4:
            raise ParseError(
                line_no, "bracket", "expected 'bracket = i j k value'"
            )
        ijk = tuple(exact_int("bracket", t) for t in tokens[:3])
        v = exact_ratio("bracket", tokens[3])
        # a repeated key would silently overwrite the first value
        if brackets.setdefault(ijk, v) != v:
            raise ValidationError(
                "bracket", "conflicting values for [e_%d, e_%d] -> e_%d" % ijk
            )
    # each vectors call parses its tokens before key moves on
    ideal, dense = (vectors(section, key,
                            lambda token: exact_ratio(key, token))
                    for key in ("ideal", "dense_subalgebra"))
    if ideal and dense:
        raise ValidationError("dense_subalgebra",
                              "give ideal or dense_subalgebra, not both")
    space = (choice("space", section["space"], SPACES)
             if "space" in section else None)
    from .algebra import LieAlgebra
    from .lie import Subspace

    try:
        algebra = LieAlgebra.from_brackets(dim, brackets)
    except ValueError as exc:
        raise ValidationError("bracket", str(exc)) from exc
    spanned = dense or ideal
    try:  # the span checks the length of each vector
        sub = Subspace.span(dim, spanned) if spanned else None
    except ValueError as exc:
        raise ValidationError("dense_subalgebra" if dense else "ideal",
                              str(exc)) from exc
    return LieJob(algebra, sub, space, bool(dense))
