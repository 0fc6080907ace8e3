"""The ideal that the Lie algebra of a dense subgroup generates.

The paper's closing application, for H a dense subgroup of a connected
Lie group G and h the Lie algebra of H: the forms on G/H are the
H-invariant basic forms of the foliation of G by the orbits of H_0.
By density they are invariant under all of G, so they are the
invariant forms, and being basic for h then means vanishing on
Ad(G) h, the ideal <h> of g that h generates.  So H*(G/H) =
H*(g/<h>), the cohomology of a Lie quotient job.  Density is the job's
assumption: the Lie algebra cannot decide it.

generated_ideal refuses an h that is no subalgebra, then closes h under
brackets with the basis one round at a time (close_once).  A round adds
each [e_i, v], v a basis row of the span it starts from, that the span
grown so far misses, so every added vector is a bracket with a vector
already in the span; the closure stops at the first round that adds
nothing.  A round that adds raises the dimension, so n rounds suffice
on an n-dimensional g.  The brackets of a round are algebra.brackets,
the one sparse product whose rows the ideal test of quotient reads too,
and quotient tests the closed span once more.  Only jobs with a
dense_subalgebra key import this module.
"""

from __future__ import annotations

from .algebra import brackets
from .errors import NotASubalgebra
from .lie import Subspace
from .matrix import IntRow
from .payload import vector_label

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import LieAlgebra


def close_once(g: LieAlgebra, h: Subspace
               ) -> tuple[Subspace, list[tuple[int, IntRow]]]:
    """One round of the closure: the span of h and every [e_i, v] for v a
    basis row of h, and the pairs (i, v) whose bracket was added, each
    one that the span grown before it missed."""
    grown, added = h, []
    for r, row in enumerate(brackets(g, h).int_rows):
        if grown.reduce(row):
            i, b = divmod(r, h.dim)
            added.append((i, h.basis[b]))
            grown = Subspace(g.dim, grown.basis + (row,))
    return grown, added


def generated_ideal(g: LieAlgebra, h: Subspace) -> tuple[Subspace, dict]:
    """(<h>, its certificate), raising NotASubalgebra when a bracket of
    two basis rows of h leaves h.

    [v_a, v_b] is the combination sum_i v_a[i] [e_i, v_b] of the rows of
    algebra.brackets.  The certificate lists each added vector as
    [e_i, v] in the job's coordinates, the basis of <h>, and density as
    the job's assumption.
    """
    products = brackets(g, h).int_rows
    for a, va in enumerate(h.basis):
        for b in range(a + 1, h.dim):
            bracket: dict[int, int] = {}
            for i, x in va:
                for j, y in products[i * h.dim + b]:
                    bracket[j] = bracket.get(j, 0) + x * y
            if h.reduce(bracket):
                raise NotASubalgebra(a, b)
    added = []
    for _ in range(g.dim):
        h, new = close_once(g, h)
        if not new:
            break
        added += new
    names = ["e%d" % i for i in range(g.dim)]
    monomials = [(i,) for i in range(g.dim)]

    def label(v: IntRow) -> str:
        return vector_label(tuple((j, (x, 1)) for j, x in v), monomials, names)

    return h, {
        "added": ["[%s, %s]" % (names[i], label(v)) for i, v in added],
        "generated_ideal": [label(v) for v in h.basis],
        "assumption": "the subgroup is dense in the connected group",
    }
