"""Torus jobs modulo translations with the discrete topology: the paper's
non-second-countable case, computed.

A [torus] job with ``discrete = j, ...`` lets H hold every translation
of T^n along e_j, for each j of those coordinates J, with the discrete
topology.  Such an H is not second countable and its identity component
is trivial, so the foliation by its identity orbits adds nothing to the
job's, and the paper identifies Omega(M/H) with Omega(M, F)^H only under
its subduction condition.  Both sides are torus jobs:

  * Omega(M, F)^H, the H-invariant basic forms, is the job with J added
    to its invariance coordinates: a form invariant under every
    translation along e_j has no Fourier mode with m_j != 0.  It gives
    the report's Betti numbers, generators and audit.
  * Omega(M/H) depends only on the H-orbits, which the translations
    along e_j with their usual topology have too, so it is the basic
    complex of the foliation by the directions and each e_j that they do
    not already span.  Whether they span e_j is the frame's stand-in
    rank argument: torus.transverse_frame refuses the directions with
    e_j appended iff they are dependent.

Pullback by the quotient map takes the second complex into the first.
Where the Betti vectors differ it is not onto, so by the theorem's
contrapositive the subduction condition fails, and the certificate names
the first degree where they differ.  Where they agree it says "no
obstruction found" and nothing more.  On T^1 with J = {0} this computes
the witness pipeline's static degree-one certificate: (1, 1) against
(1).  Only jobs with a discrete key import this module.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import InvalidSpec
from .record import replace
from .scalars import ExtScalar
from .torus import transverse_frame

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .foliation import TorusSpec


def discrete_jobs(spec: TorusSpec) -> tuple[TorusSpec, TorusSpec]:
    """(the Omega(M, F)^H job, the Omega(M/H) job) of a job with discrete
    coordinates J; neither has any.  Each e_j, j in J in increasing
    order, is appended to the directions unless they span it already."""
    quotient = replace(spec, discrete_coords=frozenset())
    invariant = replace(quotient, invariance_coords=(
        spec.invariance_coords | spec.discrete_coords))
    for j in sorted(spec.discrete_coords):
        grown = replace(quotient, foliation_dirs=quotient.foliation_dirs + (
            tuple(ExtScalar(int(i == j)) for i in range(spec.n)),))
        try:
            transverse_frame(grown)
        except InvalidSpec:
            continue  # e_j is a combination of the directions
        quotient = grown
    return invariant, quotient


def discrete_certificate(invariant: tuple[int, ...],
                         quotient: tuple[int, ...]) -> dict:
    """Both Betti vectors and the first degree where they differ, None
    when they agree."""
    first = next((k for k, (a, b) in enumerate(
        zip_longest(invariant, quotient, fillvalue=0)) if a != b), None)
    return {
        "invariant_basic_betti": list(invariant),
        "quotient_betti": list(quotient),
        "first_difference": first,
        "conclusion": "no obstruction found" if first is None else
        "pullback not onto in degree %d: the subduction condition fails"
        % first,
    }
