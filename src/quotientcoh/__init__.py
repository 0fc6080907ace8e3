"""Exact cohomology of group quotients via finite invariant complexes.

Three pipelines share an exact linear-algebra core:

  * lie: cochain cohomology of a Lie algebra given by its brackets, or of
    its quotient by an ideal, with certified ranks and representatives;
  * torus: the translation-invariant basic complex of a linear torus
    foliation, computed mode by mode with one acyclicity certificate
    per class of audited nonzero Fourier modes;
  * witness: a numeric bump-family construction certifying why smooth
    local data need not lift through a quotient map, plus the static
    degree-one obstruction certificate.

The command line entry point is ``engine``; see the cli module.
"""

from .errors import (
    BoundViolated,
    EngineError,
    InvalidSpec,
    MathematicalRefusal,
    ModeKilled,
    NotALieAlgebra,
    NotAnIdeal,
    ParseError,
    ValidationError,
)
from .exterior import enumerate_basis, wedge_insert
from .lie import (
    BettiReport,
    CochainComplex,
    LieAlgebra,
    QuotientAlgebra,
    Subspace,
    abelian,
    betti,
    ce_complex,
    heisenberg,
    ideal_check,
    jacobi_check,
    phi_sign_check,
    quotient,
    sl2,
)
from .scalars import ExactMatrix, ExtScalar, nullspace_basis, parse_ext_scalar, rank, rref
from .torus import (
    KoszulCertificate,
    Mode,
    ModeComplex,
    TorusBettiReport,
    TorusSpec,
    build_mode_complex,
    cross_check_ce,
    koszul_certificate,
    surviving_modes,
    survives,
    torus_betti,
    transverse_frame,
)
from .witness import (
    BumpFamily,
    DegreeOneCertificate,
    WitnessReport,
    build_bumps,
    degree_one_obstruction,
    lift_obstruction,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BettiReport",
    "BoundViolated",
    "BumpFamily",
    "CochainComplex",
    "DegreeOneCertificate",
    "EngineError",
    "ExactMatrix",
    "ExtScalar",
    "InvalidSpec",
    "KoszulCertificate",
    "LieAlgebra",
    "MathematicalRefusal",
    "Mode",
    "ModeComplex",
    "ModeKilled",
    "NotALieAlgebra",
    "NotAnIdeal",
    "ParseError",
    "QuotientAlgebra",
    "Subspace",
    "TorusBettiReport",
    "TorusSpec",
    "ValidationError",
    "WitnessReport",
    "abelian",
    "betti",
    "build_bumps",
    "build_mode_complex",
    "ce_complex",
    "cross_check_ce",
    "degree_one_obstruction",
    "enumerate_basis",
    "heisenberg",
    "ideal_check",
    "jacobi_check",
    "koszul_certificate",
    "lift_obstruction",
    "nullspace_basis",
    "parse_ext_scalar",
    "phi_sign_check",
    "quotient",
    "rank",
    "rref",
    "sl2",
    "surviving_modes",
    "survives",
    "torus_betti",
    "transverse_frame",
    "verify_bounds",
    "wedge_insert",
]
