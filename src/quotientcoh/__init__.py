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

Importing the package loads no pipeline.  Each exported name resolves on
first access, which imports its home module (PEP 562), so
``from quotientcoh import betti`` loads the lie pipeline and nothing of
the torus or the witness.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "algebra": (
        "LieAlgebra", "abelian", "heisenberg", "jacobi_check", "quotient",
        "sl2",
    ),
    "cochain": ("CochainComplex", "ce_complex"),
    "errors": (
        "BoundViolated", "EngineError", "InvalidSpec", "MathematicalRefusal",
        "NotALieAlgebra", "NotAdapted", "NotAnIdeal", "ParseError",
        "ValidationError",
    ),
    "exterior": ("enumerate_basis",),
    "foliation": ("TorusSpec",),
    "koszul": ("KoszulCertificate", "build_mode_complex", "koszul_certificate"),
    "lie": ("BettiReport", "Subspace", "betti"),
    "literals": ("parse_ext_scalar",),
    "matrix": ("ExactMatrix",),
    "scalars": ("ExtScalar", "nullspace_basis", "rank", "rref"),
    "sign_twist": ("phi_sign_check",),
    "torus": (
        "TorusBettiReport", "cross_check_ce", "surviving_modes", "torus_betti",
        "transverse_frame",
    ),
    "witness": (
        "BumpFamily", "DegreeOneCertificate", "WitnessReport", "build_bumps",
        "degree_one_obstruction", "verify_bounds",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
