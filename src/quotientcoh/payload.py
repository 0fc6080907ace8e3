"""The report payload that cli builds and every renderer reads.

Every value is read off the pipeline's report records.  An entry of
koszul, sup_bounds or monotone_violations, and degree_one, is the fields
of its record (KoszulCertificate, SupRecord, MonotoneViolation,
DegreeOneCertificate) with None fields left out, so a new record field
is a new report key.  Cocycles are labelled by the coordinate names of
their complex, with coefficients rendered from exact pairs.
"""

from __future__ import annotations

from .ratio import ratio_str
from .record import fields

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .exterior import MultiIndex
    from .lie import BettiReport
    from .matrix import SparseRow


def _term_join(terms: list[str]) -> str:
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def vector_label(
    vec: SparseRow, monomials: tuple[MultiIndex, ...], names: list[str]
) -> str:
    terms = []
    for j, coeff in vec:
        label = "^".join(names[i] for i in monomials[j])
        if not label:
            terms.append(ratio_str(coeff))
        elif coeff == (1, 1):
            terms.append(label)
        elif coeff == (-1, 1):
            terms.append("-" + label)
        else:
            terms.append("%s*%s" % (ratio_str(coeff), label))
    return _term_join(terms)


def as_json(value):
    """A report value as JSON values: a tuple becomes a list, and a record
    an object of its fields, leaving out a field that is None."""
    if isinstance(value, tuple):
        return [as_json(v) for v in value]
    if hasattr(value, "_record_fields"):
        return {name: as_json(getattr(value, name)) for name in fields(value)
                if getattr(value, name) is not None}
    return value


def named(report, *names: str) -> dict:
    """The named fields of a report record, as JSON values."""
    return {name: as_json(getattr(report, name)) for name in names}


def cohomology(report: BettiReport, names: list[str]) -> tuple:
    """(betti, ranks, generators) of report, labelled by coordinate names."""
    generators = [
        [vector_label(v, monomials, names) for v in gens]
        for gens, monomials in zip(report.generators, report.monomials)
    ]
    return as_json(report.betti), as_json(report.ranks), generators


def build_payload(mode: str, certificates: dict, betti=None, ranks=None,
                  generators=None, audited_modes=None) -> dict:
    return {
        "mode": mode,
        "betti": betti,
        "ranks": ranks,
        "generators": generators,
        "certificates": certificates,
        "audited_modes": audited_modes,
    }
