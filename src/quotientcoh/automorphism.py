"""Tori modulo a linear automorphism: H = Z acting on T^n by A in GL(n, Z).

A [torus] job with ``automorphism =`` rows, n rows of n integers, is the
quotient of T^n by the group generated by the matrix A of those rows.
H = Z is second countable and acts locally freely, its identity
component is trivial, and the foliation by its identity orbits is the
foliation by points, so the paper identifies Omega(T^n / H) with the
A-invariant forms Omega(T^n)^A.  For a hyperbolic A the orbits are
dense, and the quotient is as wild as the irrational torus.

The invariant forms, by the orbit argument.  A acts on the Fourier
modes by m -> A^T m, and an invariant k-form has c_(A^T m) = Lambda^k
A^T c_m, so along an orbit its coefficients change by at most a fixed
exponential rate.  A nonzero orbit is finite iff some A^j fixes a
nonzero integer vector, that is, iff A has an eigenvalue that is a root
of unity.  When A has none, take the smallest rational A-invariant
subspace that holds a nonzero integer vector.  By Kronecker's theorem
(an integer polynomial whose roots all lie on the unit circle has only
roots of unity for roots) it carries an eigenvalue of modulus above 1,
and, since its characteristic polynomial has constant term +-1, one
below 1.  So each nonzero orbit grows exponentially in both directions,
and rapid decay forces its coefficients to zero.  Then Omega(T^n)^A is
the A-invariant part of the constant forms Lambda(R^n)*, with d = 0,
and b_k = dim ker(Lambda^k A^T - I).

Two checks can fail, and each refuses the job (InvalidSpec): det A is
+-1, so A is invertible over the integers; and no cyclotomic
polynomial Phi_m with phi(m) <= n divides the characteristic
polynomial of A, an exact integer division.  A root of unity of order
m is a root of Phi_m, which is irreducible of degree phi(m), so the
second check rules out every root-of-unity eigenvalue.  The report
gives b_k, the kernel vectors of Lambda^k A^T - I from the exact
elimination as generators, labelled by dx monomials, and a certificate
that states det A and the m it ruled out.  No differential is built,
so the report's ranks are null.  Only automorphism jobs import this
module; config hands it the [torus] section.
"""

from __future__ import annotations

from math import gcd

from .errors import InvalidSpec, ValidationError
from .exterior import MultiIndex, enumerate_basis, wedge_insert
from .foliation import coordinate_names
from .literals import exact_int
from .matrix import ExactMatrix
from .payload import build_payload, vector_label
from .record import record
from .scalars import lead_one, nullspace_basis

# the [torus] keys an automorphism job refuses: a foliation, invariance
# or discrete coordinates together with A are not supported yet, and no
# mode is audited
REFUSED_KEYS = ("foliation", "invariance", "discrete", "truncation")


@record
class AutomorphismJob:
    """T^n modulo the group generated by the integer matrix A, given by
    its rows."""

    rows: tuple[tuple[int, ...], ...]

    # the cli runner of this job; config reads it as the job's mode
    mode = "automorphism"

    def __post_init__(self):
        n = len(self.rows)
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if not n:
            raise ValueError("the matrix needs at least one row")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("a row of %d entries in a matrix of %d "
                                 "rows" % (len(row), n))


def read_job(section: dict, n: int) -> AutomorphismJob:
    """The job of a [torus] section with automorphism rows: n rows of
    n integers, and none of REFUSED_KEYS."""
    for key in REFUSED_KEYS:
        if key in section:
            raise ValidationError(key, "not allowed with automorphism rows")
    rows = section["automorphism"]
    if len(rows) != n:
        raise ValidationError("automorphism", "%d rows, expected n = %d"
                              % (len(rows), n))
    try:
        return AutomorphismJob(tuple(
            tuple(exact_int("automorphism", token.strip())
                  for token in value.split(","))
            for value, _line in rows))
    except ValueError as exc:
        raise ValidationError("automorphism", str(exc)) from exc


def exterior_power(a: tuple[tuple[int, ...], ...],
                   k: int) -> list[dict[MultiIndex, int]]:
    """Lambda^k A^T, row J for each k-monomial J in lexicographic order:
    the coefficients of A e_j1 ^ ... ^ A e_jk on the monomials e_I,
    which are the k x k minors det A[I, J]."""
    n = len(a)
    out = []
    for monomial in enumerate_basis(n, k):
        wedge = {(): 1}
        for j in reversed(monomial):  # A e_j wedged on from the left
            grown: dict[MultiIndex, int] = {}
            for m, c in wedge.items():
                for i in range(n):
                    hit = wedge_insert(i, m) if a[i][j] else None
                    if hit:
                        sign, merged = hit
                        grown[merged] = (grown.get(merged, 0)
                                         + sign * a[i][j] * c)
            wedge = grown
        out.append(wedge)
    return out


def divide(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of the integer polynomial p by the monic q,
    both lowest coefficient first: exact integer long division."""
    p = list(p)
    d = len(q) - 1
    quotient = [0] * max(len(p) - d, 0)
    for top in range(len(p) - 1, d - 1, -1):
        c = quotient[top - d] = p[top]
        for i, x in enumerate(q):
            p[top - d + i] -= c * x
    return quotient, p[:d]


def cyclotomic(n: int) -> dict[int, list[int]]:
    """Phi_m, lowest coefficient first, for every m with phi(m) <= n, in
    increasing m.  phi(m) >= sqrt(m / 2) bounds m by 2 n^2, and each
    Phi_m is x^m - 1 divided by the Phi_d of its proper divisors d, whose
    phi(d) <= phi(m) puts them in the table already."""
    out: dict[int, list[int]] = {}
    for m in range(1, 2 * n * n + 1):
        if sum(gcd(m, j) == 1 for j in range(1, m + 1)) <= n:
            phi = [-1] + [0] * (m - 1) + [1]
            for d, factor in out.items():
                if m % d == 0:
                    phi = divide(phi, factor)[0]
            out[m] = phi
    return out


def automorphism_payload(job: AutomorphismJob) -> dict:
    """The report of an automorphism job, or InvalidSpec when A fails
    either check (see the module docstring)."""
    a = job.rows
    n = len(a)
    powers = [exterior_power(a, k) for k in range(n + 1)]
    # tr Lambda^k A: det(x - A) = sum_k (-1)^k tr(Lambda^k A) x^(n - k)
    traces = [sum(row.get(monomial, 0) for monomial, row in
                  zip(enumerate_basis(n, k), rows))
              for k, rows in enumerate(powers)]
    det = traces[n]
    if det not in (1, -1):
        raise InvalidSpec("the automorphism has determinant %d, not +-1: "
                          "it is not invertible over the integers" % det)
    charpoly = [(-1) ** (n - d) * traces[n - d] for d in range(n + 1)]
    ruled_out = []
    for m, phi in cyclotomic(n).items():
        if not any(divide(charpoly, phi)[1]):
            raise InvalidSpec(
                "Phi_%d divides the characteristic polynomial of the "
                "automorphism: it has an eigenvalue that is a root of unity "
                "of order %d, so some nonzero modes have finite orbits, "
                "which need the component-group invariants of ROADMAP "
                "item 3" % (m, m))
        ruled_out.append(m)
    names = ["d" + name for name in coordinate_names(n)]
    betti, generators = [], []
    for k, rows in enumerate(powers):
        monomials = enumerate_basis(n, k)
        column = {monomial: c for c, monomial in enumerate(monomials)}
        fixed = []  # the rows of Lambda^k A^T - I
        for c, row in enumerate(rows):
            entries = {column[monomial]: x for monomial, x in row.items()}
            entries[c] = entries.get(c, 0) - 1
            fixed.append(entries)
        kernel = nullspace_basis(
            ExactMatrix.from_int_rows(len(monomials), 1, fixed))
        betti.append(len(kernel))
        generators.append([vector_label(lead_one(v), monomials, names)
                           for v in kernel])
    certificate = {"determinant": det, "cyclotomic_factors_ruled_out":
                   ruled_out}
    return build_payload("automorphism", {"automorphism": certificate},
                         betti, None, generators)
