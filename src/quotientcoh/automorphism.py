"""Tori modulo a linear automorphism: H = Z acting on T^n by A in GL(n, Z),
and with a rational foliation that A preserves.

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

With ``foliation =`` rows beside A (phase 2), H = R^p x| Z: the
translations along W, the span of p rational directions, and A, which
must map W onto itself.  H_0 = R^p, and the paper identifies the
quotient's forms with the A-invariant forms that are basic for the
foliation by W.  A basic form has its modes m in the lattice W^perp cap
Z^n and its coefficients in Lambda((R^n / W)*).  Since A W = W, A^T maps
W^perp to itself, so that lattice is A^T-stable, and A^T acts on it
through the dual of the map A-bar that A induces on R^n / W; that
lattice has rank n - p and A-bar has det +-1 on it.  The orbit argument
above, run on this lattice with A-bar in place of A, leaves the zero
mode alone when A-bar has no root-of-unity eigenvalue, and then
b_k = dim ker(Lambda^k A-bar^T - I).  A itself is not tested: a shear
that fixes a direction of W has the eigenvalue 1 and may still induce
a hyperbolic A-bar.  A direction with an alpha part is refused: the
modes an irrational foliation leaves form a lattice of rank below
n - p, which needs its own orbit count (ROADMAP item 24, phase 3).

Finite order.  When the map X, A or A-bar, has finite order r, H = Z
acts through Z/r, and the orbit argument does not apply: every nonzero
orbit is finite.  The identification above still holds, since a discrete
group acts locally freely.  Averaging over Z/r, P = (1/r) sum_j (X^j)^*,
projects the forms onto the invariant ones and commutes with d, so the
invariant forms have for cohomology the invariant part of the
cohomology of the torus (Bredon, Introduction to Compact Transformation
Groups, Academic Press 1972, ch. III, on orbit spaces of finite groups):
of T^n, or, with a foliation, of the leaf space T^(n - p), on which A
acts by A-bar.  That cohomology is the constant forms, on which X acts
by Lambda^k X^T, so again b_k = dim ker(Lambda^k X^T - I).

Whether X, a q x q rational matrix, has a root-of-unity eigenvalue or
finite order is read off one table.  A root of unity of order m is a
root of the cyclotomic polynomial Phi_m, irreducible over Q of degree
phi(m), so its m has phi(m) <= q; the set of those m holds every
divisor of its members, since phi(d) <= phi(m) when d | m, and M is its
largest.  For each such m let e_m = dim ker Phi_m(X).  Since x^m - 1 is
the product of the Phi_d(x) over d | m, and these are pairwise coprime,
ker(X^m - I) is the direct sum of the ker Phi_d(X) over d | m, so
q - rank(X^m - I) = sum of e_d over d | m, and e_m is that number less
the e_d of the divisors d < m.  The kernels ker Phi_m(X) of distinct m
are independent, for the same reason.  X has finite order iff they fill
Q^q, that is, iff the e_m sum to q: X^m = I on ker Phi_m(X), and if
X^r = I, Q^q = ker(X^r - I) is the sum of the ker Phi_d(X) over d | r.
The order is then lcm{m : e_m > 0}: on a nonzero ker Phi_m(X) the
minimal polynomial of X is the irreducible Phi_m, which divides x^s - 1
iff m | s.  The table takes the powers X, X^2, ..., X^M, each from the
last, and the rank of X^m - I for each m in the set; it forms no power
of X past X^M (M = 60 for q = 16).

The checks, each refusing the job (InvalidSpec): det A is +-1, so A is
invertible over the integers; with a foliation, the directions are
nonzero and independent and A maps each echelon row of W into W; and,
for X = A and q = n or X = A-bar and q = n - p, the table gives one of
three verdicts.  Every e_m = 0: X has no root-of-unity eigenvalue, the
orbit argument applies, and the certificate lists the m ruled out.  The
e_m sum to q: X has finite order r = lcm{m : e_m > 0}, and the forms
are averaged over Z/r.  Otherwise X has a root-of-unity eigenvalue and
infinite order, such as the Dehn twist [[1, 1], [0, 1]], whose
invariant forms have an infinite-dimensional H^2, and the job is
refused at the least m with e_m > 0, which is the least m with X^m - I
singular: the least m with Phi_m dividing the characteristic
polynomial.  A-bar is read on the complement coordinates of W, as Lie
quotients read their induced brackets.  The invariant forms are the
subcomplex.Subcomplex of the constant forms, the complex of abelian
R^q with d = 0, cut out by the rows of Lambda^k X^T - I that the
subcomplex module builds in each degree k, and lie.betti computes
their cohomology as it does a Lie job's.  The report gives b_k, its
ranks (the restricted differentials, all 0), the kernel vectors of
Lambda^k X^T - I as generators, labelled by
payload.cohomology over the dx monomials of those coordinates, and a
certificate that states det A, read off the one entry of Lambda^n A^T,
and either the m it ruled out or the finite order r.  With a foliation
those were tested on A-bar, not on A, so the certificate nests them
under ``induced_map`` beside A-bar's coordinates.

This module reads no job text.  config's torus builder reads every
[torus] value once into one foliation.TorusSpec, with the readers every
job section shares, and refuses a truncation beside the rows; the spec
checks n, the directions and the shape of the rows, and refuses
invariance or discrete coordinates and an alpha part beside them, so a
job refused there never imports this module.  This module reads
the spec's automorphism rows once, into the ExactMatrix A^T (row j is
A e_j), and the rational parts of its directions.
Only automorphism jobs import this module, and with it the Lie pipeline
and the subcomplex module.
"""

from __future__ import annotations

from math import gcd, lcm

from .algebra import abelian
from .cochain import ce_complex
from .errors import InvalidSpec
from .foliation import DEPENDENT_DIRECTIONS, coordinate_names
from .lie import Subspace, betti
from .matrix import ExactMatrix
from .payload import build_payload, cohomology
from .scalars import rank
from .subcomplex import Subcomplex, exterior_power, minus_identity

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .foliation import TorusSpec

def induced_map(spec: TorusSpec, x: ExactMatrix
                ) -> tuple[ExactMatrix, tuple[int, ...]]:
    """(A-bar^T, coordinates), for the map A-bar that A induces on
    R^n / W, W the span of the foliation directions, given x = A^T: its
    integer rows over W.scale on the complement coordinates of W, or
    InvalidSpec when the directions are dependent or A moves W.  Row p
    is A e_c, c the p-th complement coordinate, reduced along W, which
    Subspace.reduce returns times W.scale."""
    directions = spec.parts[0]
    n = x.rows
    w = Subspace.span(n, directions)
    if w.dim < len(directions):
        raise InvalidSpec(DEPENDENT_DIRECTIONS)
    images = ExactMatrix(n, 1, w.basis) @ x  # row i: A times basis row i
    for row, image in zip(w.basis, images.int_rows):
        if w.reduce(image):
            raise InvalidSpec(
                "the automorphism moves the foliation: it maps (%s), in "
                "the span of the directions, out of that span"
                % ", ".join(str(dict(row).get(j, 0)) for j in range(n)))
    position = {c: p for p, c in enumerate(w.complement)}
    return ExactMatrix.from_int_rows(len(position), w.scale, [
        {position[j]: v for j, v in w.reduce(x.int_rows[c]).items()}
        for c in w.complement]), w.complement


def automorphism_payload(spec: TorusSpec) -> dict:
    """The report of an automorphism job, or InvalidSpec when A fails
    a check (see the module docstring)."""
    n = len(spec.automorphism)
    # A^T, row j the image A e_j, and with a foliation A-bar^T: X^T for
    # the map X tested, whose powers fix spaces of the dimensions that
    # X's powers fix
    x = ExactMatrix.from_rows(list(zip(*spec.automorphism)))
    det = dict(exterior_power(x, n).int_rows[0]).get(0, 0)  # 1 x 1
    if det not in (1, -1):
        raise InvalidSpec("the automorphism has determinant %d, not +-1: "
                          "it is not invertible over the integers" % det)
    coordinates, noun = range(n), "automorphism"
    if spec.foliation_dirs:
        x, coordinates = induced_map(spec, x)
        noun = "map the automorphism induces across the foliation"
    q = x.rows
    # phi(m) >= sqrt(m / 2), so every m with phi(m) <= q is below 2 q^2
    orders = [m for m in range(1, 2 * q * q + 1)
              if sum(gcd(m, j) == 1 for j in range(1, m + 1)) <= q]
    # kernel[m] = dim ker Phi_m(X), q - rank(X^m - I) less the kernel[d]
    # of the divisors d < m of m
    kernel: dict[int, int] = {}
    for m in range(1, max(orders, default=0) + 1):
        power = power @ x if m > 1 else x
        if m in orders:
            kernel[m] = q - rank(minus_identity(power)) - sum(
                e for d, e in kernel.items() if m % d == 0)
    factors = [m for m in orders if kernel[m]]
    if factors and sum(kernel.values()) < q:
        raise InvalidSpec(
            "Phi_%d divides the characteristic polynomial of the %s: it "
            "has an eigenvalue that is a root of unity of order %d, so "
            "some nonzero modes have finite orbits, and it has infinite "
            "order, so no finite group average gives its invariant forms "
            "(ROADMAP item 29, phase 2)" % (factors[0], noun, factors[0]))
    names = coordinate_names(n)
    names = [names[c] for c in coordinates]
    # the invariant forms: the constant forms (d = 0) that each
    # Lambda^k X^T fixes
    report = betti(Subcomplex(ce_complex(abelian(q)), [
        minus_identity(exterior_power(x, k)) for k in range(q + 1)]))
    # the finite order or the orders ruled out, of A-bar, with its
    # coordinates, when the job has a foliation; det is A's in either case
    tested = ({"finite_order": lcm(*factors)} if factors
              else {"cyclotomic_factors_ruled_out": orders})
    if spec.foliation_dirs:
        tested = {"induced_map": {"coordinates": names, **tested}}
    return build_payload("automorphism", {"automorphism": {
        "determinant": det, **tested}}, *cohomology(
            report, ["d" + name for name in names]))
