"""Tori modulo a linear automorphism A in GL(n, Z): the job file, read
into the section's one TorusSpec, the two checks that refuse A (det A =
+-1, and finite order when some A^m with phi(m) <= n fixes a vector),
with the order and the refused m against dense oracles, on hidden
cyclotomic blocks and on a T^16 job that must finish quickly, and the
invariant forms ker(Lambda^k A^T - I), against a dense oracle, against
averaging over Z/r when A has finite order r, and under unimodular
conjugation.  With foliation rows (phase 2) the same checks
and forms run on the map A-bar that A induces on R^n modulo the
directions, after the refusals of a zero, dependent, alpha or moved
direction; A-bar is checked against a dense Fraction solve.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from oracles import (averaged_form_dimensions, dense_order, det_gauss,
                     det_laplace, fixed_form_dimensions, gauss_rank,
                     invert_fraction_matrix)
from quotientcoh import InvalidSpec, TorusSpec, ValidationError
from quotientcoh.automorphism import automorphism_payload
from quotientcoh.cli import main, run_job
from quotientcoh.config import parse_config

CAT = ((2, 1), (1, 1))
GOLDEN = ((1, 1), (1, 0))
PLASTIC = ((0, 0, 1), (1, 0, 1), (0, 1, 0))  # companion of x^3 - x - 1
ROWS = [(CAT, [1, 0, 1]), (GOLDEN, [1, 0, 0]), (PLASTIC, [1, 0, 0, 1])]
# fixes e_z and induces the cat map on R^3 modulo the z direction
SHEAR = ((2, 1, 0), (1, 1, 0), (1, -1, 1))


def _text(a) -> str:
    return "[torus]\nn = %d\n" % len(a) + "".join(
        "automorphism = %s\n" % ",".join(map(str, row)) for row in a)


def _betti(a) -> list[int]:
    return automorphism_payload(TorusSpec(len(a), automorphism=a))["betti"]


def test_the_oracle_minors_by_elimination_are_the_cofactor_expansions():
    # the exterior-power oracles read each minor by Gaussian elimination;
    # it agrees with first-row cofactor expansion, rational entries and
    # singular matrices included
    rng = random.Random(51)
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                 if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a repeated row
            rows[-1] = list(rows[0])
        assert det_gauss(rows) == det_laplace(rows), rows


def _multiply(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _unimodular(rng: random.Random, n: int):
    """A random P in GL(n, Z) and its inverse: a product of elementary
    matrices E = I + c e_j e_i^T (row j += c row i), whose inverse
    subtracts c times column j from column i."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in p]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[j] = [x + c * y for x, y in zip(p[j], p[i])]
        for row in inverse:
            row[i] -= c * row[j]
    return p, inverse


def _companion(*c):
    """The companion matrix of x^k + c[k-1] x^(k-1) + ... + c[0]."""
    k = len(c)
    return tuple(tuple(-c[i] if j == k - 1 else int(i == j + 1)
                       for j in range(k)) for i in range(k))


# the cyclotomic polynomials Phi_m, m = 1, 2, 3, 4, 5, 8, 10, 12, as
# companion matrices, and two blocks of infinite order
PHI = {1: _companion(-1), 2: _companion(1), 3: _companion(1, 1),
       4: _companion(1, 0), 5: _companion(1, 1, 1, 1),
       8: _companion(1, 0, 0, 0), 10: _companion(1, -1, 1, -1),
       12: _companion(1, 0, -1, 0)}
DEHN = ((1, 1), (0, 1))


def _hidden(*blocks):
    """P (B_1 + ... + B_s) P^-1 for a fixed unimodular P: the block sum,
    with its blocks mixed so that no block shows in the rows."""
    n = sum(map(len, blocks))
    total = [[0] * n for _ in range(n)]
    lo = 0
    for block in blocks:
        for i, row in enumerate(block):
            total[lo + i][lo:lo + len(row)] = row
        lo += len(block)
    p, inverse = _unimodular(random.Random(n), n)
    return _multiply(_multiply(p, total), inverse)


@pytest.mark.parametrize("a, betti", ROWS, ids=["cat", "golden", "plastic"])
def test_the_catalogue_rows(a, betti):
    payload, code = run_job(parse_config(_text(a)))
    assert code == 0
    assert payload["mode"] == "automorphism"
    assert payload["betti"] == betti == fixed_form_dimensions(a)
    # the invariant forms have d = 0: every restricted rank is 0
    assert (payload["ranks"], payload["audited_modes"]) == (
        [0] * len(a), None)
    # the constants and, where A preserves orientation, the volume form
    top = "^".join("d" + x for x in "xyz"[:len(a)])
    assert payload["generators"] == [
        ["1"]] + [[]] * (len(a) - 1) + [[top] if betti[-1] else []]
    assert payload["certificates"] == {"automorphism": {
        "determinant": 1 if a != GOLDEN else -1,
        "cyclotomic_factors_ruled_out": [1, 2, 3, 4, 6]}}


def _form(label: str, names: list[str]) -> dict:
    """The {monomial: Fraction} coefficients of a generator label such as
    'dx0^dx2 - 1/3*dx1^dx3'."""
    form = {}
    for term in label.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coefficient, _, monomial = term.lstrip("-").rpartition("*")
        form[tuple(names.index(x) for x in monomial.split("^"))] = (
            sign * Fraction(coefficient or 1))
    return form


def test_the_generators_are_invariant_forms():
    # A = B + B on T^4 with B = [[2, 1], [3, 2]], not symmetric: its
    # invariant 2-forms include mixed ones, and the pullback
    # A^* dx_I = sum_J det A[I, J] dx_J fixes each labelled generator
    b = ((2, 1), (3, 2))
    a = tuple(tuple(b[i % 2][j % 2] if i // 2 == j // 2 else 0
                    for j in range(4)) for i in range(4))
    payload = automorphism_payload(TorusSpec(len(a), automorphism=a))
    assert payload["betti"] == [1, 0, 4, 0, 1] == fixed_form_dimensions(a)
    names = ["dx%d" % i for i in range(4)]
    for k, labels in enumerate(payload["generators"]):
        monomials = list(combinations(range(4), k))
        for label in labels:
            form = _form(label, names) if k else {(): Fraction(label)}
            pulled = {cols: sum(c * det_laplace([[a[i][j] for j in cols]
                                                 for i in mono])
                                for mono, c in form.items())
                      for cols in monomials}
            assert pulled == {cols: form.get(cols, 0) for cols in monomials}


# A with a root-of-unity eigenvalue, the least order m of one, and the
# order r of A when it is finite: such an A runs, averaged over Z/r, and
# one of infinite order is refused at m
@pytest.mark.parametrize("a, m, r", [
    (((1, 1), (0, 1)), 1, None),  # the Dehn twist: 1 is an eigenvalue
    (((-1,),), 2, 2),
    (((0, -1), (1, -1)), 3, 3),
    (((0, -1), (1, 0)), 4, 4),
    (((0, -1), (1, 1)), 6, 6),
    (((1, 0, 0), (0, 2, 1), (0, 1, 1)), 1, None),  # the cat map times a circle
    # two orders at once: the least is named, and r is their lcm
    (((-1, 0, 0), (0, 0, -1), (0, 1, 0)), 2, 4),  # (-1) + a quarter turn
    (((0, -1, 0, 0), (1, -1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)), 3, 12),
    # without its foliation (phase 2), where the induced map is tested
    (SHEAR, 1, None),
    # cyclotomic blocks of degree 4, alone and beside others, conjugated
    # by a unimodular P: the order is the lcm of the blocks' orders, and
    # a block of infinite order is refused at the least m
    (_hidden(PHI[5]), 5, 5),
    (_hidden(PHI[8]), 8, 8),
    (_hidden(PHI[10]), 10, 10),
    (_hidden(PHI[12]), 12, 12),
    (_hidden(PHI[5], PHI[2]), 2, 10),
    (_hidden(PHI[8], PHI[3]), 3, 24),
    (_hidden(PHI[5], PHI[3], PHI[1]), 1, 15),
    (_hidden(PHI[10], CAT), 10, None),
    (_hidden(CAT, PHI[4]), 4, None),
    (_hidden(DEHN, PHI[3]), 1, None),
], ids=["dehn-twist", "minus-one", "order-3", "order-4", "order-6",
        "cat-times-circle", "orders-2-and-4", "orders-3-and-4", "shear",
        "phi5", "phi8", "phi10", "phi12", "phi5-phi2", "phi8-phi3",
        "phi5-phi3-phi1", "phi10-cat", "cat-phi4", "dehn-phi3"])
def test_a_root_of_unity_eigenvalue_is_refused_at_its_order(
        tmp_path, capsys, a, m, r):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(_text(a))
    assert dense_order(a) == r
    if r is not None:
        assert main(["--input", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["betti"] == averaged_form_dimensions(a, r)
        assert payload["certificates"] == {"automorphism": {
            "determinant": det_laplace(a), "finite_order": r}}
        assert main(["--input", str(cfg), "--format", "table"]) == 0
        assert capsys.readouterr().out.splitlines()[-2] == (
            "automorphism: det %d, finite order %d, invariant forms "
            "averaged over Z/%d" % (det_laplace(a), r, r))
        return
    assert main(["--input", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "engine: refused: InvalidSpec: Phi_%d divides the characteristic "
        "polynomial of the automorphism" % m)
    assert "and it has infinite order" in captured.err
    assert "ROADMAP item 29, phase 2" in captured.err


def test_a_large_torus_with_a_fixed_direction_is_refused_quickly(tmp_path):
    # cat + I_14 on T^16: Phi_1 divides, and A has infinite order.  The
    # verdict reads q - rank(A^m - I) for the m with phi(m) <= 16, up to
    # m = 60, and forms no higher power of A; a subprocess with a timeout
    # fails this test instead of hanging the suite if that ever grows
    a = tuple(tuple(CAT[i][j] if i < 2 and j < 2 else int(i == j)
                    for j in range(16)) for i in range(16))
    cfg = tmp_path / "job.cfg"
    cfg.write_text(_text(a))
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(cfg)],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        "engine: refused: InvalidSpec: Phi_1 divides the characteristic "
        "polynomial of the automorphism")


@pytest.mark.parametrize("a", [((2, 0), (0, 1)), ((1, 2), (2, 1)),
                               ((0, 0), (0, 0))], ids=["2", "-3", "0"])
def test_a_matrix_that_is_not_unimodular_is_refused(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    with pytest.raises(InvalidSpec, match="determinant %d, not " % det):
        _betti(a)


@pytest.mark.parametrize("a, betti", ROWS, ids=["cat", "golden", "plastic"])
def test_a_unimodular_conjugate_gives_the_same_numbers(a, betti):
    rng = random.Random(len(a))
    for _ in range(5):
        p, inverse = _unimodular(rng, len(a))
        assert _multiply(p, inverse) == tuple(
            tuple(int(i == j) for j in range(len(a))) for i in range(len(a)))
        conjugate = _multiply(_multiply(p, a), inverse)
        assert _betti(conjugate) == betti, conjugate


def _least_root_of_unity_order(a) -> int | None:
    """The least m with det(A^m - I) = 0, or None: an eigenvalue of
    order m has phi(m) <= n, so m <= 2 n^2, and then A^m - I is
    singular."""
    n = len(a)
    power = a
    for m in range(1, 2 * n * n + 1):
        if det_laplace([[x - (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(power)]) == 0:
            return m
        power = _multiply(power, a)
    return None


def _check_verdict(payload_of, x, tested_of):
    """Run payload_of(), and check its verdict on the map X against the
    dense oracles: a refusal names the least m with det(X^m - I) = 0
    when X has such an m and infinite order, and otherwise the
    certificate, tested_of(payload), holds X's finite order or, when X
    has none, the orders ruled out.  Returns the payload, or None."""
    least, order = _least_root_of_unity_order(x), dense_order(x)
    if least is not None and order is None:
        with pytest.raises(InvalidSpec, match="root of unity") as caught:
            payload_of()
        assert str(caught.value).startswith(
            "Phi_%d divides the characteristic polynomial" % least)
        return None
    payload = payload_of()
    tested = tested_of(payload)
    assert tested.get("finite_order") == order, x
    assert ("cyclotomic_factors_ruled_out" in tested) == (order is None)
    return payload


def test_random_unimodular_matrices_against_the_dense_oracle():
    rng = random.Random(24)
    refused = computed = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        a, _ = _unimodular(rng, n)
        if rng.random() < 0.5:  # a sign flip gives det -1
            a[0] = [-x for x in a[0]]
        a = tuple(map(tuple, a))
        payload = _check_verdict(
            lambda: automorphism_payload(TorusSpec(n, automorphism=a)), a,
            lambda payload: payload["certificates"]["automorphism"])
        if payload is None:
            refused += 1
        else:  # with finite order too: averaging gives the same numbers
            assert payload["betti"] == fixed_form_dimensions(a), a
            computed += 1
    assert refused > 5 and computed > 5


# the spec refuses invariance and discrete coordinates beside the rows,
# and config a truncation, which the spec cannot tell from its default
@pytest.mark.parametrize("key, refused_by, reason", [
    ("invariance", "torus", "invariance: not allowed with automorphism rows"),
    ("discrete", "torus", "discrete: not allowed with automorphism rows"),
    ("truncation", "truncation", "not allowed with automorphism rows")],
    ids=["invariance", "discrete", "truncation"])
def test_automorphism_rows_go_with_no_other_torus_key(
        key, refused_by, reason):
    with pytest.raises(ValidationError) as caught:
        parse_config(_text(CAT) + "%s = 0\n" % key)
    assert (caught.value.key, caught.value.reason) == (refused_by, reason)


@pytest.mark.parametrize("text, key, reason", [
    # the section's one TorusSpec counts the rows and the entries of the
    # rows and the directions, and names the key of each refusal
    ("[torus]\nn = 2\nautomorphism = 2,1\n", "torus",
     "automorphism: 1 row, expected n = 2"),
    ("[torus]\nn = 2\nautomorphism = 2,1\nautomorphism = 1\n",
     "torus", "automorphism: row vector has 1 entry, expected n = 2"),
    ("[torus]\nn = 1\nautomorphism = 1/2\n", "automorphism",
     "cannot parse '1/2'"),
    # a foliation row beside A: an alpha part is phase 3
    (_text(SHEAR) + "foliation = 0,0,1+1*alpha\n", "torus",
     "foliation: a direction with an alpha part is ROADMAP item 24 phase 3"),
    (_text(SHEAR) + "foliation = 0,1\n", "torus",
     "foliation: direction vector has 2 entries, expected n = 3"),
    (_text(SHEAR) + "foliation = 0,0,0.5\n", "foliation",
     "decimal literal '0.5'"),
    # the section's one TorusSpec checks n before the rows are counted
    ("[torus]\nn = 0\nautomorphism = 1\n", "torus",
     "torus dimension must be at least 1"),
    ("[torus]\nn = -1\nautomorphism = 1\n", "torus",
     "torus dimension must be at least 1"),
], ids=["too-few-rows", "short-row", "fraction", "alpha-direction",
        "short-direction", "decimal-direction", "n-zero", "n-minus-one"])
def test_a_malformed_matrix_exits_one(tmp_path, capsys, text, key, reason):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    assert main(["--input", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("engine: configuration error: key '%s'" % key)
    assert reason in err


# Phase 2: A preserves the rational foliation spanned by the directions,
# H = R^p x| Z, and the checks and forms run on the induced map A-bar, on
# the complement coordinates of the directions' echelon rows.
PHASE_TWO = [
    (SHEAR, ((0, 0, 1),), [1, 0, 1], ["dx^dy"], ["x", "y"]),
    (((2, -1, 1), (0, 1, 0), (1, -1, 1)), ((1, 1, 0),), [1, 0, 1],
     ["dy^dz"], ["y", "z"]),  # A-bar = [[2, -1], [-1, 1]]
    (((1, 0, 1), (0, 1, 0), (1, -1, 0)), ((1, 1, 0),), [1, 0, 0], [],
     ["y", "z"]),
]


def _foliated(a, directions) -> str:
    return _text(a) + "".join("foliation = %s\n" % ",".join(map(str, d))
                              for d in directions)


def _foliated_betti(a, directions) -> list[int]:
    return automorphism_payload(parse_config(_foliated(a, directions)).job)[
        "betti"]


def _induced_oracle(a, directions):
    """A-bar on R^n / W, densely: complete the directions by unit vectors
    to a basis B of R^n, solve B c = A e_i for each added unit vector e_i
    and keep the unit-vector coordinates of c."""
    n = len(a)
    basis = [[Fraction(x) for x in d] for d in directions]
    added = []
    for i in range(n):
        unit = [Fraction(int(i == j)) for j in range(n)]
        if gauss_rank(basis + [unit]) > len(basis):
            basis.append(unit)
            added.append(i)
    inverse = invert_fraction_matrix([list(col) for col in zip(*basis)])
    p = len(directions)
    solved = [[sum(row[j] * a[j][i] for j in range(n)) for row in inverse]
              for i in added]  # solved[c]: the B coordinates of A e_c
    return [[solved[c][p + r] for c in range(n - p)] for r in range(n - p)]


@pytest.mark.parametrize("a, directions, betti, top, coordinates",
                         PHASE_TWO, ids=["shear", "tilted", "flip"])
def test_a_preserved_foliation_runs_on_the_induced_map(a, directions,
                                                       betti, top,
                                                       coordinates):
    payload, code = run_job(parse_config(_foliated(a, directions)))
    assert code == 0
    assert payload["betti"] == betti
    assert betti == fixed_form_dimensions(_induced_oracle(a, directions))
    assert payload["generators"] == [["1"], [], top]
    # det is A's; the orders were tested on A-bar, so they sit under it
    assert payload["certificates"]["automorphism"] == {
        "determinant": det_laplace(a), "induced_map": {
            "coordinates": coordinates,
            "cyclotomic_factors_ruled_out": [1, 2, 3, 4, 6]}}


def test_the_shear_table_line_names_the_induced_map(tmp_path, capsys):
    # A fixes e_z, so Phi_1 divides A's characteristic polynomial: the
    # orders ruled out belong to A-bar on x, y, and the line says so
    assert det_laplace([[x - (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(SHEAR)]) == 0
    cfg = tmp_path / "shear.cfg"
    cfg.write_text(_foliated(SHEAR, ((0, 0, 1),)))
    assert main(["--input", str(cfg), "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        "automorphism: det 1, no cyclotomic factor Phi_m of the "
        "characteristic polynomial of the induced map A-bar on x, y for "
        "m = 1 2 3 4 6")


def test_a_foliation_that_spans_the_torus_reads_none_in_the_table(
        tmp_path, capsys):
    # q = 0: A-bar acts on no coordinates and no order m has phi(m) <= 0,
    # so both lists are empty and the line says none, not nothing
    cfg = tmp_path / "spanning.cfg"
    cfg.write_text(_foliated(CAT, ((1, 0), (0, 1))))
    assert main(["--input", str(cfg), "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        "automorphism: det 1, no cyclotomic factor Phi_m of the "
        "characteristic polynomial of the induced map A-bar on none for "
        "m = none")


@pytest.mark.parametrize("a, directions, betti",
                         [row[:3] for row in PHASE_TWO],
                         ids=["shear", "tilted", "flip"])
def test_a_conjugate_foliated_job_gives_the_same_numbers(a, directions,
                                                         betti):
    # x -> P x carries the foliation by W to that by P W and A to
    # P A P^-1
    rng = random.Random(3)
    for _ in range(5):
        p, inverse = _unimodular(rng, 3)
        moved = [tuple(sum(x * y for x, y in zip(row, d)) for row in p)
                 for d in directions]
        conjugate = _multiply(_multiply(p, a), inverse)
        assert _foliated_betti(conjugate, moved) == betti, (conjugate, moved)


def test_random_foliated_jobs_against_the_dense_oracle():
    # A = P [[B, C], [0, D]] P^-1 preserves W = P span(e_0, ..., e_(p-1)),
    # and A-bar is conjugate to D.  Most D of size 1 or with a
    # root-of-unity eigenvalue have finite order, so the jobs are many
    # enough for more than five refusals
    rng = random.Random(45)
    refused = finite = computed = 0
    for _ in range(160):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        block = [[0] * n for _ in range(n)]
        for lo, hi in ((0, p), (p, n)):
            square = ([[1]] if hi - lo == 1 else _unimodular(rng, hi - lo)[0])
            if rng.random() < 0.5:  # a sign flip gives det -1
                square[0] = [-x for x in square[0]]
            for i in range(hi - lo):
                block[lo + i][lo:hi] = square[i]
        for i in range(p):
            block[i][p:] = [rng.randint(-2, 2) for _ in range(n - p)]
        change, inverse = _unimodular(rng, n)
        a = _multiply(_multiply(change, block), inverse)
        directions = [tuple(row[j] for row in change) for j in range(p)]
        induced = _induced_oracle(a, directions)
        order = dense_order(induced)
        payload = _check_verdict(
            lambda: automorphism_payload(
                parse_config(_foliated(a, directions)).job), induced,
            lambda payload: payload["certificates"]["automorphism"][
                "induced_map"])
        if payload is None:
            refused += 1
        else:  # averaged over Z/order when A-bar has finite order
            assert payload["betti"] == fixed_form_dimensions(
                induced), (a, directions)
            finite += order is not None
            computed += order is None
    assert refused > 5 and finite > 5 and computed > 5


@pytest.mark.parametrize("a, directions, reason", [
    (((2, 1, 0), (1, 1, 0), (0, 0, 1)), ((1, 0, 0),),
     "the automorphism moves the foliation: it maps (1, 0, 0), in the "
     "span of the directions, out of that span"),
    # A-bar is the Dehn twist on y, z: of infinite order
    (((1, 0, 0), (0, 1, 1), (0, 0, 1)), ((1, 0, 0),),
     "Phi_1 divides the characteristic polynomial of the map the "
     "automorphism induces across the foliation"),
    (SHEAR, ((0, 0, 1), (0, 0, 2)),
     "foliation directions are linearly dependent over the scalars"),
    (SHEAR, ((0, 0, 0),), "a foliation direction vector is zero"),
    (((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1),),
     "the automorphism has determinant 2, not +-1"),
], ids=["moved", "induced-dehn-twist", "dependent", "zero", "det-2"])
def test_a_foliated_job_is_refused(tmp_path, capsys, a, directions, reason):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(_foliated(a, directions))
    assert main(["--input", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("engine: refused: InvalidSpec: " + reason)


# A-bar of finite order: the job runs, averaged over Z/r, and the order
# sits under induced_map as the ruled-out orders do
@pytest.mark.parametrize("a, directions, betti, top, coordinates, r", [
    (((1, 0, 0), (0, 1, 0), (0, 0, -1)), ((1, 0, 0), (0, 1, 0)), [1, 0],
     [], ["z"], 2),
    (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((1, 0, 0),), [1, 0, 1],
     ["dy^dz"], ["y", "z"], 2),
], ids=["induced-minus-one", "induced-minus-identity"])
def test_a_foliated_job_with_a_finite_order_induced_map_runs(
        tmp_path, capsys, a, directions, betti, top, coordinates, r):
    payload, code = run_job(parse_config(_foliated(a, directions)))
    assert code == 0
    induced = _induced_oracle(a, directions)
    assert dense_order(induced) == r
    assert payload["betti"] == betti == averaged_form_dimensions(induced, r)
    assert payload["generators"] == [["1"]] + [[]] * (len(betti) - 2) + [top]
    assert payload["certificates"]["automorphism"] == {
        "determinant": det_laplace(a), "induced_map": {
            "coordinates": coordinates, "finite_order": r}}
    cfg = tmp_path / "job.cfg"
    cfg.write_text(_foliated(a, directions))
    assert main(["--input", str(cfg), "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        "automorphism: det %d, finite order 2 of the induced map A-bar on "
        "%s, invariant forms averaged over Z/2"
        % (det_laplace(a), ", ".join(coordinates)))


def test_each_torus_example_parses_to_one_spec_of_its_reports_mode():
    examples = Path(__file__).resolve().parents[1] / "examples"
    seen = set()
    for path in sorted(examples.glob("*.cfg")):
        config = parse_config(path.read_text())
        if not isinstance(config.job, TorusSpec):
            continue
        payload, code = run_job(config)
        assert code == 0
        assert config.job.mode == config.mode == payload["mode"], path.name
        seen.add(payload["mode"])
    assert seen == {"torus", "automorphism"}
