"""Dense-subgroup jobs: H*(G/H) = H*(g/<h>), <h> the ideal h generates.

generated_ideal closes h under brackets with the basis and quotient
tests the closed span as an ideal; a closure cut short is refused
there, and an h that is no subalgebra is refused before any closure.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from quotientcoh import (
    Subspace, abelian, betti, ce_complex, heisenberg, quotient)
from quotientcoh.dense_subalgebra import close_once, generated_ideal
from quotientcoh.errors import NotAnIdeal, NotASubalgebra

from oracles import (
    change_basis, filiform, invert_fraction_matrix, random_invertible)


def _dense_betti(g, vectors):
    ideal, certificate = generated_ideal(g, Subspace.span(g.dim, vectors))
    return ideal, certificate, betti(ce_complex(quotient(g, ideal))).betti


def test_heisenberg_modulo_a_dense_line_closes_to_the_centre_plane():
    ideal, certificate, numbers = _dense_betti(heisenberg(), [[1, 0, 0]])
    assert ideal == Subspace.span(3, [[1, 0, 0], [0, 0, 1]])
    assert numbers == (1, 1)
    # [e1, e0] = -e2 is the one vector the closure adds
    assert certificate == {
        "added": ["[e1, e0]"], "generated_ideal": ["e0", "e2"],
        "assumption": "the subgroup is dense in the connected group"}


def test_abelian_plane_modulo_a_line_is_the_kronecker_circle():
    ideal, certificate, numbers = _dense_betti(abelian(2), [[1, 3]])
    assert ideal == Subspace.span(2, [[1, 3]])
    assert certificate["added"] == []
    assert numbers == (1, 1)


def test_a_random_basis_transport_gives_the_same_closure():
    # new basis f_i = sum_j P[i][j] e_j: a vector v in the old
    # coordinates has the new coordinates v P^-1
    rng = random.Random(4242)
    for g, vectors in ((heisenberg(), [[1, 0, 0]]), (abelian(2), [[1, 3]])):
        ideal, _, numbers = _dense_betti(g, vectors)
        for _ in range(4):
            p = random_invertible(rng, g.dim)
            p_inv = invert_fraction_matrix(p)
            moved = [[sum(Fraction(v[t]) * p_inv[t][j]
                          for t in range(g.dim)) for j in range(g.dim)]
                     for v in vectors]
            moved_ideal, _, moved_numbers = _dense_betti(
                change_basis(g, p), moved)
            assert (moved_ideal.dim, moved_numbers) == (ideal.dim, numbers)


def test_a_closure_cut_after_one_round_is_no_ideal():
    # on filiform(5), [e0, e_i] = e_(i+1): <e1> needs three rounds to
    # close to <e1, e2, e3, e4>
    g, h = filiform(5), Subspace.span(5, [[0, 1, 0, 0, 0]])
    once, added = close_once(g, h)
    assert once == Subspace.span(5, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert [i for i, _ in added] == [0]
    with pytest.raises(NotAnIdeal):
        quotient(g, once)
    ideal, certificate, numbers = _dense_betti(g, [[0, 1, 0, 0, 0]])
    assert ideal.complement == (0,)
    assert certificate["added"] == ["[e0, e1]", "[e0, e2]", "[e0, e3]"]
    assert numbers == (1, 1)


def test_a_non_subalgebra_is_refused():
    with pytest.raises(NotASubalgebra, match="generators 0 and 1"):
        generated_ideal(heisenberg(), Subspace.span(3, [[1, 0, 0],
                                                        [0, 1, 0]]))


DENSE_CFG = """\
[lie]
dim = 3
bracket = 0 1 2 1
"""


@pytest.mark.parametrize("keys, code, stderr", [
    ("dense_subalgebra = 1,0,0\n", 0, ""),
    ("dense_subalgebra = 1,0,0\ndense_subalgebra = 0,1,0\n", 2,
     "engine: refused: NotASubalgebra: bracket of subalgebra generators 0 "
     "and 1 leaves their span\n"),
    ("dense_subalgebra = 1,0,0\nideal = 0,0,1\n", 1,
     "engine: configuration error: key 'dense_subalgebra': give ideal or "
     "dense_subalgebra, not both\n"),
    ("dense_subalgebra = 1,0\n", 1,
     "engine: configuration error: key 'dense_subalgebra': "
     "dense_subalgebra vector has 2 entries, expected dim = 3\n"),
], ids=["dense", "not-a-subalgebra", "both-keys", "short-vector"])
def test_dense_subalgebra_jobs_through_the_command_line(
        tmp_path, keys, code, stderr):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(DENSE_CFG + keys)
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(cfg),
         "--format", "json"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if code == 0:
        payload = json.loads(proc.stdout)
        assert payload["betti"] == [1, 1]
        assert payload["certificates"]["ideal"] is True
        assert payload["certificates"]["dense_subalgebra"]["added"] == [
            "[e1, e0]"]


def test_the_table_lists_the_closure_certificate(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(DENSE_CFG + "dense_subalgebra = 1,0,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert ("certificates: jacobi=true ideal=true dense_subalgebra=(added: "
            "[e1, e0]; generated_ideal: e0, e2; assumption: the subgroup is "
            "dense in the connected group) d_squared_zero=true\n"
            ) in proc.stdout
