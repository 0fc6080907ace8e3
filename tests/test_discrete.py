"""Torus jobs modulo translations with the discrete topology (the paper's
non-second-countable case): Omega(M, F)^H is the job with the discrete
coordinates added to its invariance, Omega(M/H) the job with each e_j
its directions miss appended, and the certificate compares their Betti
vectors.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from quotientcoh import ExtScalar, InvalidSpec, TorusSpec, torus_betti
from quotientcoh import discrete
from quotientcoh.discrete import discrete_certificate, discrete_jobs
from quotientcoh.witness import degree_one_obstruction

E = ExtScalar
KRONECKER = ((E(1), E(0, 1)),)  # the direction (1, alpha) on T^2


def _certificate(spec: TorusSpec) -> dict:
    invariant, quotient = discrete_jobs(spec)
    return discrete_certificate(torus_betti(invariant).betti,
                                torus_betti(quotient).betti)


def _kronecker_obstruction_found() -> bool:
    cert = _certificate(TorusSpec(2, KRONECKER, discrete_coords={0}))
    return (cert["invariant_basic_betti"], cert["quotient_betti"],
            cert["first_difference"]) == ([1, 1], [1], 1)


def test_kronecker_flow_modulo_discrete_e0_differs_in_degree_one():
    spec = TorusSpec(2, KRONECKER, discrete_coords={0})
    invariant, quotient = discrete_jobs(spec)
    assert invariant == TorusSpec(2, KRONECKER, invariance_coords={0})
    assert quotient == TorusSpec(2, KRONECKER + ((E(1), E(0)),))
    assert _certificate(spec) == {
        "invariant_basic_betti": [1, 1], "quotient_betti": [1],
        "first_difference": 1,
        "conclusion": "pullback not onto in degree 1: the subduction "
                      "condition fails"}


@pytest.mark.parametrize("dirs", [
    ((E(1), E(0)),),  # e0 is the direction
    KRONECKER + ((E(0), E(1)),),  # e0 = (1, alpha) - alpha (0, 1)
], ids=["axis", "alpha-combination"])
def test_a_coordinate_the_directions_span_gives_equal_vectors(dirs):
    spec = TorusSpec(2, dirs, discrete_coords={0})
    _, quotient = discrete_jobs(spec)
    assert quotient.foliation_dirs == dirs
    cert = _certificate(spec)
    assert cert["invariant_basic_betti"] == cert["quotient_betti"]
    assert cert["first_difference"] is None
    assert cert["conclusion"] == "no obstruction found"


def test_the_circle_case_is_criterion_eight():
    # T^1 modulo every translation, discrete: the static degree-one
    # certificate of the witness pipeline, computed
    cert = _certificate(TorusSpec(1, discrete_coords={0}))
    assert (cert["invariant_basic_betti"], cert["quotient_betti"]) == (
        [1, 1], [1])
    static = degree_one_obstruction()
    quotient_degree1 = (cert["quotient_betti"] + [0])[1]
    assert (cert["invariant_basic_betti"][1], quotient_degree1) == (
        static.invariant_basic_degree1_dim, static.quotient_degree1_dim)
    assert cert["first_difference"] == 1


def test_each_coordinate_is_appended_only_when_the_grown_set_misses_it():
    # on the diagonal flow of T^2, e0 is new and then spans e1 with it
    spec = TorusSpec(2, ((E(1), E(1)),), discrete_coords={0, 1})
    invariant, quotient = discrete_jobs(spec)
    assert invariant.invariance_coords == {0, 1}
    assert quotient.foliation_dirs == ((E(1), E(1)), (E(1), E(0)))
    assert _certificate(spec)["first_difference"] == 1


def test_forgetting_to_append_the_coordinate_fails(monkeypatch):
    assert _kronecker_obstruction_found()

    def every_set_dependent(spec):
        raise InvalidSpec("mutation: every e_j counts as spanned")

    monkeypatch.setattr(discrete, "transverse_frame", every_set_dependent)
    assert not _kronecker_obstruction_found()


DISCRETE_CFG = """\
[torus]
n = 2
foliation = 1,0+1*alpha
"""


@pytest.mark.parametrize("key, code, stderr", [
    ("discrete = 0\n", 0, ""),
    ("discrete = 2\n", 1,
     "engine: configuration error: key 'torus': discrete coordinate 2 out "
     "of range for n = 2\n"),
    ("discrete = 0,x\n", 1,
     "engine: configuration error: key 'discrete': cannot parse 'x' as an "
     "integer\n"),
], ids=["kronecker", "out-of-range", "not-an-integer"])
def test_discrete_jobs_through_the_command_line(tmp_path, key, code, stderr):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(DISCRETE_CFG + key)
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(cfg),
         "--format", "json", "--check"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if code == 0:
        payload = json.loads(proc.stdout)
        certificates = payload["certificates"]
        assert payload["betti"] == [1, 1]
        assert certificates["cross_check_ce"] is True
        assert certificates["discrete"]["quotient_betti"] == [1]


def test_only_discrete_jobs_carry_the_certificate_and_its_table_line(
        tmp_path):
    lines = {}
    for name, key in (("plain", ""), ("discrete", "discrete = 0\n")):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(DISCRETE_CFG + key)
        lines[name] = subprocess.run(
            [sys.executable, "-m", "quotientcoh", "--input", str(cfg)],
            capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line for line in lines["discrete"]
            if line not in lines["plain"]] == [
        "discrete: invariant basic betti 1 1, quotient betti 1: pullback "
        "not onto in degree 1: the subduction condition fails"]
