"""The [lie] space key: a job that names a nilmanifold or a completely
solvable solvmanifold gets its claim certified by the triangularity of
its bracket rows, or is refused with the first bracket its basis does
not allow.
"""

from __future__ import annotations

import json
import random

import pytest

from quotientcoh import (
    LieAlgebra, ValidationError, abelian, heisenberg, sl2)
from quotientcoh.cli import main
from quotientcoh.config import parse_config
from quotientcoh.exterior import enumerate_basis
from quotientcoh.space import unadapted_bracket

from oracles import change_basis, direct_sum, filiform, random_invertible

SOL = LieAlgebra.from_brackets(3, {(0, 1, 1): 1, (0, 2, 2): -1})
# the Euclidean algebra: a lattice quotient of its group is T^3
E2 = LieAlgebra.from_brackets(3, {(0, 1, 2): 1, (0, 2, 1): -1})
SU2 = LieAlgebra.from_brackets(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})

# algebra, space -> the first bracket the space forbids, or None
CERTIFICATES = [
    ("heisenberg", heisenberg(), "nilmanifold", None),
    ("filiform6", filiform(6), "nilmanifold", None),
    ("sol", SOL, "solvmanifold", None),
    ("sol", SOL, "nilmanifold", (0, 1, 1)),
    ("e2", E2, "solvmanifold", (0, 2, 1)),
    ("sl2", sl2(), "solvmanifold", (1, 2, 0)),
    ("su2", SU2, "solvmanifold", (0, 2, 1)),
    ("abelian4", abelian(4), "nilmanifold", None),
    ("abelian4", abelian(4), "solvmanifold", None),
]


def _lie_text(g: LieAlgebra, space: str, ideal=()) -> str:
    lines = ["[lie]", "dim = %d" % g.dim, "space = " + space]
    for (i, j), row in zip(enumerate_basis(g.dim, 2), g.table.int_rows):
        for k, x in row:
            lines.append("bracket = %d %d %d %d/%d"
                         % (i, j, k, x, g.table.den))
    lines += ["ideal = " + ",".join(map(str, v)) for v in ideal]
    return "\n".join(lines) + "\n"


def _run(tmp_path, capsys, text: str, *args: str):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    code = main(["--input", str(cfg), *args])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "g, space, triple", [case[1:] for case in CERTIFICATES],
    ids=["%s-%s" % case[:3:2] for case in CERTIFICATES])
def test_each_space_certifies_or_refuses_its_first_bracket(
        tmp_path, capsys, g, space, triple):
    assert unadapted_bracket(g, space) == triple
    code, out = _run(tmp_path, capsys, _lie_text(g, space), "--format",
                     "json")
    if triple is None:
        assert (code, out.err) == (0, "")
        assert json.loads(out.out)["certificates"]["space"] == space
    else:
        assert (code, out.out) == (2, "")
        assert out.err == (
            "engine: refused: NotAdapted: this basis is not adapted to a "
            "%s: [e%d, e%d] has a nonzero e%d component\n" % (space, *triple))


def test_the_heisenberg_nilmanifold_table(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _lie_text(heisenberg(), "nilmanifold"))
    assert code == 0
    assert "betti: 1 2 2 1\n" in out.out
    assert ("certificates: jacobi=true space=nilmanifold "
            "d_squared_zero=true\n") in out.out


def test_a_nilpotent_quotient_of_a_non_nilpotent_algebra_passes(
        tmp_path, capsys):
    # (heisenberg + sl2) / sl2: the test reads the quotient's brackets
    g = direct_sum(heisenberg(), sl2())
    assert unadapted_bracket(g, "nilmanifold") == (3, 4, 4)
    ideal = [[int(j == i) for j in range(6)] for i in (3, 4, 5)]
    code, out = _run(tmp_path, capsys,
                     _lie_text(g, "nilmanifold", ideal), "--format", "json")
    assert (code, out.err) == (0, "")
    payload = json.loads(out.out)
    assert payload["betti"] == [1, 2, 2, 1]
    assert payload["certificates"]["space"] == "nilmanifold"
    assert payload["certificates"]["ideal"] is True


def test_a_random_basis_of_sol_is_refused_as_given(tmp_path, capsys):
    # sol is completely solvable in every basis, but the test reads only
    # the basis the job gives: it says that basis is not adapted
    rng = random.Random(2020)
    for _ in range(5):
        g = change_basis(SOL, random_invertible(rng, 3))
        triple = unadapted_bracket(g, "solvmanifold")
        assert triple is not None
        code, out = _run(tmp_path, capsys, _lie_text(g, "solvmanifold"))
        assert (code, out.err) == (2, (
            "engine: refused: NotAdapted: this basis is not adapted to a "
            "solvmanifold: [e%d, e%d] has a nonzero e%d component\n"
            % triple))


def test_an_unknown_space_is_a_configuration_error(tmp_path, capsys):
    text = "[lie]\ndim = 3\nbracket = 0 1 2 1\nspace = torus\n"
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    assert (info.value.key, info.value.reason) == (
        "space",
        "unknown space 'torus'; expected one of nilmanifold, solvmanifold")
    code, out = _run(tmp_path, capsys, text)
    assert (code, out.out) == (1, "")
    assert out.err == (
        "engine: configuration error: key 'space': unknown space 'torus'; "
        "expected one of nilmanifold, solvmanifold\n")
