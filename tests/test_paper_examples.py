"""Spaces of the paper that the engine computes today, each run as a
job through the command line and checked against its Betti vector, and
the README table that lists them with the rows still pending.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from quotientcoh.cli import main

SOL = """\
[lie]
dim = 3
bracket = 0 1 1 1      # [e0, e1] = e1
bracket = 0 2 2 -1     # [e0, e2] = -e2
"""

EXAMPLES = {
    # The irrational torus T_alpha = T^1 / Z.alpha (Iglesias-Zemmour,
    # "Diffeology", 2013).  By hand: its forms are the forms on T^1
    # invariant under the rotations by Z.alpha, a dense subgroup, so an
    # invariant function is constant and so is the coefficient of an
    # invariant 1-form; the cohomology is spanned by 1 and dx.
    "irrational-torus": ("[torus]\nn = 1\ninvariance = 0\n", [1, 1]),
    # The Kronecker flow on T^2, direction (1, alpha): its basic
    # cohomology is (1, 1), the constants and dy, by the same density
    # argument on the transversal.
    "kronecker-flow": (
        "[torus]\nn = 2\nfoliation = 1,0+1*alpha\n", [1, 1]),
    # The hyperbolic torus bundle T^3_A from sol: sol is completely
    # solvable, so the cohomology of the solvmanifold is that of the Lie
    # algebra (Hattori, J. Fac. Sci. Univ. Tokyo 8, 1960).
    "hyperbolic-torus-bundle": (SOL, [1, 1, 1, 1]),
    # Carriere's Riemannian flow on T^3_A, the orbits of the e1 direction
    # ("Flots riemanniens", Asterisque 116, 1984).  A basic 2-form is
    # g(t) dt^dy with g periodic, and g' + g = h is solvable on the
    # circle, so H^2_B = 0: the flow is not taut.
    "carriere-flow": (SOL + "ideal = 0,1,0\n", [1, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_paper_example_betti_numbers(tmp_path, capsys, name):
    text, expected = EXAMPLES[name]
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(text)
    assert main(["--input", str(cfg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == expected
    assert payload["exit"] == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def _table_rows() -> list[list[str]]:
    """The cells of each body row of the README's paper-example table."""
    section = README.read_text().split("## Paper examples", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def test_readme_table_lists_exactly_the_live_examples():
    live = {}
    for space, betti, _source, _through, status in _table_rows():
        if status == "pending":
            continue
        name = re.fullmatch(r"live: `([a-z0-9-]+)`", status).group(1)
        live[name] = [int(b) for b in betti.strip("()").split(",")]
    assert live == {name: vector for name, (_, vector) in EXAMPLES.items()}
