"""The lie and torus pipelines start without numpy or sympy, and the
names the bench tracer wraps still resolve.

Each check runs in a fresh interpreter, since this test process has
long since imported both libraries for other tests.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import quotientcoh

SRC = str(Path(quotientcoh.__file__).resolve().parents[1])

HEAVY = ("numpy", "sympy")

IMPORT_ONLY = """
import json, sys
import quotientcoh, quotientcoh.cli
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (HEAVY,)

RUN_JOB = """
import json, sys
from quotientcoh.cli import main
code = main(["--input", sys.argv[1], "--format", "json",
             "--output", sys.argv[2]])
print(json.dumps([code, sorted(n for n in %r if n in sys.modules)]))
""" % (HEAVY,)

HEISENBERG_CFG = """\
[lie]
dim = 3
bracket = 0 1 2 1
"""

TORUS_CFG = """\
[torus]
n = 3
foliation = 1,0,0
invariance = 1
truncation = 3
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


def test_package_import_loads_neither_library():
    assert json.loads(_python(IMPORT_ONLY)) == []


def test_lie_and_torus_jobs_load_neither_library(tmp_path):
    for name, text, betti in (
        ("heisenberg", HEISENBERG_CFG, [1, 2, 2, 1]),
        ("torus", TORUS_CFG, [1, 2, 1]),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        out = tmp_path / (name + ".json")
        code, loaded = json.loads(_python(RUN_JOB, str(cfg), str(out)))
        assert code == 0, name
        assert json.loads(out.read_text())["betti"] == betti, name
        assert loaded == [], name


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


def test_tracer_wraps_names_that_exist(tmp_path):
    # install() replaces each (module, attribute) of SPANNED and COUNTED
    # by name, so a refactor that drops one kills every traced run; the
    # tracer also opens cli.main and lie.d_squared_violation itself
    allowed = set(_tracer_spans()) | {"cli.main", "lie.d_squared_violation"}
    for name, text, expected in (
        ("heisenberg", HEISENBERG_CFG,
         {"lie.betti", "scalars.nullspace_basis", "lie.phi_sign_check"}),
        ("torus", TORUS_CFG,
         {"torus.torus_betti", "torus.koszul_certificate",
          "torus.cross_check_ce"}),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        spans_out = tmp_path / (name + ".spans.json")
        done = subprocess.run(
            [sys.executable, str(TRACER), str(spans_out), "--input",
             str(cfg), "--format", "json", "--check"],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert done.returncode == 0, (name, done.stderr)
        traced = json.loads(spans_out.read_text())
        names = {span[0] for span in traced["spans"]}
        assert "cli.main" in names, name
        assert names <= allowed, (name, names - allowed)
        assert expected <= names, (name, expected - names)
