"""The lie and torus pipelines start without numpy or sympy.

Each check runs in a fresh interpreter, since this test process has
long since imported both libraries for other tests.
"""

from __future__ import annotations

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
