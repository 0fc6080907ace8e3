"""Let the engine processes some tests start import the source tree.

pyproject.toml puts src/ on this process's sys.path; `python -m
quotientcoh` children see only the environment, so src/ is added to
their PYTHONPATH as well.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
