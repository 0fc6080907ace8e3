"""Spaces of the paper that the engine computes today, each a job file in
examples/ run as `python -m quotientcoh` in every report format and
checked against the Betti vector its header states, and the README table
that lists them with the rows still pending.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.cfg"))


def _header_betti(path: Path) -> list[int]:
    """The vector of the file's '# betti: 1, 0, ...' header line."""
    match = re.search(r"^# betti: ([\d, ]+)$", path.read_text(), re.M)
    return [int(b) for b in match.group(1).split(",")]


# every example in each report format; a JSON run keeps the example's
# own name as its id
RUNS = [(path, fmt) for path in EXAMPLES for fmt in ("json", "table", "csv")]


@pytest.mark.parametrize("path, fmt", RUNS, ids=[
    path.stem if fmt == "json" else "%s-%s" % (path.stem, fmt)
    for path, fmt in RUNS])
def test_paper_example_betti_numbers(path, fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(path),
         "--format", fmt], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "json":
        payload = json.loads(proc.stdout)
        assert payload["betti"] == _header_betti(path)
        assert payload["exit"] == 0
    elif fmt == "table":
        lines = proc.stdout.splitlines()
        assert lines[1] == "betti: " + " ".join(
            map(str, _header_betti(path)))
        assert lines[-1] == "exit: 0"
    else:
        rows = proc.stdout.splitlines()
        assert rows[0] == "degree,betti,generators"
        assert [int(row.split(",")[1]) for row in rows[1:]] == (
            _header_betti(path))


def _table_rows() -> list[list[str]]:
    """The cells of each body row of the README's paper-example table."""
    section = (ROOT / "README.md").read_text().split("## Paper examples", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def test_readme_table_lists_exactly_the_live_examples():
    live = {}
    for space, betti, _source, _through, status in _table_rows():
        if status == "pending":
            continue
        name = re.fullmatch(r"live: `examples/([a-z0-9-]+)\.cfg`",
                            status).group(1)
        live[name] = [int(b) for b in betti.strip("()").split(",")]
    assert live == {p.stem: _header_betti(p) for p in EXAMPLES}
