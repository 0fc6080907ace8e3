from __future__ import annotations

import json
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from quotientcoh.cli import canonical_json, main, render
from quotientcoh.config import parse_config
from quotientcoh.cli import run_job

TORUS_CFG = """\
[torus]
n = 3
foliation = 1,0,0
invariance = 1
truncation = 3
"""

LIE_QUOTIENT_CFG = """\
[lie]
dim = 3
bracket = 0 1 2 1
ideal = 0,0,1
"""

NON_IDEAL_CFG = """\
[lie]
dim = 3
bracket = 0 1 1 2
bracket = 0 2 2 -2
bracket = 1 2 0 1
ideal = 0,1,0
"""

NON_JACOBI_CFG = """\
[lie]
dim = 3
bracket = 0 1 0 1
bracket = 1 2 1 1
"""

WITNESS_CFG = """\
[witness]
k_min = 2
k_max = 5
max_derivative_order = 2
samples_per_interval = 2001
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "quotientcoh", *args],
        capture_output=True, text=True,
    )


def test_torus_job_end_to_end(tmp_path):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    out = str(tmp_path / "report.json")
    code = main(["--input", cfg, "--format", "json", "--output", out])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["mode"] == "torus"
    assert payload["betti"] == [1, 2, 1]
    assert payload["exit"] == 0
    assert payload["audited_modes"] == 6
    assert payload["generators"] == [["1"], ["dy", "dz"], ["dy^dz"]]
    assert payload["certificates"]["all_modes_acyclic"] is True
    assert "timing_seconds" in payload
    for key in ("mode", "betti", "ranks", "generators", "certificates",
                "audited_modes", "exit"):
        assert key in payload


def test_table_output(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    code = main(["--input", cfg, "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "betti: 1 2 1" in out
    assert "dy, dz" in out
    assert "dy^dz" in out
    assert "audited nonzero modes: 6" in out


def test_csv_output(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    code = main(["--input", cfg, "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "degree,betti,generators"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,")
    assert lines[2] == "1,2,dy; dz"


def test_lie_quotient_job(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", LIE_QUOTIENT_CFG)
    code = main(["--input", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "lie"
    # heisenberg / center is abelian of dimension 2
    assert payload["betti"] == [1, 2, 1]
    assert payload["certificates"]["jacobi"] is True
    assert payload["certificates"]["ideal"] is True
    assert payload["generators"][1] == ["e0", "e1"]


def test_non_ideal_refusal(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", NON_IDEAL_CFG)
    code = main(["--input", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "refused" in err
    assert "NotAnIdeal" in err


def test_non_jacobi_refusal(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", NON_JACOBI_CFG)
    code = main(["--input", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "NotALieAlgebra" in err
    assert "(0, 1, 2)" in err


def test_degenerate_foliation_refusal(tmp_path, capsys):
    cfg = _write(
        tmp_path, "job.cfg",
        "[torus]\nn = 2\nfoliation = 1,2\nfoliation = 2,4\n",
    )
    code = main(["--input", cfg])
    assert code == 2
    assert "refused" in capsys.readouterr().err


def test_parse_failure_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", "[torus]\nn = 2\nfoliation = 0.5,1\n")
    code = main(["--input", cfg])
    assert code == 1
    assert "decimal" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_exits_one_without_traceback(tmp_path):
    cfg = _write(tmp_path, "job.cfg", LIE_QUOTIENT_CFG)
    out = tmp_path / "no" / "such" / "dir" / "out.json"
    proc = _run_cli(["--input", cfg, "--output", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("engine: cannot write output: ")
    assert str(out) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_check_flag_runs_cross_checks(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    code = main(["--input", cfg, "--format", "json", "--check"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificates"]["cross_check_ce"] is True


def test_truncation_override(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    code = main(["--input", cfg, "--format", "json", "--truncation", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["audited_modes"] == 2
    assert payload["betti"] == [1, 2, 1]


def test_torus_report_lists_each_class_once(tmp_path):
    # p = 0 on T^5 at truncation 3: every nonzero mode of the 7^5 box is
    # audited, and the report carries one koszul entry per class
    cfg = _write(tmp_path, "job.cfg", "[torus]\nn = 5\ntruncation = 3\n")
    out = tmp_path / "report.json"
    code = main(["--input", cfg, "--format", "json", "--output", str(out)])
    assert code == 0
    assert out.stat().st_size < 100_000
    payload = json.loads(out.read_text())
    assert payload["audited_modes"] == 7 ** 5 - 1
    classes: dict = {}
    for mode in product(range(-3, 4), repeat=5):
        if any(mode):
            g = gcd(*mode)
            key = tuple(sorted(abs(x) // g for x in mode))
            classes.setdefault(key, []).append(mode)
    koszul = payload["certificates"]["koszul"]
    assert len(koszul) == len(classes)
    firsts = {min(members): len(members) for members in classes.values()}
    for entry in koszul:
        assert entry["ok"] is True
        assert firsts[tuple(entry["mode"])] == entry["modes"]
    assert sum(entry["modes"] for entry in koszul) == payload["audited_modes"]


def test_witness_job(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", WITNESS_CFG)
    code = main(["--input", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    certs = payload["certificates"]
    assert certs["lift_obstruction"] is True
    assert certs["forced_levels"] == [[k, k] for k in range(2, 6)]
    assert certs["degree_one"]["conclusion"] == "pullback-not-surjective"
    assert payload["betti"] is None
    # orders up to 2 only, so no monotone break in this run
    assert certs["monotone_violations"] == []


def test_report_round_trips_through_json(tmp_path):
    config = parse_config(TORUS_CFG)
    payload, code = run_job(config)
    payload["exit"] = code
    text = render(payload, "json")
    assert json.loads(text) == payload


def test_canonical_json_is_deterministic(tmp_path):
    config = parse_config(TORUS_CFG)
    first, code1 = run_job(config)
    second, code2 = run_job(config)
    first["exit"] = code1
    second["exit"] = code2
    first["timing_seconds"] = 0.123
    second["timing_seconds"] = 9.876
    assert canonical_json(first) == canonical_json(second)


def test_console_entry_point_via_module(tmp_path):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    proc = _run_cli(["--input", cfg, "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["betti"] == [1, 2, 1]


def test_usage_error_reports_to_stderr():
    proc = _run_cli([])
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "name, check",
    [("std7-check", True), ("random7-check", True), ("quotient8", False)],
)
def test_lie_reports_match_committed_fixtures(name, check):
    # Dim 7-8 jobs (a filiform4+sl2 sum, a dense random rational basis,
    # filiform8 modulo its centre) with the canonical reports recorded
    # from the earlier dense-matrix implementation.
    text = (FIXTURES / (name + ".cfg")).read_text()
    payload, code = run_job(parse_config(text), check=check)
    payload["exit"] = code
    assert canonical_json(payload) == (FIXTURES / (name + ".json")).read_text()


@pytest.mark.parametrize("order", [17, 160])
def test_witness_order_above_the_float_range_exits_one(tmp_path, capsys,
                                                        order):
    cfg = _write(tmp_path, "job.cfg", WITNESS_CFG.replace(
        "max_derivative_order = 2", "max_derivative_order = %d" % order))
    out = tmp_path / "report.json"
    code = main(["--input", cfg, "--format", "json", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "at most 16" in err
