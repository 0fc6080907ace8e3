from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from quotientcoh import (
    CochainComplex, ExactMatrix, KoszulCertificate, Subspace, algebra,
    ce_complex, cli, heisenberg, payload, quotient, torus,
)
from quotientcoh.cli import canonical_json, main, render
from quotientcoh.exterior import enumerate_basis
from quotientcoh.config import parse_config
from quotientcoh.cli import run_job
from quotientcoh.record import replace

from oracles import (
    change_basis, jacobi_failure, naive_generators, naive_kernel_generators,
    random_invertible, random_nonjacobi_table)

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

HEISENBERG_CFG = """\
[lie]
dim = 3
bracket = 0 1 2 1
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
    assert capsys.readouterr().err == (
        "engine: refused: NotAnIdeal: bracket of basis vector 2 with "
        "subspace generator 0 leaves the subspace\n")


def test_non_jacobi_refusal(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", NON_JACOBI_CFG)
    code = main(["--input", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "NotALieAlgebra" in err
    assert "(0, 1, 2)" in err


def _lie_text(g, ideal=None) -> str:
    """A [lie] job for the algebra g, with an optional ideal line."""
    lines = ["[lie]", "dim = %d" % g.dim]
    for (i, j), row in zip(enumerate_basis(g.dim, 2), g.table.int_rows):
        for k, x in row:
            lines.append("bracket = %d %d %d %d/%d" % (i, j, k, x, g.table.den))
    if ideal is not None:
        lines.append("ideal = " + ",".join(map(str, ideal)))
    return "\n".join(lines) + "\n"


def test_a_broken_table_is_refused_at_its_first_triple(tmp_path, capsys):
    # every Lie job runs jacobi_check first, with an ideal or without:
    # both refuse with the first failing triple, and nothing is reported
    rng = random.Random(4243)
    for dim in (3, 4, 5, 5):
        bad = change_basis(random_nonjacobi_table(rng, dim),
                           random_invertible(rng, dim))
        triple = jacobi_failure(bad)
        for ideal in (None, [0] * (dim - 1) + [1]):
            out = tmp_path / "out.json"
            cfg = _write(tmp_path, "job.cfg", _lie_text(bad, ideal))
            assert main(["--input", cfg, "--output", str(out)]) == 2
            assert capsys.readouterr().err == (
                "engine: refused: NotALieAlgebra: Jacobi identity fails at "
                "basis triple %s\n" % (triple,))
            assert not out.exists()


def test_a_broken_table_is_refused_before_any_complex_is_built(
        tmp_path, capsys, monkeypatch):
    # the one Jacobi route: without an ideal too, the refusal comes from
    # jacobi_check on the job's table, and no cochain complex is built
    def no_complex(algebra):
        raise AssertionError("ce_complex called on a broken table")

    monkeypatch.setattr(cli, "ce_complex", no_complex)
    rng = random.Random(4244)
    for dim in (3, 4, 5):
        bad = change_basis(random_nonjacobi_table(rng, dim),
                           random_invertible(rng, dim))
        cfg = _write(tmp_path, "job.cfg", _lie_text(bad))
        assert main(["--input", cfg, "--check"]) == 2
        assert capsys.readouterr().err == (
            "engine: refused: NotALieAlgebra: Jacobi identity fails at "
            "basis triple %s\n" % (jacobi_failure(bad),))


def test_degenerate_foliation_refusal(tmp_path, capsys):
    cfg = _write(
        tmp_path, "job.cfg",
        "[torus]\nn = 2\nfoliation = 1,2\nfoliation = 2,4\n",
    )
    code = main(["--input", cfg])
    assert code == 2
    assert "refused" in capsys.readouterr().err


def test_out_of_range_invariance_exits_one(tmp_path, capsys):
    # a validation error, not an InvalidSpec refusal (exit 2)
    cfg = _write(tmp_path, "job.cfg",
                 "[torus]\nn = 3\nfoliation = 1,0,0\ninvariance = 5\n")
    assert main(["--input", cfg]) == 1
    assert capsys.readouterr().err == (
        "engine: configuration error: key 'torus': invariance coordinate 5 "
        "out of range for n = 3\n")


def test_parse_failure_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", "[torus]\nn = 2\nfoliation = 0.5,1\n")
    code = main(["--input", cfg])
    assert code == 1
    assert "decimal" in capsys.readouterr().err


def test_zero_denominator_exits_one_without_traceback(tmp_path):
    cfg = _write(tmp_path, "job.cfg", "[lie]\ndim = 3\nbracket = 0 1 2 1/0\n")
    proc = _run_cli(["--input", cfg])
    assert proc.returncode == 1
    assert proc.stderr.startswith("engine: configuration error: ")
    assert "zero denominator" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_input_exits_one_without_traceback(tmp_path):
    # a UTF-16 byte order mark is not UTF-8, whatever the locale says
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"\xff\xfe" + TORUS_CFG.encode("utf-16-le"))
    proc = _run_cli(["--input", str(cfg)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("engine: cannot read input: ")
    # a UTF-8 byte order mark is read past: the report is the plain file's
    plain = _run_cli(["--input", _write(tmp_path, "plain.cfg", TORUS_CFG)])
    cfg.write_bytes(b"\xef\xbb\xbf" + TORUS_CFG.encode())
    proc = _run_cli(["--input", str(cfg)])
    assert (proc.returncode, proc.stderr) == (plain.returncode, "") == (0, "")
    assert proc.stdout == plain.stdout  # the table, which holds no timing


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


@pytest.mark.parametrize("text", [HEISENBERG_CFG, WITNESS_CFG])
def test_truncation_leaves_lie_and_witness_jobs_alone(tmp_path, capsys,
                                                      text):
    # --truncation replaces the job of a torus job only
    cfg = _write(tmp_path, "job.cfg", text)
    reports = []
    for extra in ([], ["--truncation", "1"]):
        assert main(["--input", cfg, "--format", "json", *extra]) == 0
        reports.append(canonical_json(json.loads(capsys.readouterr().out)))
    assert reports[0] == reports[1]


def test_negative_truncation_override_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    code = main(["--input", cfg, "--truncation", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "engine: configuration error: truncation must be nonnegative\n")


def _counting_d_squared(monkeypatch) -> list:
    calls = []
    check = CochainComplex.d_squared_violation

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(CochainComplex, "d_squared_violation", counted)
    return calls


def test_lie_job_runs_the_d_squared_check_once(monkeypatch):
    # cli reads the d.d verdict and betti asks for it again, but the
    # complex tests each product d_{k+1} d_k once; the first pass is
    # jacobi_check's d_2 against the bracket matrix
    passes = []
    product = ExactMatrix.first_nonzero_product_row

    def counted(self, other):
        passes.append((self, other))
        return product(self, other)

    monkeypatch.setattr(ExactMatrix, "first_nonzero_product_row", counted)
    payload, code = run_job(parse_config(HEISENBERG_CFG), check=True)
    g = heisenberg()
    d = ce_complex(g).d
    assert code == 0
    assert passes == [(d[2], g.table), (d[1], d[0]), (d[2], d[1])]
    assert payload["certificates"]["d_squared_zero"] is True
    assert payload["betti"] == [1, 2, 2, 1]


@pytest.fixture
def broken_complex(monkeypatch):
    # the Heisenberg complex with d_0 e^() = e^2, so that d_1 d_0 != 0;
    # the Jacobi table is fine, only the built complex is wrong
    good = ce_complex(heisenberg())
    bad = replace(good, d=(ExactMatrix.from_rows([[0], [0], [1]]),)
                  + good.d[1:])
    assert bad.d_squared_violation() == 0
    monkeypatch.setattr(cli, "ce_complex", lambda target: bad)
    return bad


def test_non_complex_exits_three_with_false_certificate(
        broken_complex, monkeypatch):
    calls = _counting_d_squared(monkeypatch)
    payload, code = run_job(parse_config(HEISENBERG_CFG))
    assert code == 3 and calls == [broken_complex]
    assert payload["certificates"] == {
        "jacobi": True, "ideal": None, "d_squared_zero": False}
    assert payload["betti"] is None
    assert payload["ranks"] is None
    assert payload["generators"] is None


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_non_complex_report_renders(broken_complex, tmp_path, capsys, fmt):
    cfg = _write(tmp_path, "job.cfg", HEISENBERG_CFG)
    code = main(["--input", cfg, "--format", fmt, "--check"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "table":
        assert "betti: not computed, d.d != 0" in captured.out
        assert "d_squared_zero=false sign_twist=false" in captured.out
        assert captured.out.endswith("exit: 3\n")
    elif fmt == "json":
        payload = json.loads(captured.out)
        assert payload["exit"] == 3
        assert payload["certificates"]["d_squared_zero"] is False
    else:
        assert captured.out == "degree,betti,generators\n"


FILIFORM5_CFG = """\
[lie]
dim = 5
bracket = 0 1 2 1
bracket = 0 2 3 1
bracket = 0 3 4 1
"""


def _negate_d2(monkeypatch):
    # -d_2 keeps d_2 times the table, both d.d products and every rank at
    # their values, so Jacobi, d.d and the Betti numbers pass and only the
    # sign check sees the error
    build = algebra.ce_differential

    def negated_d2(g, k, weight=()):
        d = build(g, k, weight)
        if k != 2:
            return d
        return replace(d, int_rows=tuple(
            tuple((j, -x) for j, x in row) for row in d.int_rows))

    monkeypatch.setattr(algebra, "ce_differential", negated_d2)


def test_a_sign_error_alone_exits_three(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "job.cfg", FILIFORM5_CFG)
    out = tmp_path / "report.json"
    argv = ["--input", cfg, "--format", "json", "--check", "--output", str(out)]
    assert main(argv) == 0
    _negate_d2(monkeypatch)
    code = main(argv)
    payload = json.loads(out.read_text())
    assert code == payload["exit"] == 3
    assert payload["certificates"]["jacobi"] is True
    assert payload["certificates"]["d_squared_zero"] is True
    assert payload["certificates"]["sign_twist"] is False
    assert payload["betti"] == [1, 2, 3, 3, 2, 1]


def _false_certificates(payload) -> list[str]:
    return [name for name, value in payload["certificates"].items()
            if value is False]


def _break_d_squared(monkeypatch):
    # d_0 e^() = e_last: the Jacobi table is fine, d_1 d_0 is not zero
    build = algebra.ce_differential

    def wrong_d0(g, k, weight=()):
        if k:
            return build(g, k, weight)
        return ExactMatrix(1, 1, ((),) * (g.dim - 1) + (((0, 1),),))

    monkeypatch.setattr(algebra, "ce_differential", wrong_d0)


def _drop_a_template_entry(monkeypatch):
    # the audit's template d_0 loses its first entry, so every class
    # complex read off it does: a class with w_0 and w_1 both nonzero
    # fails d.d, one with w_1 = 0 keeps degree-0 cohomology
    build = torus.build_mode_complex

    def patched(w, template=None):
        c = build(w, template)
        if template is not None:
            return c
        d0 = c.d[0]
        return replace(c, d=(replace(d0, int_rows=((),) + d0.int_rows[1:]),)
                       + c.d[1:])

    monkeypatch.setattr(torus, "build_mode_complex", patched)


def _drop_a_frame_row(monkeypatch):
    # as in test_cross_check_ce_fails_when_the_frame_drops_a_skeleton_row
    frame_of = torus.transverse_frame

    def dropped_row(spec):
        frame = frame_of(spec)
        return replace(frame, skeleton=Subspace(
            spec.n, frame.skeleton.basis[1:]))

    monkeypatch.setattr(torus, "transverse_frame", dropped_row)


VERDICTS = [
    ("d_squared_zero", HEISENBERG_CFG, False, _break_d_squared),
    ("sign_twist", FILIFORM5_CFG, True, _negate_d2),
    ("all_modes_acyclic", "[torus]\nn = 2\ntruncation = 1\n", True,
     _drop_a_template_entry),
    ("cross_check_ce", "[torus]\nn = 2\nfoliation = 1,0+1*alpha\n", True,
     _drop_a_frame_row),
]


@pytest.mark.parametrize("failing, text, check, breaks", VERDICTS,
                         ids=[case[0] for case in VERDICTS])
def test_each_failing_certificate_alone_exits_three(
        monkeypatch, failing, text, check, breaks):
    # run_job reads the exit code off the report: 3 iff a top-level
    # certificate is False; each break makes exactly one of them False
    payload, code = run_job(parse_config(text), check=check)
    assert (code, _false_certificates(payload)) == (0, [])
    breaks(monkeypatch)
    payload, code = run_job(parse_config(text), check=check)
    assert (code, _false_certificates(payload)) == (3, [failing])


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


def test_witness_table_without_monotone_breaks(tmp_path, capsys):
    # at order 0 both families shrink from level to level
    cfg = _write(tmp_path, "job.cfg",
                 "[witness]\nk_min = 5\nk_max = 7\n"
                 "max_derivative_order = 0\nsamples_per_interval = 101\n")
    assert main(["--input", cfg, "--format", "table"]) == 0
    assert "\nmonotone violations: none\n" in capsys.readouterr().out


def test_a_failed_mode_certificate_shows_in_the_table(
        tmp_path, capsys, monkeypatch):
    # every class complex loses its d_0, so its degree-0 cohomology is
    # not zero and each Koszul certificate fails
    build = torus.build_mode_complex

    def broken(w, template=None):
        c = build(w, template)
        if template is None:
            return c
        zero = ExactMatrix.zero(c.d[0].rows, c.d[0].cols)
        return replace(c, d=(zero,) + c.d[1:])

    monkeypatch.setattr(torus, "build_mode_complex", broken)
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    assert main(["--input", cfg, "--format", "table"]) == 3
    out = capsys.readouterr().out
    assert "\naudited nonzero modes: 6 (ACYCLICITY FAILED)\n" in out
    assert out.endswith("exit: 3\n")


def test_a_wrong_zero_mode_complex_fails_the_cross_check(
        tmp_path, capsys, monkeypatch):
    # the zero mode goes through torus.ce_complex: the acyclic complex of
    # weight (1, 0) in its place reports Betti numbers 0, every nonzero
    # mode still certifies, and only --check sees the mismatch
    monkeypatch.setattr(torus, "ce_complex", lambda g: (
        torus.build_mode_complex((1,) + (0,) * (g.dim - 1))))
    cfg = _write(tmp_path, "job.cfg", "[torus]\nn = 3\nfoliation = 1,0,0\n")
    assert main(["--input", cfg, "--format", "table"]) == 0
    assert "\nbetti: 0 0 0\n" in capsys.readouterr().out
    assert main(["--input", cfg, "--format", "table", "--check"]) == 3
    out = capsys.readouterr().out
    assert "\ncross-check against cochain pipeline: MISMATCH\n" in out
    assert out.endswith("exit: 3\n")


def test_a_torus_job_with_no_transverse_coordinate_labels_the_constant():
    # directions spanning T^2 leave q = 0: the zero mode is the constants
    payload, code = run_job(parse_config(
        "[torus]\nn = 2\nfoliation = 1,0\nfoliation = 0,1\n"), check=True)
    assert code == 0
    assert (payload["betti"], payload["ranks"], payload["generators"]) == (
        [1], [], [["1"]])
    assert payload["certificates"]["cross_check_ce"] is True


def test_a_zero_direction_is_refused_when_the_job_is_read(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", "[torus]\nn = 2\nfoliation = 0,0\n")
    assert main(["--input", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "engine: refused: InvalidSpec: a foliation direction vector is zero\n")


def test_report_records_convert_field_by_field():
    # a record becomes an object of its fields with tuples as lists, and a
    # None field is left out: failed_degree shows only on a failed class
    ok = KoszulCertificate((0, -1), (1, 2), True, None, 4)
    assert payload.as_json(ok) == {"mode": [0, -1], "ranks": [1, 2], "ok": True,
                             "modes": 4}
    failed = replace(ok, ok=False, failed_degree=1)
    assert payload.as_json((failed,)) == [{"mode": [0, -1], "ranks": [1, 2],
                                     "ok": False, "failed_degree": 1,
                                     "modes": 4}]


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


def test_equals_form_reads_the_same_options(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    assert main(["--input", cfg, "--format", "json", "--truncation", "1"]) == 0
    spaced = json.loads(capsys.readouterr().out)
    assert main(["--input=" + cfg, "--format=json", "--truncation=1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert canonical_json(json.loads(captured.out)) == canonical_json(spaced)
    assert spaced["audited_modes"] == 2


def test_last_of_a_repeated_option_wins(tmp_path, capsys):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    assert main(["--input", cfg, "--format", "csv", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 2, 1]
    assert main(["--input", cfg, "--format=json", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("degree,betti,generators\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_options_and_exits_zero(tmp_path, capsys, flag):
    # help wins over the rest of the line, as long as it comes first
    assert main([flag, "--format", "xml"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(
        "usage: engine [-h] --input INPUT [--output OUTPUT] "
        "[--format {table,json,csv}]\n")
    for option in ("-h, --help", "--input INPUT", "--output OUTPUT",
                   "--format {table,json,csv}", "--truncation TRUNCATION",
                   "--check"):
        assert "\n  " + option in captured.out, option


USAGE_ERRORS = [
    (["--input", "job.cfg", "--format", "xml"],
     "argument --format: invalid choice: 'xml' "
     "(choose from 'table', 'json', 'csv')"),
    (["--input", "job.cfg", "--truncation", "x"],
     "argument --truncation: invalid int value: 'x'"),
    (["--input", "job.cfg", "--bogus"], "unrecognized arguments: --bogus"),
    # no prefix matching: --in is not --input
    (["--in", "job.cfg"], "unrecognized arguments: --in"),
    (["--input", "job.cfg", "stray"], "unrecognized arguments: stray"),
    (["--input"], "argument --input: expected one argument"),
    (["--output", "--check", "--input", "job.cfg"],
     "argument --output: expected one argument"),
    (["--input", "job.cfg", "--check=1"],
     "argument --check: ignored explicit argument '1'"),
    ([], "the following arguments are required: --input"),
    (["--format", "json", "--check"],
     "the following arguments are required: --input"),
]


@pytest.mark.parametrize("argv, reason", USAGE_ERRORS)
def test_usage_errors_exit_two_with_the_usage(tmp_path, capsys, argv,
                                              reason):
    cfg = _write(tmp_path, "job.cfg", TORUS_CFG)
    argv = [cfg if token == "job.cfg" else token for token in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: engine [-h] --input INPUT ")
    assert lines[-1] == "engine: error: " + reason


FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_payload(name, check):
    # every fixture passes its certificates: none is False, and it exits 0
    text = (FIXTURES / (name + ".cfg")).read_text()
    payload, code = run_job(parse_config(text), check=check)
    assert (code, _false_certificates(payload)) == (0, [])
    payload["exit"] = code
    return payload


def _matches_fixture(name, check):
    payload = _fixture_payload(name, check)
    assert canonical_json(payload) == (FIXTURES / (name + ".json")).read_text()


@pytest.mark.parametrize(
    "name, check",
    [("std7-check", True), ("random7-check", True), ("quotient8", False),
     ("quotient-random8-check", True)],
)
def test_lie_reports_match_committed_fixtures(name, check):
    # Dim 7-8 jobs (a filiform4+sl2 sum, a dense random rational basis,
    # filiform8 modulo its centre) with the canonical reports recorded
    # from the earlier dense-matrix implementation, and filiform5+sl2 in
    # a random rational basis modulo a 2-dimensional ideal given by three
    # fractional, non-echelon vectors, recorded before echelon rows and
    # subspaces became sparse.
    _matches_fixture(name, check)


@pytest.mark.parametrize(
    "name",
    ["std7-check", "random7-check", "quotient8", "quotient-random8-check"])
def test_lie_fixture_generators_are_the_oracle_kernel_vectors(name):
    # each committed generator, as the report labels it, is the dense
    # oracle's surviving kernel vector; reduced in order against the
    # image, the oracle's vectors give the residual representatives the
    # fixtures held before, so the recorded classes are the same
    job = parse_config((FIXTURES / (name + ".cfg")).read_text()).job
    algebra, names = job.algebra, ["e%d" % i for i in range(job.algebra.dim)]
    if job.ideal_vectors is not None:
        sub = Subspace.span(algebra.dim, job.ideal_vectors)
        algebra = quotient(algebra, sub)
        names = ["e%d" % c for c in sub.complement]
    n = algebra.dim
    d = [dk.entries for dk in ce_complex(algebra).d]
    oracle = naive_kernel_generators(d, n)
    assert naive_generators(d, n, oracle) == naive_generators(d, n)
    labels = [[payload.vector_label(
        tuple((j, x.as_integer_ratio()) for j, x in enumerate(v) if x),
        enumerate_basis(n, k), names) for v in gens]
        for k, gens in enumerate(oracle)]
    recorded = json.loads((FIXTURES / (name + ".json")).read_text())
    assert recorded["generators"] == labels


@pytest.mark.parametrize(
    "name", ["torus-alpha6-check", "torus-inv6", "torus-mixed6-check",
             "automorphism-cat-sum4"])
def test_torus_reports_match_committed_fixtures(name):
    # alpha6-check: two directions with fractional rational and alpha
    # parts (dependent at alpha = 0, so the frame substitutes 1), an
    # invariance coordinate, and survivors whose derived pivot
    # coordinates are half-integers for odd free values; recorded before
    # echelon rows and subspaces became sparse.  inv6: a rational
    # direction inside the invariance coordinate, so the other five
    # coordinates are untouched and the 9^5 box is counted in closed
    # form.  mixed6-check: alpha parts on three coordinates, one
    # invariance coordinate and two untouched ones, so both the pinned
    # survivors and the untouched box are nontrivial.  Both recorded
    # while every survivor was still grouped one by one.  cat-sum4: the
    # cat map on each T^2 factor of T^4, a [torus] job with automorphism
    # rows, recorded while the cyclotomic factors were still divided out
    # of the characteristic polynomial.  A -check name runs with --check.
    _matches_fixture(name, name.endswith("-check"))


def test_witness_reports_match_committed_fixtures():
    # levels 2..8 at order 4 on an odd grid of 4,001 samples, with the
    # order-4 monotone break from level 2 to 3 in both families; recorded
    # while every order-0 sample of every level was still scanned to
    # recover the levels
    _matches_fixture("witness-order4", False)


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize(
    "name, check",
    [("quotient-random8-check", True), ("torus-mixed6-check", True),
     ("witness-order4", False), ("automorphism-cat-sum4", False)],
)
def test_rendered_reports_match_committed_fixtures(name, check, fmt):
    # the table and CSV renders byte for byte: a Lie quotient with every
    # certificate on the table's certificates line, a torus job with its
    # cross-check line, the witness sup table with its monotone breaks,
    # forced levels and degree-one line, and an automorphism job with its
    # det and ruled-out Phi_m line
    payload = _fixture_payload(name, check)
    expected = (FIXTURES / ("%s.%s" % (name, fmt))).read_text()
    assert render(payload, fmt) == expected


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


def test_witness_level_below_float_resolution_exits_one(tmp_path):
    # the sample points of I_511 round onto its ends, and 2^(2*512)
    # overflows a float: config refuses the job before any bump is built
    cfg = _write(tmp_path, "job.cfg", WITNESS_CFG.replace(
        "k_min = 2\nk_max = 5\nmax_derivative_order = 2\n"
        "samples_per_interval = 2001",
        "k_min = 511\nk_max = 512\nmax_derivative_order = 0\n"
        "samples_per_interval = 101"))
    out = tmp_path / "report.json"
    proc = _run_cli(["--input", cfg, "--format", "json", "--output", str(out)])
    assert proc.returncode == 1
    assert not out.exists()
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "engine: configuration error: key 'samples_per_interval': level 511 "
        "lies below float resolution: its sample points round onto the "
        "ends of I_511\n")
