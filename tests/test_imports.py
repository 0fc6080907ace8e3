"""No pipeline starts with numpy or sympy, the package
imports without dataclasses or inspect and compiles no source at run
time, importing the package or the cli loads no pipeline and a job loads
only its own, the package's names resolve lazily to their home objects,
a wrapper set on a cli name before the first job is the one called,
only a Lie job that names a space loads the space module and only a
dense_subalgebra job the closure module, only a
table or CSV job the renderers and only a --check Lie job the sign
check, the sign check reads no sign code of the differential it
certifies, no job compiles a regular expression,
no job process loads argparse, gettext or locale, nor fractions,
decimal, _decimal or numbers, nor, in an interpreter that preloads
nothing, typing or pathlib, no module imports pathlib or typing at run
time, only a discrete torus job loads the discrete module, only matrix
builds dense rows, no engine module holds more tokens than the budget,
only config and lie_job import the token reader, no module imports another's
private names or a name it does not use, every public function, class
and method is named by some engine module, the names the bench tracer
wraps still resolve and traced jobs open the pinned spans, the test
oracles import no
production check, and the differentials, their certificates and
generators, the subspace and quotient code and the torus frame and mode
scan never load fractions.

The import checks run in a fresh interpreter, since this test process
has long since imported both libraries for other tests.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import quotientcoh

SRC = str(Path(quotientcoh.__file__).resolve().parents[1])

HEAVY = ("numpy", "sympy")
# dataclasses compiles generated methods and brings in inspect, ast, dis
# and tokenize; quotientcoh.record replaces it
CODEGEN = ("dataclasses", "inspect")

IMPORT_ONLY = """
import json, sys
import quotientcoh, quotientcoh.cli
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (HEAVY + CODEGEN,)

RUN_JOB = """
import json, sys
from quotientcoh.cli import main
code = main(["--input", sys.argv[1], "--format", "json",
             "--output", sys.argv[2]])
print(json.dumps([code, sorted(n for n in %r if n in sys.modules)]))
""" % (HEAVY,)

# argparse loads gettext, whose language lookup loads locale; the cli
# parses its five options itself
ARGPARSE = ("argparse", "gettext", "locale")

# the cli import, then one job per pipeline and a usage error, each
# through main; after each step, its exit code and which of those modules
# are loaded
NO_ARGPARSE = """
import json, sys
import quotientcoh.cli
from quotientcoh.cli import main

def loaded():
    return sorted(n for n in %r if n in sys.modules)

steps = [["import", None, loaded()]]
lie, torus, witness, out = sys.argv[1:]
for name, argv in (
    ("lie", ["--input", lie, "--format", "json", "--output", out]),
    ("torus", ["--input", torus, "--format", "json", "--output", out]),
    ("witness", ["--input", witness, "--format", "json", "--output", out]),
    ("usage", ["--input", lie, "--format", "xml"]),
):
    steps.append([name, main(argv), loaded()])
print(json.dumps(steps))
""" % (ARGPARSE,)

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

WITNESS_CFG = """\
[witness]
k_min = 2
k_max = 4
max_derivative_order = 4
samples_per_interval = 2001
"""


def _python(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


def test_package_import_loads_neither_library():
    assert not set(json.loads(_python(IMPORT_ONLY))) & set(HEAVY)


def test_package_import_loads_no_code_generation():
    assert not set(json.loads(_python(IMPORT_ONLY))) & set(CODEGEN)


def test_no_job_process_loads_argparse_gettext_or_locale(tmp_path):
    cfgs = []
    for name, text in (("lie", HEISENBERG_CFG), ("torus", TORUS_CFG),
                       ("witness", WITNESS_CFG)):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        cfgs.append(str(cfg))
    out = str(tmp_path / "report.json")
    assert json.loads(_python(NO_ARGPARSE, *cfgs, out)) == [
        ["import", None, []], ["lie", 0, []], ["torus", 0, []],
        ["witness", 0, []], ["usage", 2, []]]


# what a site-packages .pth file may preload (one that imports certifi
# loads all four), so an interpreter started with -S, whose site module
# preloads nothing, shows what the engine itself imports.  pathlib brings
# fnmatch and urllib.parse; a JSON report still loads re and enum, since
# json.decoder and json.encoder import re
PRELOADED = ("typing", "pathlib", "re", "enum")
NOT_AT_RUN_TIME = ("typing", "pathlib", "fnmatch", "urllib.parse")

# written before json is imported, and printed as a literal, so that the
# script loads nothing it checks for
CLEAN_INTERPRETER = """
import sys
import quotientcoh.cli
steps = [["import", None, sorted(n for n in %r if n in sys.modules)]]
from quotientcoh.cli import main
out = sys.argv.pop()
jobs = sys.argv[1:]
for i in range(0, len(jobs), 4):
    name, cfg, fmt, check = jobs[i:i + 4]
    code = main(["--input", cfg, "--format", fmt, "--output",
                 out + "/" + name + "." + fmt] + check.split())
    steps.append([name, code, sorted(n for n in %r if n in sys.modules)])
print(repr(steps))
""" % (PRELOADED, NOT_AT_RUN_TIME)


def test_a_clean_interpreter_job_loads_neither_typing_nor_pathlib(tmp_path):
    jobs = []
    for name, text, fmt, check in (
            ("lie", HEISENBERG_CFG, "json", "--check"),
            ("torus", TORUS_CFG, "json", ""),
            ("witness", WITNESS_CFG, "json", ""),
            ("table", QUOTIENT_CFG, "table", ""),
            ("refused", ZERO_DIRECTION_CFG, "json", "")):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        jobs += [name, str(cfg), fmt, check]
    steps = ast.literal_eval(_python(CLEAN_INTERPRETER, *jobs, str(tmp_path),
                                     flags=("-S",)))
    assert steps == [["import", None, []], ["lie", 0, []], ["torus", 0, []],
                     ["witness", 0, []], ["table", 0, []],
                     ["refused", 2, []]]


def test_no_module_imports_pathlib_or_typing_at_run_time():
    # a name used only in annotations is imported under the module's own
    # TYPE_CHECKING = False, which type checkers read as true by its name;
    # typing.TYPE_CHECKING would load typing to read a constant
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        guarded = {id(node) for block in tree.body
                   if isinstance(block, ast.If)
                   and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
        flags = [ast.unparse(node) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "TYPE_CHECKING"]
        assert flags == (["TYPE_CHECKING = False"] if guarded else []), (
            path.name, flags)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            assert "pathlib" not in roots, (path.name, ast.unparse(node))
            assert "typing" not in roots or id(node) in guarded, (
                path.name, ast.unparse(node))


def test_package_compiles_no_source_at_run_time():
    calls = re.compile(r"\b(exec|eval)\(")
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            assert not calls.search(line), (path.name, line_no, line)


def test_only_matrix_reads_the_dense_view():
    # echelon rows, subspaces and brackets stay sparse; dense rows are
    # built only in matrix (ExactMatrix.entries), for tests and the bench
    # tracer, so dropping that view touches one module
    dense = re.compile(r"\bdense_row\b|\.entries\b")
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "matrix.py":
            continue
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            assert not dense.search(line), (path.name, line_no, line)


# the most tokens an engine module may hold; the tokens that count are
# names, operators, numbers and strings (comments, NL, NEWLINE, INDENT,
# DEDENT and the encoding and end markers do not)
TOKEN_BUDGET = 1500
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def test_every_engine_module_is_within_the_token_budget():
    """Without a bytecode cache every job compiles each module it imports,
    and the compiler holds one module's tokens and syntax tree at a time,
    so a job's peak RSS is set while its largest module compiles.  In a
    Lie job the traced compile peak of lie.py, 2,643 tokens, was 1,324 KB
    against at most 966 KB for any other module; with every module within
    the budget the largest is 780 KB, and small-jobs peak_rss_mb fell
    from 14.95 to 14.39 MB (BENCH_module_budget.json)."""
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        with path.open("rb") as source:
            size = sum(1 for token in tokenize.tokenize(source.readline)
                       if token.type not in UNCOUNTED)
        assert size <= TOKEN_BUDGET, (
            "%s holds %d tokens, over the budget of %d: split it along a "
            "seam, see README \"Where new code goes\""
            % (path.name, size, TOKEN_BUDGET))


# the modules that read job text: config, which reads [torus] and the
# shared value shapes, and lie_job, which reads the bracket lines
TOKEN_READERS = {"config.py", "lie_job.py"}


def test_only_the_section_readers_import_the_token_reader():
    # each value shape keeps one reader, and no pipeline module parses job
    # text: only config and lie_job import literals
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in TOKEN_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                modules = [module] + [module + "." + a.name
                                      for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "literals"
                           for m in modules), (path.name, ast.unparse(node))


def test_no_module_imports_a_private_name_of_another():
    # an underscore name stays inside its module; what another module
    # needs (scalars.rref for the torus scan) is made public
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").startswith("quotientcoh"):
                private = [a.name for a in node.names if a.name[0] == "_"]
                assert not private, (path.name, ast.unparse(node))


def test_lie_and_torus_jobs_load_neither_library(tmp_path):
    for name, text, betti in (
        ("heisenberg", HEISENBERG_CFG, [1, 2, 2, 1]),
        ("torus", TORUS_CFG, [1, 2, 1]),
        ("witness", WITNESS_CFG, None),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        out = tmp_path / (name + ".json")
        code, loaded = json.loads(_python(RUN_JOB, str(cfg), str(out)))
        assert code == 0, name
        assert json.loads(out.read_text())["betti"] == betti, name
        assert loaded == [], name


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

QUOTIENT_CFG = HEISENBERG_CFG + "ideal = 0,0,1\n"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_spans(tmp_path, name: str, text: str, check: bool = True) -> list:
    """The spans of one traced job, --check by default, which must exit 0."""
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(text)
    spans_out = tmp_path / (name + ".spans.json")
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans_out), "--input",
         str(cfg), "--format", "json"] + ["--check"] * check,
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert done.returncode == 0, (name, done.stderr)
    return json.loads(spans_out.read_text())["spans"]


def test_tracer_wraps_names_that_exist(tmp_path):
    # install() replaces each (module, attribute) of SPANNED and COUNTED
    # by name, so a refactor that drops one kills every traced run; the
    # tracer also opens cli.main and lie.d_squared_violation itself
    allowed = set(_tracer_module().SPANNED) | {
        "cli.main", "lie.d_squared_violation"}
    for name, text, expected in (
        ("heisenberg", HEISENBERG_CFG,
         {"lie.betti", "scalars.nullspace_basis", "lie.phi_sign_check"}),
        ("torus", TORUS_CFG,
         {"torus.torus_betti", "torus.koszul_certificate",
          "torus.cross_check_ce"}),
        ("witness", WITNESS_CFG,
         {"witness.build_bumps", "witness.verify_bounds"}),
    ):
        names = {span[0] for span in _traced_spans(tmp_path, name, text)}
        assert "cli.main" in names, name
        assert names <= allowed, (name, names - allowed)
        assert expected <= names, (name, expected - names)


# span name -> how many times a traced job opens it.  The tracer wraps
# each name where its caller looks it up (betti calls lie.nullspace_basis,
# nullspace_basis scalars.rref, the Subspace constructor lie.rref,
# torus_betti torus.build_mode_complex and torus.koszul_certificate, the
# runners the cli names), so a module split that moves a call away from
# its wrapped lookup changes these counts
TRACED_SPANS = {
    "lie --check": {
        "cli.main": 1, "cli.render": 1, "cli.run_job": 1,
        "config.parse_config": 1, "lie.betti": 1, "lie.ce_complex": 1,
        "lie.d_squared_violation": 2, "lie.jacobi_check": 1,
        "lie.phi_sign_check": 1, "scalars.nullspace_basis": 3,
        "scalars.rref": 3},
    "quotient": {
        "cli.main": 1, "cli.render": 1, "cli.run_job": 1,
        "config.parse_config": 1, "lie.betti": 1, "lie.ce_complex": 1,
        "lie.d_squared_violation": 2, "lie.jacobi_check": 1,
        "lie.quotient": 1, "scalars.nullspace_basis": 2, "scalars.rref": 3},
    "torus --check": {
        "cli.main": 1, "cli.render": 1, "cli.run_job": 1,
        "config.parse_config": 1, "lie.betti": 1, "lie.ce_complex": 1,
        "lie.d_squared_violation": 2, "lie.quotient": 1,
        "scalars.nullspace_basis": 2, "scalars.rank": 3, "scalars.rref": 5,
        "torus.build_mode_complex": 2, "torus.cross_check_ce": 1,
        "torus.koszul_certificate": 1, "torus.surviving_modes": 1,
        "torus.torus_betti": 1, "torus.transverse_frame": 1},
}


def test_traced_jobs_open_the_pinned_spans(tmp_path):
    for name, text, check in (("lie --check", HEISENBERG_CFG, True),
                              ("quotient", QUOTIENT_CFG, False),
                              ("torus --check", TORUS_CFG, True)):
        spans = _traced_spans(tmp_path, name.split()[0], text, check)
        counts = {}
        for span in spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        assert counts == TRACED_SPANS[name], name


def test_tracer_spans_the_class_complexes(tmp_path):
    # every site the tracer patches resolves, and the d.d check of a
    # torus class complex is the CochainComplex method it spans
    from quotientcoh import cli, lie, scalars, torus

    tracer = _tracer_module()
    modules = {"cli": cli, "lie": lie, "scalars": scalars, "torus": torus}
    for table in (tracer.SPANNED, tracer.COUNTED):
        for sites in table.values():
            for module, attr in sites:
                assert callable(getattr(modules[module], attr, None)), (
                    module, attr)
    assert callable(lie.CochainComplex.d_squared_violation)
    spans = _traced_spans(tmp_path, "torus", TORUS_CFG)
    names = [span[0] for span in spans]
    assert {"torus.build_mode_complex", "torus.koszul_certificate",
            "lie.d_squared_violation"} <= set(names)
    assert any(name == "lie.d_squared_violation"
               and names[parent] == "torus.koszul_certificate"
               for name, _, _, parent in spans)
    names = {span[0] for span in _traced_spans(tmp_path, "quotient",
                                                QUOTIENT_CFG)}
    assert {"lie.quotient", "lie.d_squared_violation",
            "lie.phi_sign_check"} <= names


def test_tracer_spans_the_mode_scan_elimination(tmp_path):
    # surviving_modes eliminates through Subspace.span, which calls
    # lie.rref, and the tracer spans that name as scalars.rref
    spans = _traced_spans(tmp_path, "torus", TORUS_CFG)
    names = [span[0] for span in spans]
    assert any(name == "scalars.rref" and parent >= 0
               and names[parent] == "torus.surviving_modes"
               for name, _, _, parent in spans)


def test_every_imported_name_is_used():
    # a leftover import after a refactor fails here.  A module may import
    # a name for the bench tracer alone, which wraps it by (module, name);
    # those sites are pinned, so a new tracer-only import fails too, and
    # so does a pinned one that the engine starts to call
    tracer = _tracer_module()
    exempt = {site for table in (tracer.SPANNED, tracer.COUNTED)
              for sites in table.values() for site in sites}
    tracer_only = set()
    package = Path(quotientcoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, (ast.List, ast.Tuple))
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                # a literal __all__ re-exports what the module imports;
                # the package's own __all__ is derived and imports nothing
                used |= set(ast.literal_eval(node.value))
        unused = {(path.stem, name) for name in imported - used}
        tracer_only |= unused & exempt
        assert not unused - exempt, (path.name, sorted(unused - exempt))
    assert tracer_only == {("lie", "rank"), ("lie", "remove_pair"),
                           ("lie", "wedge_insert"), ("torus", "wedge_insert")}


# public names no engine module calls, each kept for a reader outside
PUBLIC_UNREACHED = {
    "canonical_json",  # the criterion-9 serializer of byte-identical reports
    "heisenberg",  # README "Library use" builds on it
    "sl2",  # the other exported reference algebra, which tests build on
    "entries",  # the dense ExactMatrix view the tests and bench tracer read
}


def test_every_public_name_is_reached():
    # a public function, class or method that no engine module names (a
    # function or class by Name, Attribute or ImportFrom, a method by
    # Attribute only, since a local variable of the same name reaches no
    # method; the package's export table does not count) is a wrapper no
    # pipeline uses, and fails here
    package = Path(quotientcoh.__file__).parent
    defined = set()
    named = set()
    attributes = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined |= {(path.name, "%s.%s" % (node.name, item.name),
                             item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)}
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named |= {a.name for a in node.names}
    unreached = {(module, qualname) for module, qualname, name in defined
                 if not any(part[0] == "_" for part in qualname.split("."))
                 and name not in attributes and name not in PUBLIC_UNREACHED
                 and ("." in qualname or name not in named)}
    assert not unreached, sorted(unreached)


ORACLES = Path(__file__).resolve().parent / "oracles.py"
# constructors and the monomial order; nothing that decides a result
ORACLE_IMPORTS = {"LieAlgebra", "abelian", "heisenberg", "sl2",
                  "enumerate_basis"}


def test_oracles_import_no_production_check():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "quotientcoh"
                           for a in node.names), ast.unparse(node)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "quotientcoh"):
            imported |= {a.name for a in node.names}
    assert imported <= ORACLE_IMPORTS, imported - ORACLE_IMPORTS


# the exact core and every report field run on (numerator, denominator)
# int pairs; the fractions module, and the decimal and numbers modules it
# imports, are loaded only by the dense ExactMatrix.entries view
RATIONALS = ("fractions", "decimal", "_decimal", "numbers")

# the computations of the exact core on fractional input given as pairs,
# generators included, in one fresh interpreter; then the modules of
# RATIONALS that are loaded
CORE_BUILDS_NO_FRACTION = """
import json, sys
from quotientcoh import ExtScalar, TorusSpec, algebra, cochain, lie, scalars
from quotientcoh.torus import (
    build_mode_complex, koszul_certificate, surviving_modes,
    transverse_frame)

# filiform(8), and heisenberg + R, as the test oracles build them
g = algebra.LieAlgebra.from_brackets(8, {(0, i, i + 1): 1 for i in range(1, 7)})
heis_r = algebra.LieAlgebra.from_brackets(4, {(0, 1, 2): 1})
half, third = (1, 2), (1, 3)
# an ideal given by fractional vectors, and one whose echelon row
# (0, 0, 2, 3) has lead 2 in heisenberg + R, where e2 and e3 are central
ideals = (
    (g, [[0] * 5 + [half, third, 0], [0] * 5 + [1, 0, (-2, 5)],
         [0] * 6 + [(3, 4), 1]]),
    (heis_r, [[0, 0, half, (3, 4)]]),
)
not_ideal = [[0, 1, half, 0, 0, 0, 0, 0]]
spec = TorusSpec(4, ((ExtScalar(half), ExtScalar(third, 1), ExtScalar(0),
                      ExtScalar((2, 5))),
                     (ExtScalar(0), ExtScalar(1), ExtScalar(2, third),
                      ExtScalar(0))), {3}, 2)
c = cochain.ce_complex(g)
assert c.d_squared_violation() is None
for w in ((1, 0, 0), (2, -3, 0, 1)):
    assert koszul_certificate(w, build_mode_complex(w)).ok
for parent, vectors in ideals:
    h = lie.Subspace.span(parent.dim, vectors)
    assert algebra.quotient(parent, h).dim == parent.dim - h.dim
try:
    algebra.quotient(g, lie.Subspace.span(8, not_ideal))
except algebra.NotAnIdeal:
    pass
else:
    raise AssertionError("quotient by a subspace that is not an ideal")
for dk in c.d:
    scalars.nullspace_basis(dk)
assert len(transverse_frame(spec).skeleton.complement) == 2
assert surviving_modes(spec, 2)
# the generators, divided by their leads
assert lie.betti(c).generators
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (RATIONALS,)


def test_differentials_and_their_certificates_build_no_fraction():
    # a fresh interpreter that never loads fractions has built no Fraction
    assert json.loads(_python(CORE_BUILDS_NO_FRACTION)) == []


# the cli import, a lie job with a fractional bracket and ideal, a torus
# job with a fractional alpha direction, a witness job, a decimal-literal
# refusal and a usage error, each through main; after each step, its exit
# code and which of RATIONALS are loaded
NO_RATIONALS = """
import json, sys
import quotientcoh.cli
from quotientcoh.cli import main

def loaded():
    return sorted(n for n in %r if n in sys.modules)

steps = [["import", None, loaded()]]
lie, torus, witness, decimal, out = sys.argv[1:]
for name, path in (("lie", lie), ("torus", torus), ("witness", witness),
                   ("decimal", decimal)):
    argv = ["--input", path, "--format", "json", "--check",
            "--output", out + "/" + name + ".json"]
    steps.append([name, main(argv), loaded()])
steps.append(["usage", main(["--input", lie, "--truncation", "x"]), loaded()])
print(json.dumps(steps))
""" % (RATIONALS,)

FRACTIONAL_LIE_CFG = """\
[lie]
dim = 4
bracket = 0 1 2 1/2
bracket = 0 1 3 1/3
bracket = 0 1 0 2/5
ideal = 0,0,1/2,-3/4
"""

FRACTIONAL_TORUS_CFG = """\
[torus]
n = 3
foliation = 1/2+1/3*alpha,1,0
truncation = 2
"""

DECIMAL_CFG = """\
[lie]
dim = 3
bracket = 0 1 2 0.5
"""


def test_no_job_process_loads_fractions_or_decimal(tmp_path):
    cfgs = []
    for name, text in (("lie", FRACTIONAL_LIE_CFG),
                       ("torus", FRACTIONAL_TORUS_CFG),
                       ("witness", WITNESS_CFG), ("decimal", DECIMAL_CFG)):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        cfgs.append(str(cfg))
    steps = json.loads(_python(NO_RATIONALS, *cfgs, str(tmp_path)))
    assert steps == [
        ["import", None, []], ["lie", 0, []], ["torus", 0, []],
        ["witness", 0, []], ["decimal", 1, []], ["usage", 2, []]]
    # both reports rendered their rationals from pairs, as str(Fraction)
    lie = json.loads((tmp_path / "lie.json").read_text())
    assert lie["generators"][1] == ["e1", "e0 - 24/65*e3"]
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["certificates"]["intervals"][0] == [2, "1/4", "5/16"]


PIPELINES = tuple("quotientcoh." + name for name in (
    "algebra", "cochain", "lie", "foliation", "koszul", "torus", "grid",
    "witness", "sturm"))
WATCHED = PIPELINES + ("csv",)

IMPORT_FRONT = """
import json, sys
import quotientcoh, quotientcoh.cli
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (WATCHED,)

# a job also reports whether it loaded exterior, which the lie pipeline
# imports and the witness does not
RUN_JOB_MODULES = """
import json, sys
from quotientcoh.cli import main
code = main(["--input", sys.argv[1], "--format", sys.argv[3],
             "--output", sys.argv[2]])
print(json.dumps([code, sorted(n for n in %r if n in sys.modules)]))
""" % (WATCHED + ("quotientcoh.exterior",),)

ZERO_DIRECTION_CFG = """\
[torus]
n = 3
foliation = 0,0,0
"""


def test_package_and_cli_import_load_no_pipeline():
    assert json.loads(_python(IMPORT_FRONT)) == []


def test_each_job_loads_only_its_own_pipeline(tmp_path):
    # a torus job loads the lie modules too: its mode complexes are
    # cochain complexes; a torus job refused while its TorusSpec is built
    # compiles foliation alone, and no Koszul or cochain code
    lie = {"quotientcoh.algebra", "quotientcoh.cochain", "quotientcoh.lie",
           "quotientcoh.exterior"}
    for name, text, fmt, exit_code, loads in (
        ("heisenberg", HEISENBERG_CFG, "json", 0, lie),
        ("torus", TORUS_CFG, "json", 0, lie | {
            "quotientcoh.foliation", "quotientcoh.koszul",
            "quotientcoh.torus"}),
        ("zero-direction", ZERO_DIRECTION_CFG, "json", 2,
         {"quotientcoh.foliation"}),
        ("witness", WITNESS_CFG, "json", 0, {
            "quotientcoh.grid", "quotientcoh.sturm", "quotientcoh.witness"}),
        ("quotient", QUOTIENT_CFG, "table", 0, lie),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        out = tmp_path / (name + ".out")
        code, loaded = json.loads(
            _python(RUN_JOB_MODULES, str(cfg), str(out), fmt))
        assert code == exit_code, name
        assert set(loaded) == loads, (name, loaded)


RUN_JOB_PACKAGE = """
import json, sys
from quotientcoh.cli import main
code = main(["--input", sys.argv[1], "--format", "json",
             "--output", sys.argv[2]])
print(json.dumps([code, sorted(n for n in sys.modules
                               if n.split(".")[0] == "quotientcoh")]))
"""

# the package modules every job that parses loads: the front, the job
# file reader and the report payload
FRONT_MODULES = ["quotientcoh"] + ["quotientcoh." + name for name in (
    "cli", "config", "errors", "literals", "options", "payload", "ratio",
    "record")]
# the Lie pipeline, which a torus job loads too
LIE_PIPELINE = ["quotientcoh." + name for name in (
    "algebra", "cochain", "exterior", "lie", "matrix", "scalars")]
# the package modules a Lie job without a space key loads: the pipeline
# and the reader of its [lie] section
LIE_JOB_MODULES = sorted(FRONT_MODULES + LIE_PIPELINE + ["quotientcoh.lie_job"])
TORUS_JOB_MODULES = sorted(FRONT_MODULES + LIE_PIPELINE + [
    "quotientcoh.foliation", "quotientcoh.koszul", "quotientcoh.torus"])
WITNESS_JOB_MODULES = sorted(FRONT_MODULES + [
    "quotientcoh.grid", "quotientcoh.sturm", "quotientcoh.witness",
    "quotientcoh.witness_job"])


def test_only_a_lie_job_with_a_space_loads_the_space_module(tmp_path):
    # the space certificate is its own module, so a job that names no
    # space compiles nothing new
    loaded = {}
    for name, text in (
            ("lie", HEISENBERG_CFG),
            ("space", HEISENBERG_CFG + "space = nilmanifold\n"),
            ("quotient", QUOTIENT_CFG), ("torus", TORUS_CFG),
            ("witness", WITNESS_CFG)):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        code, loaded[name] = json.loads(_python(
            RUN_JOB_PACKAGE, str(cfg), str(tmp_path / (name + ".json"))))
        assert code == 0, name
    assert loaded["lie"] == loaded["quotient"] == LIE_JOB_MODULES
    assert loaded["space"] == sorted(LIE_JOB_MODULES + ["quotientcoh.space"])
    assert "quotientcoh.space" not in loaded["torus"] + loaded["witness"]


def test_only_a_dense_subalgebra_job_loads_its_module(tmp_path):
    # the closure is its own module, bound by cli for these jobs alone;
    # an ideal job with the same vector loads none of it
    loaded = {}
    for name, text in (
            ("dense", HEISENBERG_CFG + "dense_subalgebra = 1,0,0\n"),
            ("ideal", HEISENBERG_CFG + "ideal = 0,0,1\n")):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        code, loaded[name] = json.loads(_python(
            RUN_JOB_PACKAGE, str(cfg), str(tmp_path / (name + ".json"))))
        assert code == 0, name
    assert loaded["ideal"] == LIE_JOB_MODULES
    assert loaded["dense"] == sorted(
        LIE_JOB_MODULES + ["quotientcoh.dense_subalgebra"])


def test_only_a_discrete_torus_job_loads_its_module(tmp_path):
    # the second torus job and the comparison are their own module, bound
    # by cli for jobs with discrete coordinates alone
    loaded = {}
    for name, text in (("torus", TORUS_CFG),
                       ("discrete", TORUS_CFG + "discrete = 0\n")):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        code, loaded[name] = json.loads(_python(
            RUN_JOB_PACKAGE, str(cfg), str(tmp_path / (name + ".json"))))
        assert code == 0, name
    assert loaded["torus"] == TORUS_JOB_MODULES
    assert loaded["discrete"] == sorted(
        TORUS_JOB_MODULES + ["quotientcoh.discrete"])


# an automorphism job computes its invariant forms as a kernel subcomplex
# of the abelian Lie algebra's complex, read by lie.betti
AUTOMORPHISM_JOB_MODULES = sorted(FRONT_MODULES + LIE_PIPELINE + [
    "quotientcoh." + name for name in ("automorphism", "foliation",
                                       "subcomplex")])


def test_only_an_automorphism_job_loads_its_module(tmp_path):
    # a [torus] section with automorphism rows is read by config and run
    # by its own module, which needs the Lie pipeline and the subcomplex
    # module and no torus code (the torus job's exact module set is
    # asserted above)
    cfg = tmp_path / "cat.cfg"
    cfg.write_text(
        "[torus]\nn = 2\nautomorphism = 2,1\nautomorphism = 1,1\n")
    code, loaded = json.loads(_python(
        RUN_JOB_PACKAGE, str(cfg), str(tmp_path / "cat.json")))
    assert code == 0
    assert loaded == AUTOMORPHISM_JOB_MODULES


def test_a_foliated_automorphism_job_loads_no_more_modules(tmp_path):
    # with foliation rows the induced map is read off a lie.Subspace,
    # whose module every automorphism job loads for betti already
    cfg = tmp_path / "shear.cfg"
    cfg.write_text("[torus]\nn = 3\nfoliation = 0,0,1\nautomorphism = 2,1,0\n"
                   "automorphism = 1,1,0\nautomorphism = 1,-1,1\n")
    code, loaded = json.loads(_python(
        RUN_JOB_PACKAGE, str(cfg), str(tmp_path / "shear.json")))
    assert code == 0
    assert loaded == AUTOMORPHISM_JOB_MODULES


def test_only_automorphism_jobs_load_the_subcomplex_module(tmp_path):
    # lie, quotient, torus and witness jobs keep their module sets, and
    # no engine module but automorphism imports subcomplex at run time
    for name, text in (("lie", HEISENBERG_CFG), ("quotient", QUOTIENT_CFG),
                       ("torus", TORUS_CFG), ("witness", WITNESS_CFG)):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        code, loaded = json.loads(_python(
            RUN_JOB_PACKAGE, str(cfg), str(tmp_path / (name + ".json"))))
        assert (code, loaded) == (0, JOB_MODULES[name]), name
    package = Path(quotientcoh.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        guarded = {id(node) for block in tree.body
                   if isinstance(block, ast.If)
                   and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
        importers |= {path.stem for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "subcomplex"
                      and id(node) not in guarded}
    assert importers == {"automorphism"}


# a job run through main with the command line it is given; its exit code
# and the package modules it loaded
RUN_JOB_ARGV = """
import json, sys
from quotientcoh.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(n for n in sys.modules
                               if n.split(".")[0] == "quotientcoh")]))
"""

RENDERERS, SIGN_CHECK = "quotientcoh.tables", "quotientcoh.sign_twist"
JOB_MODULES = {"lie": LIE_JOB_MODULES, "quotient": LIE_JOB_MODULES,
               "torus": TORUS_JOB_MODULES, "witness": WITNESS_JOB_MODULES}


def test_renderers_and_sign_check_load_only_for_the_jobs_that_use_them(
        tmp_path):
    # every bench job renders JSON and only --check Lie jobs run the sign
    # check, so the other jobs compile neither module; each job loads its
    # own pipeline's modules and nothing else
    for name, text, fmt, check, expected in (
        ("lie", HEISENBERG_CFG, "json", False, set()),
        ("lie", HEISENBERG_CFG, "json", True, {SIGN_CHECK}),
        ("lie", HEISENBERG_CFG, "table", False, {RENDERERS}),
        ("quotient", QUOTIENT_CFG, "csv", True, {RENDERERS, SIGN_CHECK}),
        ("torus", TORUS_CFG, "json", False, set()),
        ("torus", TORUS_CFG, "json", True, set()),
        ("torus", TORUS_CFG, "table", True, {RENDERERS}),
        ("witness", WITNESS_CFG, "json", False, set()),
        ("witness", WITNESS_CFG, "csv", False, {RENDERERS}),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        argv = ["--input", str(cfg), "--format", fmt,
                "--output", str(tmp_path / (name + "." + fmt))]
        code, loaded = json.loads(
            _python(RUN_JOB_ARGV, *argv + ["--check"] * check))
        assert code == 0, (name, fmt, check)
        assert set(loaded) == set(JOB_MODULES[name]) | expected, (
            name, fmt, check, loaded)


def test_the_sign_check_resolves_to_its_own_module():
    from quotientcoh import cli, sign_twist

    assert quotientcoh.phi_sign_check is sign_twist.phi_sign_check
    assert cli.phi_sign_check is sign_twist.phi_sign_check


# all the sign check imports at run time from the package: the weight
# cleared by one denominator and the monomial order, so it cannot borrow
# ce_differential's sign placement (its bisection) or exterior.wedge_insert
SIGN_CHECK_IMPORTS = {"cochain": {"cleared_weight"},
                      "exterior": {"enumerate_basis"}}


def test_the_sign_check_reads_no_sign_code():
    path = Path(quotientcoh.__file__).with_name("sign_twist.py")
    tree = ast.parse(path.read_text())
    # a TYPE_CHECKING import only names a type for an annotation
    typing_only = {id(node) for block in tree.body
                   if isinstance(block, ast.If)
                   and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
    modules, package = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
            if node.level and id(node) not in typing_only:
                package.setdefault(node.module, set()).update(
                    a.name for a in node.names)
    assert not modules & {"bisect", "itertools"}, modules
    assert package == SIGN_CHECK_IMPORTS


# every regular expression is compiled, or fetched from re's cache, by
# re._compile; record the calls made from a quotientcoh frame while the
# package is imported and one job of each pipeline runs through main
NO_PATTERN = """
import json, re, sys
patterns = []
compile_ = re._compile

def recorded(pattern, flags):
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") == "re":
        frame = frame.f_back
    if frame.f_globals.get("__name__", "").startswith("quotientcoh"):
        patterns.append(str(pattern))
    return compile_(pattern, flags)

re._compile = recorded
from quotientcoh.cli import main
out = sys.argv.pop()
codes = [main(["--input", cfg, "--format", "json", "--check",
               "--output", out]) for cfg in sys.argv[1:]]
print(json.dumps([codes, patterns]))
"""


def test_no_job_compiles_a_pattern(tmp_path):
    cfgs = []
    for name, text in (("lie", FRACTIONAL_LIE_CFG),
                       ("torus", FRACTIONAL_TORUS_CFG),
                       ("witness", WITNESS_CFG), ("decimal", DECIMAL_CFG)):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        cfgs.append(str(cfg))
    out = str(tmp_path / "report.json")
    assert json.loads(_python(NO_PATTERN, *cfgs, out)) == [[0, 0, 0, 1], []]


def test_csv_job_loads_csv_and_renders(tmp_path):
    cfg = tmp_path / "heisenberg.cfg"
    cfg.write_text(HEISENBERG_CFG)
    out = tmp_path / "heisenberg.csv"
    code, loaded = json.loads(
        _python(RUN_JOB_MODULES, str(cfg), str(out), "csv"))
    assert code == 0
    assert "csv" in loaded
    assert out.read_text() == (
        "degree,betti,generators\n0,1,1\n1,2,e0; e1\n"
        "2,2,e0^e2; e1^e2\n3,1,e0^e1^e2\n")


def test_every_exported_name_resolves_to_its_home_object():
    # the names resolve lazily (PEP 562); each is the object its home
    # module defines, and the table behind __all__ names every home
    homes = quotientcoh._EXPORTS
    assert sorted(quotientcoh.__all__) == sorted(
        name for names in homes.values() for name in names)
    assert len(set(quotientcoh.__all__)) == len(quotientcoh.__all__)
    for module, names in homes.items():
        home = importlib.import_module("quotientcoh." + module)
        for name in names:
            value = getattr(home, name)
            assert getattr(quotientcoh, name) is value, name
            # the home module defines it, not one that imports it
            assert value.__module__ == home.__name__, (name, module)
    assert set(quotientcoh.__all__) <= set(dir(quotientcoh))
    assert "__version__" in dir(quotientcoh)


def test_unknown_package_name_raises_attribute_error():
    import pytest

    with pytest.raises(AttributeError, match="no_such_name"):
        quotientcoh.no_such_name
    with pytest.raises(ImportError):
        from quotientcoh import no_such_name  # noqa: F401


STAR_IMPORT = """
import json, sys
import quotientcoh
from quotientcoh import *
scope = dir()
print(json.dumps([sorted(quotientcoh.__all__),
                  sorted(n for n in quotientcoh.__all__ if n in scope)]))
"""

LAZY_ACCESS = """
import json, sys
import quotientcoh
quotientcoh.betti
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (WATCHED,)


def test_star_import_binds_every_exported_name():
    exported, bound = json.loads(_python(STAR_IMPORT))
    assert bound == exported


def test_first_access_imports_only_the_home_module():
    # lie reads CochainComplex from cochain; nothing of torus or witness
    assert json.loads(_python(LAZY_ACCESS)) == [
        "quotientcoh.cochain", "quotientcoh.lie"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs():
    # the "Library use" snippet: its import line goes through the lazy
    # namespace, and each print matches the comment beside it
    text = README.read_text().split("## Library use", 1)[1]
    snippet = text.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip()
                for line in snippet.splitlines()
                if line.startswith("print(") and "#" in line]
    printed = _python(snippet).splitlines()
    assert printed == expected


# wrap each name through getattr and setattr, as the bench tracer does,
# or by plain assignment before cli ever resolved it; either way the
# wrapper is the callable the first job of that pipeline calls
WRAP_BEFORE_FIRST_JOB = """
import importlib, json, sys
from quotientcoh import cli
how, name, home = sys.argv[3], sys.argv[4], sys.argv[5]
calls = []
if how == "getattr":
    original = getattr(cli, name)
else:
    original = getattr(importlib.import_module("quotientcoh." + home), name)

def wrapper(*args, **kwargs):
    calls.append(name)
    return original(*args, **kwargs)

setattr(cli, name, wrapper)
code = cli.main(["--input", sys.argv[1], "--format", "json",
                 "--output", sys.argv[2]])
print(json.dumps([code, calls, getattr(cli, name) is wrapper]))
"""


def test_wrapper_set_before_first_job_is_called(tmp_path):
    for name, home, text in (
        ("betti", "lie", HEISENBERG_CFG),
        ("torus_betti", "torus", TORUS_CFG),
        ("build_bumps", "witness", WITNESS_CFG),
    ):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(text)
        out = tmp_path / (name + ".json")
        for how in ("getattr", "assign"):
            code, calls, kept = json.loads(_python(
                WRAP_BEFORE_FIRST_JOB, str(cfg), str(out), how, name, home))
            assert (code, calls, kept) == (0, [name], True), (name, how)
