"""Self-test of the benchmark's generator and checker.

    python3 perfbench/selftest.py      (from the root of a source checkout)

It recomputes the pinned block Betti numbers with a naive cochain
complex of its own, checks that a second seed gives a different job list
of the same shape, and shows that every check can fail: the checker must
accept the engine's real reports and reject each corrupted copy.  Exits
0 when everything holds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check  # noqa: E402
from jobs import (CYCLES, PINNED_BETTI, block_table, dense, frac_rank,  # noqa: E402
                  generate, lie_job, refusal, torus_job, witness_job)


def _sign(seq: list[int]) -> int:
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def naive_betti(name: str) -> tuple[int, ...]:
    """Betti numbers from (d a)(Y_0..Y_k) = sum_{s<t} (-1)^(s+t)
    a([Y_s, Y_t], Y_0, .. ^Y_s .. ^Y_t .., Y_k) evaluated on basis
    vectors, with ranks by plain Gaussian elimination."""
    dim, table = block_table(name)
    c = dense(dim, table)
    ranks = []
    for k in range(dim):
        cols = list(combinations(range(dim), k))
        col_index = {mono: i for i, mono in enumerate(cols)}
        rows = []
        for j in combinations(range(dim), k + 1):
            row = [Fraction(0)] * len(cols)
            for s in range(k + 1):
                for t in range(s + 1, k + 1):
                    rest = [x for x in j if x not in (j[s], j[t])]
                    for u in range(dim):
                        coeff = c[j[s]][j[t]][u]
                        if coeff == 0 or u in rest:
                            continue
                        key = tuple(sorted([u] + rest))
                        row[col_index[key]] += ((-1) ** (s + t) * coeff
                                                * _sign([u] + rest))
            rows.append(row)
        ranks.append(frac_rank(rows) if rows and cols else 0)
    return tuple(
        comb(dim, k) - (ranks[k] if k < dim else 0) - (ranks[k - 1] if k else 0)
        for k in range(dim + 1)
    )


def run_engine(job, workdir: Path) -> tuple[int, str | None]:
    cfg = workdir / "job.cfg"
    out = workdir / "out.json"
    if out.exists():
        out.unlink()
    cfg.write_text(job.text)
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quotientcoh", "--input", str(cfg),
         "--output", str(out), *job.flags],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120)
    return proc.returncode, out.read_text() if out.exists() else None


def corrupt(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for name, pinned in PINNED_BETTI.items():
        expect(naive_betti(name) == pinned, "pinned Betti numbers of %s" % name)

    for workload, cycle in CYCLES.items():
        a = generate(workload, 1, len(cycle))
        b = generate(workload, 2, len(cycle))
        same_shape = all(
            x.label == y.label and x.flags == y.flags
            and sorted(x.expect) == sorted(y.expect)
            for x, y in zip(a, b))
        expect(same_shape and [x.text for x in a] != [y.text for y in b]
               and [x.text for x in a] == [
                   x.text for x in generate(workload, 1, len(cycle))],
               "%s: seeds give different job lists of one shape" % workload)

    rng = random.Random(0)
    lie = lie_job(rng, ["heisenberg", "sl2"], basis="random")
    quot = lie_job(rng, ["filiform5"], basis="signed-permutation",
                   quotient_block=0, check=True)
    torus = torus_job(4, [[Fraction(1), Fraction(0), Fraction(2), Fraction(0)]],
                      [[Fraction(0), Fraction(1), Fraction(0), Fraction(0)]],
                      [3], 3, check=True)
    witness = witness_job(2, 6, 4, 2001)
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        work = Path(tmp)
        reports = {}
        for label, job in (("lie", lie), ("lie quotient", quot),
                           ("torus", torus), ("witness", witness)):
            code, text = run_engine(job, work)
            reports[label] = (job, code, text)
            expect(not check(job.expect, code, text),
                   "checker accepts the real %s report" % label)
        for kind in ("non-ideal", "broken-jacobi", "zero-direction", "decimal"):
            job = refusal(kind, rng)
            code, text = run_engine(job, work)
            expect(not check(job.expect, code, text),
                   "checker accepts the %s refusal" % kind)
            expect(bool(check(job.expect, 0, text)),
                   "checker rejects a %s job that exits 0" % kind)

        def betti_edit(r):
            r["betti"][1] += 1

        def sup_edit(r):
            rec = r["certificates"]["sup_bounds"][3]
            rec["measured"] = rec["bound"] * (1 + 1e-6)

        def modes_edit(r):
            r["audited_modes"] += 1

        def violation_edit(r):
            r["certificates"]["monotone_violations"].pop()

        def acyclic_edit(r):
            r["certificates"]["all_modes_acyclic"] = False

        def generator_edit(r):
            r["generators"][1].pop()

        for label, edit, what in (
            ("lie", betti_edit, "one Betti number changed"),
            ("lie quotient", betti_edit, "one quotient Betti number changed"),
            ("lie", generator_edit, "a generator dropped"),
            ("torus", betti_edit, "one torus Betti number changed"),
            ("torus", modes_edit, "a wrong audited_modes count"),
            ("torus", acyclic_edit, "all_modes_acyclic false"),
            ("witness", sup_edit, "a sup over its bound"),
            ("witness", violation_edit, "a monotone violation dropped"),
        ):
            job, code, text = reports[label]
            bad = corrupt(text, edit) if text else None
            expect(bool(check(job.expect, code, bad)),
                   "checker rejects a %s report with %s" % (label, what))
        job, code, text = reports["lie"]
        expect(bool(check(job.expect, 1, text)),
               "checker rejects a lie job with a wrong exit code")
    print("%d self-test failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
