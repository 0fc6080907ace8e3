"""Engine benchmark: seeded job workloads run as engine processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is one
``python -m quotientcoh`` process (PYTHONPATH=src, since the package is
not installed), run in a closed loop by one client that waits for each
report and checks it against answers derived in jobs.py.  Fresh
interpreters that only ``import quotientcoh.cli`` are interleaved with
the jobs to measure set-up time.

The number of jobs is fixed by --seconds and the workload's job rate at
the seed commit, so two commits run identical job lists and a faster
engine finishes sooner.  With --trace 1 each job also runs under
tracer.py and the run reports per-layer metrics instead of end-to-end
ones.  Human-readable lines go first; the last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from jobs import CYCLES, generate  # noqa: E402

# Jobs per second of --seconds for each workload, measured at the seed
# commit on a 2-core machine with the set-up probes included.
JOB_RATE = {
    "small-jobs": 1.15,
    "heavy-jobs": 0.42,
}
SETUP_PROBES = 6
JOB_TIMEOUT_S = 60.0
# No job starts after this many seconds, so that a run whose engine got
# much slower still ends, with its unrun jobs failed, within 180 s.
RUN_BUDGET_S = 100.0
# A tail percentile needs ten samples beyond it, and a tail is at least
# the upper quartile: with fewer than 40 jobs p90 stands in.
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 75.0


class Engine:
    """Starts engine and probe processes in one checkout, through the
    spawn.py launcher, and times them."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        request = {"argv": argv, "cwd": str(self.root), "env": self.env,
                   "stderr": str(stderr_path), "timeout": JOB_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        pid = json.loads(self.launcher.stdout.readline())["pid"]
        try:
            result = json.loads(self.launcher.stdout.readline())
        except BaseException:
            # interrupted: stop the child; the launcher reaps it
            os.kill(pid, signal.SIGKILL)
            raise
        return result["wall"], result["code"], result["rss_mb"]

    def probe(self, importtime: bool) -> tuple[float, str]:
        """Wall time of a fresh interpreter importing quotientcoh.cli."""
        flags = ["-X", "importtime"] if importtime else []
        err = self.work / "probe.err"
        wall, code, _ = self.spawn(
            [sys.executable, *flags, "-c", "import quotientcoh.cli"], err)
        if code != 0:
            raise RuntimeError("importing quotientcoh.cli failed:\n"
                               + err.read_text())
        return wall, err.read_text() if importtime else ""


def importtime_split(text: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, sympy and the package itself
    from ``-X importtime`` output."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name in ("numpy", "sympy", "quotientcoh.cli") and cum.strip().isdigit():
            cumulative[name] = int(cum) / 1e6
    numpy_s = cumulative.get("numpy", 0.0)
    sympy_s = cumulative.get("sympy", 0.0)
    return {
        "init.import_numpy_s": numpy_s,
        "init.import_sympy_s": sympy_s,
        "init.import_self_s": cumulative["quotientcoh.cli"] - numpy_s - sympy_s,
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or p90 when that percentile is below TAIL_MIN_PERCENTILE.

    With the 23 jobs of a heavy-jobs run, p90 lies between the second
    and third slowest jobs, so it does not rest on the single slowest one.
    """
    ordered = sorted(walls)
    n = len(ordered)
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return statistics.quantiles(ordered, n=10)[-1], 90.0
    return ordered[n - TAIL_BEYOND - 1], percentile


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.trace = trace
        self.root = Path.cwd()
        out_dir = self.root / ".perfbench_out"
        self.work = out_dir / ("work-%s-%d-%d" % (workload, seed, os.getpid()))
        self.spans_path = out_dir / ("spans-%s-%d.json" % (workload, seed))
        count = max(len(CYCLES[workload]),
                    round(seconds * JOB_RATE[workload]))
        if trace:
            # traced jobs run longer; keep at least one whole cycle
            count = max(len(CYCLES[workload]), count * 2 // 3)
        self.jobs = generate(workload, seed, count)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_job(self, engine: Engine, index: int, job, traced: bool) -> dict:
        tag = "%03d%s" % (index, "t" if traced else "")
        job_path = self.work / ("job%03d.cfg" % index)
        out_path = self.work / ("out%s.json" % tag)
        spans_path = self.work / ("spans%s.json" % tag)
        argv = ["--input", str(job_path), "--output", str(out_path),
                *job.flags]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                    *argv]
        else:
            argv = [sys.executable, "-m", "quotientcoh", *argv]
        wall, code, rss = engine.spawn(argv, self.work / "job.err")
        text = out_path.read_text() if out_path.exists() else None
        self.attempted += 1
        problems = check(job.expect, code, text)
        if problems:
            self.failed += 1
            self.failures.append("job %d (%s%s): %s" % (
                index, job.label, " traced" if traced else "",
                "; ".join(problems)))
        result = {"wall": wall, "rss": rss, "ok": not problems,
                  "bytes": len(text.encode()) if text is not None else 0}
        if traced and spans_path.exists():
            result["trace"] = json.loads(spans_path.read_text())
        for path in (out_path, spans_path):
            if path.exists():
                path.unlink()
        return result

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        engine = Engine(self.root, self.work)
        try:
            return self.measure(engine)
        finally:
            engine.close()

    def measure(self, engine: Engine) -> dict:
        for i, job in enumerate(self.jobs):
            (self.work / ("job%03d.cfg" % i)).write_text(job.text)
        # untimed warm-up: byte-compiles the sources of a fresh checkout
        engine.probe(False)
        probe_at = {round(i * len(self.jobs) / SETUP_PROBES)
                    for i in range(SETUP_PROBES)}
        probes: list[tuple[float, str]] = []
        plain: list[dict] = []
        traced: list[dict] = []
        job_time = 0.0
        deadline = time.perf_counter() + RUN_BUDGET_S
        for i, job in enumerate(self.jobs):
            if time.perf_counter() > deadline:
                unrun = len(self.jobs) - i
                self.attempted += unrun
                self.failed += unrun
                self.failures.append("%d jobs not run: the run's %.0f s budget "
                                     "is spent" % (unrun, RUN_BUDGET_S))
                break
            if i in probe_at:
                probes.append(engine.probe(self.trace))
            if self.trace:
                # every job runs traced; every third one also untraced,
                # which gives the tracing overhead
                if i % 3 == 0:
                    plain.append(self.run_job(engine, i, job, False))
                traced.append(self.run_job(engine, i, job, True))
                continue
            started = time.perf_counter()
            plain.append(self.run_job(engine, i, job, False))
            job_time += time.perf_counter() - started
        if self.trace:
            return self.layer_metrics(probes, plain, traced)
        return self.end_to_end(probes, plain, job_time)

    def end_to_end(self, probes, plain, job_time) -> dict:
        walls = [r["wall"] for r in plain]
        for i, (job, r) in enumerate(zip(self.jobs, plain)):
            print("job %3d %-14s wall %.3f s  rss %.0f MB  %s" % (
                i, job.label, r["wall"], r["rss"], "ok" if r["ok"] else "FAILED"))
        tail_s, tail_pct = tail(walls)
        correct = sum(r["ok"] for r in plain)
        print("jobs: %d, tail percentile: p%.1f over %d samples"
              % (len(walls), tail_pct, len(walls)))
        return {
            "job_wall_p50_s": (statistics.median(walls), "s"),
            "job_wall_tail_s": (tail_s, "s"),
            "jobs_per_s": (correct / job_time, "1/s"),
            "setup_s": (statistics.median(p[0] for p in probes), "s"),
            "peak_rss_mb": (max(r["rss"] for r in plain), "MB"),
        }

    def layer_metrics(self, probes, plain, traced) -> dict:
        from layers import per_layer

        splits = [importtime_split(text) for _, text in probes]
        metrics = {name: (statistics.median(s[name] for s in splits), "s")
                   for name in splits[0]}
        metrics.update(per_layer(plain, traced))
        all_spans = [
            {"job": i, "spans": r["trace"]["spans"]}
            for i, r in enumerate(traced) if "trace" in r
        ]
        self.spans_path.write_text(json.dumps(all_spans))
        print("spans written to %s" % self.spans_path.relative_to(self.root))
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so the running job is stopped and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (Path.cwd() / "src" / "quotientcoh" / "__main__.py").is_file():
        print("run.py: no src/quotientcoh here; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in run.failures:
        print("FAILED %s" % problem)
    print("fail_ratio = %.4f (%d of %d jobs failed)"
          % (run.failed / run.attempted, run.failed, run.attempted))
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
