"""biotfs benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a biotfs source tree (the program is taken from
`src/`). Each operation is one `biotfs` CLI call in a fresh child process;
the operations of a run go one after another until S seconds have passed
and at least MIN_OPERATIONS have run.

--trace 0 reports the end-to-end metrics: wall_s (median process wall time
of one CLI operation), setup_s (median over setup children, one before each
operation, of build_problem + prepare repeated in that child), peak_rss_mb (largest ru_maxrss of the operations) and
answer_digits (median correct digits of the headline number). Operation k
of the run gets the spectral seed N + SEED_STRIDE * k, so operation 0 uses N.

--trace 1 alternates untraced and traced operations, all with spectral seed
N, and reports the per-layer metrics of the traced ones (see tracing.py)
plus the tracing overhead.

Every operation's output is checked against perfbench/reference.json. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the exit code is 1 if any check failed, 2 on a usage error or
when no biotfs source tree is found (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, check, cli_args  # noqa: E402

SEED_STRIDE = 1_000_003
BLAS_THREADS = 1
MIN_OPERATIONS = 2
RUN_BUDGET_S = 170.0  # every run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "answer_digits": "digits"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "solver.iterations_per_step":
        return "iter/step"
    return "count"


class Child:
    """Runs child processes, keeping each one's wall time and ru_maxrss."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            OMP_NUM_THREADS=str(BLAS_THREADS),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.current = None
        self.waiter = None

    def run(self, argv: list, log_name: str) -> tuple:
        """(exit code, wall s, peak RSS in MB, CPU s); kills at the deadline."""
        reaped = {}
        with open(self.work / f"{log_name}.log", "wb") as log:
            start = perf_counter()
            proc = self.current = subprocess.Popen(
                [sys.executable] + argv, env=self.env, cwd=self.work,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )

            def reap():
                reaped["wait4"] = os.wait4(proc.pid, 0)
                reaped["end"] = perf_counter()

            waiter = self.waiter = threading.Thread(target=reap, daemon=True)
            waiter.start()
            waiter.join(max(self.deadline - perf_counter(), 0.0))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
            self.current = None
        _, status, usage = reaped["wait4"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, reaped["end"] - start, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def stop(self) -> None:
        """Kill a child that is still running and wait until it has ended."""
        if self.current is not None:
            self.current.kill()
            self.waiter.join()


def environment(root: Path, args, seeds: list) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "spectral_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path):
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark invocation: operations, checks and their results."""

    def __init__(self, args, workload: Workload, root: Path, reference: dict, work: Path):
        self.args = args
        self.workload = workload
        self.reference = reference
        self.work = work
        self.child = Child(root, work, perf_counter() + RUN_BUDGET_S)
        self.state = {}
        self.attempted = 0
        self.failures = []
        self.operations = []
        self.min_operations = MIN_OPERATIONS

    def operation(self, seed: int, traced: bool) -> dict:
        """Run and check one CLI operation."""
        self.attempted += 1
        index = self.attempted
        argv = cli_args(self.workload, seed, self.work)
        if traced:
            spans_path = self.work / f"spans-{index}.json"
            argv = [str(HERE / "child.py"), "trace", str(spans_path), "--"] + argv
        else:
            argv = ["-m", "biotfs.cli"] + argv
        code, wall, rss, cpu = self.child.run(argv, f"op-{index}")
        problems, facts = check(self.workload, code, self.work, self.reference, self.state)
        result = {"wall_s": wall, "peak_rss_mb": rss, **facts}
        if traced and not problems:
            try:
                dump = json.loads(spans_path.read_text(encoding="utf-8"))
                tracing.check_nesting(dump["spans"])
                result["layers"] = tracing.layer_metrics(dump["spans"], dump["nnz_lu"])
                result["layers"]["trace.spans"] = len(dump["spans"])
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unusable trace: {exc!r}"]
        if problems:
            self.failures.append({"operation": index, "seed": seed, "traced": traced,
                                  "problems": problems})
            print(f"FAIL op {index} (seed {seed}): " + "; ".join(problems), file=sys.stderr)
        result["ok"] = not problems
        self.operations.append({"seed": seed, "traced": traced, "exit_code": code,
                                "cpu_s": cpu, **result})
        return result

    def setup_seconds(self) -> float | None:
        """Median setup time of one fresh child process."""
        out = self.work / "setup.json"
        code, *_ = self.child.run(
            [str(HERE / "child.py"), "setup", str(self.workload.n), str(out)], "setup")
        if code != 0:
            self.failures.append({"operation": "setup", "problems": [f"exit code {code}"]})
            return None
        return statistics.median(json.loads(out.read_text(encoding="utf-8"))["durations"])

    def timing(self) -> tuple:
        # Setup children alternate with the operations: a process's speed
        # varies more between processes than between repeats inside one.
        began = perf_counter()
        results, seeds, setups = [], [], []
        while len(results) < self.min_operations or perf_counter() - began < self.args.seconds:
            setups.append(self.setup_seconds())
            seeds.append(self.args.seed + SEED_STRIDE * len(results))
            results.append(self.operation(seeds[-1], traced=False))
        ok = [r for r in results if r["ok"]]
        metrics = {}
        if ok and None not in setups:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in ok),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in ok),
                "answer_digits": statistics.median(r["answer_digits"] for r in ok),
            }
            walls = sorted(r["wall_s"] for r in ok)
            print(f"wall_s samples (n={len(walls)}): " + ", ".join(f"{w:.3f}" for w in walls)
                  + "; no tail percentile: one with 10 samples beyond it needs n >= 100")
            print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in sorted(setups)))
        return metrics, seeds

    def traced(self) -> tuple:
        began = perf_counter()
        plain, traced = [], []
        while not traced or perf_counter() - began < self.args.seconds:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for is_traced in order:
                (traced if is_traced else plain).append(
                    self.operation(self.args.seed, traced=is_traced))
        layers = [r["layers"] for r in traced if "layers" in r]
        if not layers or not all(r["ok"] for r in plain):
            return {}, [self.args.seed]
        metrics = {}
        for name, first in layers[0].items():
            if layer_unit(name) in ("s", "ms"):
                metrics[name] = statistics.median(l[name] for l in layers)
            elif any(l[name] != first for l in layers):
                self.failures.append({"operation": "trace",
                                      "problems": [f"count {name} differs between traced runs"]})
            else:
                metrics[name] = first
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
        return metrics, [self.args.seed]

    def result(self, metrics: dict) -> dict:
        """The JSON object the run prints last."""
        failed = {f["operation"] for f in self.failures if isinstance(f["operation"], int)}
        return {
            "correct": not self.failures and bool(metrics),
            "attempted": self.attempted,
            "failed": len(failed),
            "metrics": {
                name: {"value": value,
                       "unit": layer_unit(name) if self.args.trace else END_TO_END_UNITS[name]}
                for name, value in metrics.items()
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "biotfs" / "cli.py").is_file():
        print(f"no biotfs source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(args, WORKLOADS[args.workload], root, reference, work)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, seeds = run.traced() if args.trace else run.timing()
    finally:
        run.child.stop()
    result = run.result(metrics)
    env = environment(root, args, seeds)
    (work / "result.json").write_text(
        json.dumps({"environment": env, "operations": run.operations,
                    "failures": run.failures, **result}, indent=2),
        encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  error_rate = {result['failed']}/{result['attempted']}")
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
