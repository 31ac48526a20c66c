"""Run one zcenter benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a zcenter checkout; the program is imported
from ./src as it stands there.  One client in a closed loop: the
workload's commands run as CLI subprocesses one at a time, each with a
single BLAS/OpenMP thread, and each child's peak RSS is read with
os.wait4.  Passes over the command sequence repeat while another pass
fits in S seconds (there is always one); every output of every pass
is checked.

--trace 0 reports the end-to-end metrics: medians over passes of the
sequence time (wall_s) and of the top rung (largest_s), the largest
child RSS (peak_rss_mb), and the median of several trivial invocations
(setup_s).  --trace 1 alternates untraced passes with passes run under
tracer.py and reports per-layer self times and counters from the
traced ones, plus the tracing overhead.  The last stdout line is the
JSON result; the lines before it are for people.
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
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# A trivial command: interpreter start, `import zcenter`, argparse, output.
SETUP_ARGV = ["group-info", "--group", "C2"]
SETUP_SAMPLES = 7
# Children still running this long after start are killed and counted as
# failed, so that the run ends within its 180 s limit.
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall: float
    rss_mb: float


class Runner:
    """Starts one zcenter child at a time and waits for it."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({v: "1" for v in THREAD_VARS})

    def run(self, argv, trace_to: Path | None = None,
            command_id: int = 0) -> Outcome:
        if trace_to is None:
            cmd = [sys.executable, "-m", "zcenter.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_to),
                   str(command_id), "--", *argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            wall, status, usage = self._wait(proc.pid, t0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"),
                       wall, usage.ru_maxrss / 1024.0)

    def _wait(self, pid: int, t0: float):
        """Wait for the child, killing it at the deadline.

        waitid(WNOWAIT) leaves the child unreaped, so the killer cannot
        signal a reused pid; wait4 then reaps it and reads its rusage.
        """
        lock = threading.Lock()
        done = [False]

        def kill():
            with lock:
                if not done[0]:
                    os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                kill)
        timer.start()
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                done[0] = True
        finally:
            timer.cancel()
        _, status, usage = os.wait4(pid, 0)
        return wall, status, usage


def self_times(trace: dict) -> dict:
    """Span duration minus the time its direct children cover, by name."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


class Pass:
    """Timings, checks and trace totals of one pass over the commands."""

    def __init__(self):
        self.wall = 0.0
        self.rungs = {}
        self.rss_mb = 0.0
        self.failures = []
        self.outcomes = []
        self.layers = {}


def run_pass(runner, commands, expected, trace_dir: Path | None) -> Pass:
    p = Pass()
    for i, cmd in enumerate(commands):
        spans = None if trace_dir is None else trace_dir / f"{i}.json"
        o = runner.run(cmd.argv, spans, i)
        p.wall += o.wall
        p.rungs[cmd.rung] = o.wall
        p.rss_mb = max(p.rss_mb, o.rss_mb)
        p.outcomes.append(o)
        reason = workloads.check(cmd, o.code, o.out, o.err, expected)
        if reason:
            p.failures.append(f"{cmd.rung}: {reason}")
        if spans is not None:
            try:
                trace = json.loads(spans.read_text())
            except (OSError, ValueError):
                p.failures.append(f"{cmd.rung}: no trace written")
                continue
            totals = p.layers
            for name, s in self_times(trace).items():
                totals[name + ".self_s"] = totals.get(name + ".self_s", 0) + s
            for name, v in trace["counters"].items():
                totals[name] = (max(totals.get(name, 0), v)
                                if name.endswith("order_max")
                                else totals.get(name, 0) + v)
            totals["cli.import_s"] = (totals.get("cli.import_s", 0)
                                      + trace["import_s"])
    return p


def self_check(commands, first: Pass, expected) -> list:
    """Every command's checker must accept its real output and reject a
    corrupted copy (flipped verdict, witness off by one, ...)."""
    problems = []
    for cmd, o in zip(commands, first.outcomes):
        if workloads.check(cmd, o.code, o.out, o.err, expected):
            continue  # already counted as a failed command
        try:
            bad = workloads.corrupted(cmd, o.code, o.out, o.err)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems.append(f"{cmd.rung}: cannot corrupt output ({e!r})")
            continue
        if workloads.check(cmd, *bad, expected) is None:
            problems.append(f"{cmd.rung}: corrupted output passed the check")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "zcenter" / "cli.py").is_file():
        print(f"perfbench: no zcenter sources under {root / 'src'}; "
              "run from the root of a zcenter checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        commands, top = workloads.build(args.workload, args.seed, work)
        runner = Runner(root, work, started + DEADLINE_S)
        # Warm-up: the first start compiles bytecode and pages in numpy.
        for _ in range(2):
            runner.run(SETUP_ARGV)
        setup = ([runner.run(SETUP_ARGV).wall for _ in range(SETUP_SAMPLES)]
                 if not args.trace else [])
        plain, traced = [], []
        t0 = time.perf_counter()
        while True:
            plain.append(run_pass(runner, commands, expected, None))
            if args.trace:
                trace_dir = work / f"trace{len(traced)}"
                trace_dir.mkdir()
                traced.append(run_pass(runner, commands, expected, trace_dir))
            spent = time.perf_counter() - t0
            per_round = spent / len(plain)
            if spent + per_round > args.seconds:
                break
        problems = self_check(commands, plain[0], expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures + problems:
        print("FAIL " + line)
    walls = [p.wall for p in plain]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(traced)} attempted={attempted} "
          f"failed={len(failures)} fail_frac={len(failures) / attempted:.4f} "
          f"self_check={'ok' if not problems else 'FAILED'}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} loadavg="
          + ",".join(f"{x:.2f}" for x in os.getloadavg()))
    for cmd in commands:
        times = [p.rungs[cmd.rung] for p in plain]
        print(f"rung {cmd.rung!r}: median {median(times):.4f} s, "
              f"max {max(times):.4f} s over {len(times)} passes"
              + (" (top rung)" if cmd.rung == top else ""))

    if args.trace:
        tw = [p.wall for p in traced]
        # A layer that never ran on this workload totals zero.
        computed = {m["name"]: median([p.layers.get(m["name"], 0)
                                       for p in traced])
                    for m in spec["per_layer"]}
        computed.update({
            "trace.wall_s": median(tw),
            "trace.unattributed_s": median(
                [p.wall - sum(v for k, v in p.layers.items()
                              if k.endswith("_s")) for p in traced]),
            "trace.overhead_s": median(tw) - median(walls),
        })
        wanted = spec["per_layer"]
    else:
        computed = {
            "wall_s": median(walls),
            "largest_s": median([p.rungs[top] for p in plain]),
            "peak_rss_mb": max(p.rss_mb for p in plain),
            "setup_s": median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
