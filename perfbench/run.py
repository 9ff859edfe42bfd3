"""toughkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {ledger,census,corpus} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a toughkit source tree; it runs the package from
``src/`` and builds nothing but bytecode.  It prints progress records as
JSON lines and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names,
units and bounds are the ones in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics.  The run is a closed loop
with one client: each pass is a fresh interpreter (see passes.py for why)
that runs the workload through ``toughkit.cli.main`` with the CLI's own
defaults, and the next pass starts when it ends.  Passes repeat until the
next one would end after ``--seconds``, with at least ``MIN_PASSES``.

``--trace 1`` measures the per-layer metrics instead: one untraced and one
traced pass of the workload (their difference is the tracing overhead), a
traced corpus pass for the per-call figures, the fixed per-layer cases and
each ledger claim from a cold cache.

Every op's output is checked (check.py); a wrong output is a failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from passes import CLAIM_IDS, SOLVERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ledger", "census", "corpus")
SETUP_SAMPLES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Starts the fresh interpreters of one run, all under one deadline."""

    def __init__(self, work_dir: str):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, *args: str) -> dict:
        """Run passes.py in a new interpreter; returns its JSON report."""
        self.env["PERFBENCH_T0"] = repr(time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "passes.py"), *args, "--work", self.work_dir],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"passes.py {' '.join(args)} ran past the run's time limit")
        if proc.returncode != 0:
            raise BenchError(f"passes.py {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def calibration_ms() -> float:
    """A fixed pure-Python loop; its drift tells box load from code change."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, report: dict) -> dict:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems.extend(report["problems"])
        return report


def run_pass(runner: Runner, tally: Tally, log: dict, workload: str, seed: int,
             *extra: str) -> dict:
    """One pass, with the calibration loop timed just before and after it."""
    before = calibration_ms()
    report = tally.add(runner.spawn("pass", "--workload", workload, "--seed", str(seed), *extra))
    log["calibration_ms"].append([before, calibration_ms()])
    return report


def measure(runner: Runner, args, tally: Tally, log: dict) -> dict:
    setups = [runner.spawn("setup", "--workload", args.workload, "--seed", str(args.seed))
              for _ in range(SETUP_SAMPLES)]
    log["workers_default"] = setups[0]["workers_default"]
    setup_s = [s["setup_s"] for s in setups]
    walls, ops, took = [], [], []
    start = time.monotonic()
    while len(walls) < MIN_PASSES or time.monotonic() - start + statistics.median(took) <= args.seconds:
        t = time.monotonic()
        rep = run_pass(runner, tally, log, args.workload, args.seed)
        took.append(time.monotonic() - t)
        walls.append(rep["wall_s"])
        ops.extend(rep["op_s"])
        setup_s.append(rep["setup_s"])
    log["pass_wall_s"] = walls
    log["ops"] = len(ops)
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_layers(runner: Runner, args, tally: Tally, log: dict) -> dict:
    def traced_pass(workload: str) -> dict:
        spool = os.path.join(runner.work_dir, f"spool-{workload}")
        os.makedirs(spool)
        return run_pass(runner, tally, log, workload, args.seed, "--spool", spool)

    plain = run_pass(runner, tally, log, args.workload, args.seed)
    traced = traced_pass(args.workload)
    log["workers_default"] = plain["workers_default"]
    log["spans"] = traced["trace"]["spans"]
    per_call = traced if args.workload == "corpus" else traced_pass("corpus")
    summary = per_call["trace"]
    metrics = {
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "cli.invariant_overhead_ms": summary["cli_overhead_s"] * 1e3,
        "formats.parse_graph6_us": summary["parse_graph6_s"] * 1e6,
    }
    for name in SOLVERS:
        metrics[f"{name}.self_s"] = summary["self_s"][name]
    metrics.update(tally.add(runner.spawn("fixed", "--seed", str(args.seed)))["metrics"])
    for claim in CLAIM_IDS:
        metrics[f"verify.{claim}.s"] = tally.add(runner.spawn("claim", "--claim", claim))["seconds"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toughkit benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toughkit", "__init__.py")):
        print(f"error: no toughkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE], check=True)
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    tally = Tally()
    log = {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "workload": args.workload,
           "corpus_seed": args.seed, "trace": args.trace, "calibration_ms": []}
    try:
        runner = Runner(work_dir)
        if args.trace:
            metrics = measure_layers(runner, args, tally, log)
        else:
            metrics = measure(runner, args, tally, log)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work_dir))
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    log["problems"] = tally.problems[:20]
    print(json.dumps({"env": log}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
