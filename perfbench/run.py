#!/usr/bin/env python3
"""Benchmark of the portcut pipeline: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload backtest-cli --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

The first form sets up the workload three times (import, input generation,
one untimed warm-up op each), then runs ops back to back for ``--seconds``,
cycling through the workload's input variants, and checks every op's output. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced ops and
reports the per-layer metrics of the traced ones. The last line of standard
output is the result as one JSON object; the line before it holds the
environment record and the details behind the metrics. ``--workload all``
runs every workload in both modes, each in its own process, and prints a
table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("backtest-cli", "cut-deep", "ingest-long", "oracle")
SETUP_REPEATS = 3
MIN_OPS = {0: 3, 1: 4}
TAIL_BEYOND = 10

# About the median wall time of `calibrate` on a 2-vCPU Xeon VM. Time metrics
# are scaled by CALIBRATION_REF_S / (the run's median calibration time), so
# they read as seconds on a host of that speed. See README.md.
CALIBRATION_REF_S = 0.05
_CALIBRATION_CELLS = [repr(1.0 + i / 7.0) for i in range(2000)]

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mib": "MiB",
}


def limit_blas_threads() -> None:
    """Cap BLAS at the CPUs this process may run on; must precede importing numpy."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def import_program() -> float:
    """Import numpy, scipy and portcut; return the seconds it took."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import portcut.cli  # noqa: F401
    return time.perf_counter() - start


def calibrate() -> float:
    """Wall time of a fixed kernel with the program's kinds of work.

    Interpreter loops, numpy ops on small arrays and float parsing, the work
    behind Jacobi sweeps, oracle enumeration and CSV ingest. None of it calls
    portcut, so its time changes only with the host's speed.
    """
    import numpy as np

    a = np.arange(64.0)
    start = time.perf_counter()
    for _ in range(4000):
        a[1::2] = a[::2].copy() * 0.5 + 1.0
    total = 0.0
    for _ in range(12):
        for cell in _CALIBRATION_CELLS:
            total += float(cell)
    for i in range(250000):
        total += i * 0.5
    return time.perf_counter() - start


def tail(samples) -> dict:
    """``op_tail_s``: the highest percentile with at least TAIL_BEYOND samples above it.

    When that percentile would fall below the median (fewer than
    2 * TAIL_BEYOND samples), the maximum is reported instead, and the
    result says how many samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n
    return {"op_tail_s": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "samples": n, "samples_beyond": n - rank}


class OutputChecker:
    """Fails an op whose outputs differ from the run's first op or do not check."""

    def __init__(self):
        self.first = None
        self.verdicts = {}

    def problems(self, workload, outputs) -> list:
        digest = hashlib.sha256(b"".join(
            name.encode() + b"\0" + outputs[name] + b"\0" for name in sorted(outputs)
        )).hexdigest()
        if digest not in self.verdicts:
            self.verdicts[digest] = workload.check(outputs)
        problems = list(self.verdicts[digest])
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append("output bytes differ from the run's first op")
        return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 import_s: float = 0.0, tiny: bool = False, trace_path: str = None):
    """Set up, run and check one workload; return (result line, details)."""
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    problems = []
    setup_times = []
    checkers = [OutputChecker() for _ in range(cls.variants)]
    calibration = []
    # A traced run reports no set-up time, so one set-up suffices there.
    for _ in range(1 if trace else SETUP_REPEATS):
        calibration.append(calibrate())
        start = time.perf_counter()
        variants = []
        for k in range(cls.variants):
            variant_dir = os.path.join(workdir, f"v{k}")
            os.makedirs(variant_dir, exist_ok=True)
            variants.append(cls(seed * cls.variants + k, variant_dir, tiny=tiny))
            variants[-1].generate()
        try:
            result = variants[0].op()
        except Exception:
            setup_times.append(time.perf_counter() - start)
            problems.append("warm-up op raised: " + traceback.format_exc(limit=3))
            continue
        setup_times.append(time.perf_counter() - start)
        problems += checkers[0].problems(variants[0], variants[0].outputs(result))

    recorder = spans.Recorder() if trace else None
    wall, cpu, traced_ops, failed = [], [], [], 0
    stop = time.perf_counter() + seconds
    # Start an op only if it is expected to end by the deadline.
    while (len(wall) < MIN_OPS[int(trace)]
           or time.perf_counter() + statistics.median(wall) <= stop):
        calibration.append(calibrate())
        index = len(wall)
        traced = trace and index % 2 == 1
        # A traced op runs the same variant as the untraced op before it.
        k = (index // 2 if trace else index) % cls.variants
        workload = variants[k]
        if traced:
            recorder.begin_op(index)
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            result = workload.op()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            wall.append(time.perf_counter() - start)
            cpu.append(time.process_time() - cpu_start)
            if traced:
                recorder.end_op()
        op_problems = [error] if error else checkers[k].problems(workload, workload.outputs(result))
        if op_problems:
            failed += 1
            problems += op_problems
        elif traced:
            traced_ops.append(index)

    details = {
        "workload": name,
        "why": cls.why,
        "variants": cls.variants,
        "seed": seed,
        "trace": int(trace),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "op_wall_s": wall,
        "calibration_s": calibration,
        "failed_ratio": failed / len(wall),
        "problems": problems[:5],
    }
    if trace:
        untraced = [t for i, t in enumerate(wall) if i % 2 == 0]
        traced_times = [wall[i] for i in traced_ops]
        if traced_ops:
            metrics = spans.layer_metrics(recorder, traced_ops, traced_times, untraced)
        else:
            metrics = {metric: 0.0 for metric in spans.LAYER_METRICS}
        units = spans.LAYER_METRICS
        if trace_path:
            recorder.dump(trace_path, {"workload": name, "seed": seed, "ops": traced_ops})
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        details["op_tail"] = tail(wall)
        raw = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": (len(wall) - failed) / sum(wall),
            "op_p50_s": statistics.median(wall),
            "cpu_per_op_s": statistics.median(cpu),
        }
        speed = CALIBRATION_REF_S / statistics.median(calibration)
        details["unscaled"] = raw
        details["host_speed_factor"] = speed
        metrics = {name: value / speed if name == "ops_per_s" else value * speed
                   for name, value in raw.items()}
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    line = {
        "correct": not problems,
        "attempted": len(wall),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    return line, details


def run_all(seed: int, seconds: int) -> int:
    """Run every workload in both modes, each in its own process; print a table."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            details, line = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"== {name} (trace={trace}) correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  f"failed_ratio={details['failed_ratio']}")
            for metric, entry in line["metrics"].items():
                print(f"   {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
            if "op_tail" in details:
                tail_info = details["op_tail"]
                print(f"   {'op_tail_s':36s} {tail_info['op_tail_s']:>16.6g} s "
                      f"(p{tail_info['percentile']:.1f} of {tail_info['samples']} ops, "
                      f"{tail_info['samples_beyond']} beyond it)")
            status |= 0 if line["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "portcut", "__init__.py")):
        print(f"portcut sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    limit_blas_threads()
    import_s = import_program()
    from env import environment

    work_root = os.path.join(HERE, "work")
    workdir = os.path.join(work_root, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    trace_path = os.path.join(work_root, f"trace-{args.workload}-s{args.seed}.json")
    try:
        line, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                     workdir, import_s=import_s, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["env"] = environment(ROOT, args.seed)
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
