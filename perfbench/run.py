#!/usr/bin/env python3
"""Benchmark for `switchcert run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is feedback_focus, random_adt, orbit_clusters, or ``all`` to run
each in turn.  Run from anywhere; the repository root is this file's
parent's parent.  Each workload runs in its own fresh single-threaded
process (``worker.py``) as a closed loop with one client.  Set-up is
timed from process spawn until the first job can start, in five fresh
processes, and reported as their median.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the layer functions and prints
the per-layer metrics instead.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from tracing import COMPUTED
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _declared() -> dict:
    """Metric units declared in BENCHMARK.json, keyed by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; return its result with ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)  # the killed worker's temp dir
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result.pop("ready_ns") - start_ns) / 1e9
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [_worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    result = _worker([*common, "--seconds", repr(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> str:
    return (f"seed={seed} nproc={len(os.sched_getaffinity(0))} cpu={_cpu_model()!r} "
            f"python={platform.python_version()} numpy={version('numpy')} scipy={version('scipy')}")


def report(name: str, result: dict, units: dict[str, str], trace: int) -> None:
    w = WORKLOADS[name]
    n, m = result["attempted"], result["metrics"]
    print(f"workload {name}: {n - 1} timed jobs after 1 warm-up job, over a pool of "
          f"{result['pool']} inputs, batch {w.batch} trajectories, horizon {w.horizon:g}, "
          f"one closed-loop client")
    notes = {
        "setup_s": f"median of {SETUP_RUNS} process starts",
        "run_s_tail": f"p{result.get('tail_pct', 0):.1f} of {n - 1} timed jobs, 10 beyond it",
        "traj_per_s": f"batch {w.batch}, horizon {w.horizon:g}",
    }
    if trace:
        notes = {k: "computed" for k in COMPUTED}
        notes.update({k: f"{100 * m[k] / result['traced_p50']:.1f}% of traced p50"
                      for k, u in units.items() if u == "s" and k not in notes})
        print(f"  {result['traced_jobs']} traced jobs, traced p50 {result['traced_p50']:.6g} s; "
              f"counters of repeated inputs compared exactly")
    for key in units:
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<42} {m[key]:>16.6g} {units[key]}{note}")
    print(f"  {'fail_ratio':<42} {result['failed'] / n:>16.6g} ratio  ({result['failed']} of {n} jobs)")
    for job, i, reason in result["failures"]:
        print(f"  FAIL job {job} (input {i}): {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "switchcert" / "cli.py").is_file():
        print(f"error: {ROOT} holds no switchcert source tree (src/switchcert)", file=sys.stderr)
        return 2
    units = _declared()[args.trace]
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    print(f"provenance: {provenance(args.seed)}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            if set(result["metrics"]) != set(units):
                raise BenchError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
            report(name, result, units, args.trace)
            prefix = f"{name}." if len(names) > 1 else ""
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{prefix}{k}": {"value": result["metrics"][k], "unit": u}
                                        for k, u in units.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
