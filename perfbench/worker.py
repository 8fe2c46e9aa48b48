"""One workload process of the `switchcert run` benchmark.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and ``src`` on
``PYTHONPATH``.  Set-up (importing the CLI, writing the seeded INI pool,
making the temp dir) ends at ``ready_ns``; then one client runs jobs in a
closed loop, each an in-process ``switchcert.cli.main(["run", ini,
"--out", dir])``, after one untimed warm-up job.  The loop runs until
every input has run often enough to be compared with itself, and then
stops at the boundary of a pass over the input pool nearest to
``--seconds``.  The last stdout line is a JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
TMP_PARENT = ROOT / ".perfbench_tmp"
MIN_JOBS = 20  # ten jobs beyond the tail percentile, which is then at least the median


def _digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _verdict(out: Path) -> tuple[int, int]:
    kv = dict(line.split("=", 1) for line in (out / "guas_report.kv").read_text().splitlines())
    return int(kv["hypotheses_ok"]), int(kv["guas_observed"])


def _check(code, out: Path, expect, earlier: dict | None) -> tuple[str | None, dict | None]:
    """Failure reason (None when the job passed) and the job's artifact digests."""
    if code != 0:
        return f"exit code {code}", None
    digests = _digest(out)
    verdict = _verdict(out)
    if verdict != expect:
        return (f"verdict hypotheses_ok={verdict[0]} guas_observed={verdict[1]}, "
                f"expected {expect[0]} and {expect[1]}"), digests
    if earlier is not None and digests != earlier:
        changed = sorted(k for k in digests.keys() | earlier.keys() if digests.get(k) != earlier.get(k))
        return f"artifacts differ from an earlier run of the same input: {', '.join(changed)}", digests
    return None, digests


def _tail(walls: list[float]) -> tuple[float, float]:
    """The job time with exactly ten jobs beyond it, and its percentile."""
    ordered = sorted(walls)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _run_one(cli, argv: list[str], call=None) -> tuple[int | str, float, str]:
    """Exit code (or the crash), wall time and stderr of one in-process job."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = call("cli.run", cli.main, argv) if call else cli.main(argv)
        except Exception as exc:  # a crashing job is a failed job, not a failed benchmark
            code = f"1 ({type(exc).__name__}: {exc})"
        wall = time.perf_counter() - start
    return code, wall, stderr.getvalue().strip()


def run_jobs(cli, workload, inis: list[Path], tmp: Path, seconds: float, tracer) -> dict:
    pool = len(inis)
    # a traced run runs each input twice in a row, traced then untraced, so
    # the tracing overhead is taken on the same inputs at nearly the same
    # time; two such pairs per input let its counters be compared
    per_input = 4 if tracer else 2
    min_jobs = max(per_input * pool, MIN_JOBS)
    # the run ends on a pass boundary so that every input has run equally
    # often: job costs differ between inputs, and a part-pass would move
    # the median with the number of jobs that fit
    pass_len = pool * (2 if tracer else 1)
    walls: list[float] = []
    traced: list[tuple[int, float, dict]] = []
    untraced: list[float] = []
    digests: dict[int, dict] = {}
    counts: dict[int, dict] = {}
    failures: list[tuple[int | str, int, str]] = []

    # an untimed, untraced warm-up job lets lazy imports and first-call
    # set-up in numpy and scipy finish before timing; it is gated like any job
    out = tmp / "warmup"
    code, _, err = _run_one(cli, ["run", str(inis[0]), "--out", str(out)])
    reason, digest = _check(code, out, workload.expect, None)
    if digest is not None:
        digests[0] = digest
    if reason is not None:
        failures.append(("warm-up", 0, reason + (f"; stderr: {err}" if err else "")))
    shutil.rmtree(out, ignore_errors=True)

    start = time.perf_counter()
    job = 0
    while True:
        if job >= min_jobs and job % pass_len == 0:
            # stop at the pass boundary nearest the deadline
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (job // pass_len) >= seconds:
                break
        if tracer is None:
            i, traced_job = job % pool, False
        else:
            i, traced_job = (job // 2) % pool, job % 2 == 0
            if traced_job:
                tracer.install()
            else:
                tracer.uninstall()
        out = tmp / f"job{job}"
        argv = ["run", str(inis[i]), "--out", str(out)]
        root = len(tracer.spans) if traced_job else None
        code, wall, err = _run_one(cli, argv, tracer.call if traced_job else None)
        walls.append(wall)
        reason, digest = _check(code, out, workload.expect, digests.get(i))
        if digest is not None:
            digests.setdefault(i, digest)
        if traced_job:
            job_counts = tracer.take_counts()
            traced.append((root, wall, job_counts))
            if reason is None and i in counts and counts[i] != job_counts:
                reason = "counters differ from an earlier traced run of the same input"
            counts.setdefault(i, job_counts)
        elif tracer is not None:
            untraced.append(wall)
        if reason is not None:
            failures.append((job, i, reason + (f"; stderr: {err}" if err else "")))
        shutil.rmtree(out, ignore_errors=True)
        job += 1
    if tracer is not None:
        tracer.uninstall()

    result = {"attempted": job + 1, "failed": len(failures), "failures": failures, "pool": pool}
    if tracer is None:
        tail, pct = _tail(walls)
        result["metrics"] = {
            "run_s_p50": statistics.median(walls),
            "run_s_tail": tail,
            "traj_per_s": workload.batch * job / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["tail_pct"] = pct
    else:
        from tracing import layer_metrics
        result["metrics"] = layer_metrics(tracer, traced, untraced, [counts[i] for i in sorted(counts)])
        result["traced_jobs"] = len(traced)
        result["traced_p50"] = statistics.median(wall for _, wall, _ in traced)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; run.py repeats set-up to take its median")
    args = parser.parse_args(argv)

    from switchcert import cli  # importing the CLI is part of set-up

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        inis = []
        for k, text in enumerate(make_inputs(args.workload, args.seed)):
            inis.append(tmp / f"input_{k:02d}.ini")
            inis[-1].write_text(text)
        ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        result = {"ready_ns": ready_ns}
        if not args.setup_only:
            tracer = None
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
            result.update(run_jobs(cli, WORKLOADS[args.workload], inis, tmp, args.seconds, tracer))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
