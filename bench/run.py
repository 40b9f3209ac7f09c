"""Benchmark of whole leakexp CLI jobs, run in-process from the repository root.

    python3 bench/run.py --workload bec-low-rate --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, then runs rounds of jobs (each a
fixed sequence of `leakexp.cli.main` calls writing into a scratch
directory) for --seconds of wall time, checks every output against the
independent oracles, and prints as its last stdout line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the layer functions are
wrapped in spans and the per-layer metrics are reported instead. See
bench/README.md.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import workloads  # this directory is sys.path[0] when run as a script
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11


def _cpu_ms() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total * 1e3


def _import_program():
    """Import leakexp from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "leakexp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no leakexp sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import leakexp
    import leakexp.cli
    import leakexp.leakage
    if Path(leakexp.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported leakexp from {leakexp.__file__}, not {pkg}")
    return leakexp


def _run_calls(cli, calls):
    """Run the calls back to back; returns (wall ms, cpu ms, [(rc, stdout, stderr)])."""
    results = []
    cpu0 = _cpu_ms()
    t0 = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(call.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        results.append((rc, out.getvalue(), err.getvalue()))
    wall = (time.perf_counter() - t0) * 1e3
    return wall, _cpu_ms() - cpu0, results


def _check(calls, results) -> str | None:
    """None when every call exited 0 and passed its check, else the reason."""
    for call, (rc, out, err) in zip(calls, results):
        if rc != 0:
            return f"{' '.join(call.argv)}: exit {rc}: {err.strip()}"
        try:
            call.check(out)
        except workloads.CheckFailed as exc:
            return f"{' '.join(call.argv)}: {exc}"
    return None


def _setup_sample(args) -> float:
    """Set-up time of a fresh interpreter that imports leakexp and builds this
    workload's inputs, as the measured run does before its first job."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_op(cli, calls, tracer, op_id):
    """Time one operation and check its outputs: (wall ms, cpu ms, failure or None)."""
    if tracer is not None:
        tracer.job = op_id
    try:
        wall, cpu, results = _run_calls(cli, calls)
        return wall, cpu, _check(calls, results)
    except Exception:
        return 0.0, 0.0, traceback.format_exc()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time in s and exit")
    args = parser.parse_args(argv)

    leakexp = _import_program()
    # The default users get: at most one pool worker per CPU.
    os.environ.pop("LEAKEXP_THREADS", None)
    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_only:
            print(time.perf_counter() - _T0)
            return 0
        return _measure(args, leakexp, wl, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def _measure(args, leakexp, wl, scratch: Path) -> int:
    setup = [_setup_sample(args)]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"cli": leakexp.cli, "leakage": leakexp.leakage})
    round_ops = workloads.JOBS_PER_ROUND + (wl.probe_calls is not None)
    job_ms, job_cpu, job_ids, failures = [], [], [], []
    attempted = failed = rounds = 0
    correct = True
    start = time.perf_counter()
    try:
        while True:
            for j in range(round_ops):
                is_probe = j == workloads.JOBS_PER_ROUND
                op_id = f"{'probe' if is_probe else 'job'}{attempted}"
                op_dir = scratch / op_id
                op_dir.mkdir()
                calls = wl.probe_calls if is_probe else wl.job(op_dir)
                attempted += 1
                wall, cpu, reason = _run_op(leakexp.cli, calls, tracer, op_id)
                shutil.rmtree(op_dir)
                if reason is not None:
                    failed += 1
                    failures.append(f"{op_id}: {reason}")
                    if not is_probe:
                        correct = False
                        print(f"FAILED {op_id}: {reason}", file=sys.stderr)
                if not is_probe:
                    job_ms.append(wall)
                    job_cpu.append(cpu)
                    job_ids.append(op_id)
            rounds += 1
            # Set-up samples are spread over the run, so that host drift
            # reaches them as it reaches the jobs.
            while len(setup) < SETUP_SAMPLES and (
                    time.perf_counter() - start >= len(setup) * args.seconds / SETUP_SAMPLES):
                setup.append(_setup_sample(args))
            # Whole rounds only: stop when another round would end further
            # past --seconds than stopping now falls short of it.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_s = time.perf_counter() - start
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(args))

    if tracer is None:
        metrics = {
            "op_p50_ms": (statistics.median(job_ms), "ms"),
            "ops_per_s": (len(job_ms) / (sum(job_ms) / 1e3), "1/s"),
            "cpu_ms_per_op": (sum(job_cpu) / len(job_cpu), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        metrics = tracer.per_layer(job_ids, job_ms)

    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "run_s": run_s,
        "jobs": len(job_ms), "attempted": attempted, "failed": failed,
        "correct": correct, "setup_samples_s": setup, "job_ms": job_ms,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")

    print(json.dumps({"machine": machine, "jobs": len(job_ms), "run_s": round(run_s, 3)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
