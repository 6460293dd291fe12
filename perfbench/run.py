"""Run the sts benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from a checkout of the repository; ``sts`` is imported from its
``src`` directory.  Every workload runs in fresh interpreters started
one after another from this process, with BLAS pinned to ``nproc``
threads and ``STS_THREADS=1``.  Set-up (interpreter start, ``import
sts``, generating and parsing the inputs) is timed several times and
reported as a median; then one interpreter runs operations for
``--seconds``.  With ``--trace 0`` the end-to-end metrics are printed,
with ``--trace 1`` the per-layer metrics of a traced run.  The last line
of standard output is one JSON object; with ``--workload all`` it maps
each workload to its result.  Exit code 0 means a result was printed,
whether or not every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from worker import BLAS_VARS  # noqa: E402
from workloads import TIMED, WORKLOADS  # noqa: E402

END_TO_END = [
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified", "count"),
]
SETUP_SAMPLES = 5
# a timed workload's run must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _start_worker(name, args, work, blas_threads, mode):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--work", str(work),
        "--blas-threads", str(blas_threads), "--mode", mode,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ, STS_THREADS="1")
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    if not line.startswith("READY "):
        proc.communicate()
        raise BenchError(f"{name}: worker failed during set-up "
                         f"(exit code {proc.returncode})")
    return proc, seconds, json.loads(line[len("READY "):])


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name, args, blas_threads):
    """Set-up samples and one measuring worker; returns the result dict."""
    reference = WORKLOADS[name].reference
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    proc = None
    try:
        setups = []
        for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]:
            proc, seconds, env = _start_worker(name, args, work, blas_threads,
                                               mode)
            setups.append(seconds)
            if mode == "setup":
                _finish(proc, 60.0)
        left = None if reference else RUN_LIMIT_S - (time.perf_counter() - started)
        out = _finish(proc, left)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{name}: worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["env"] = env
    result["setup_samples"] = len(setups)
    if args.trace:
        spans = result.pop("spans")
        trace_file = ROOT / ".perfbench" / f"trace-{name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans), encoding="utf-8")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def contract_line(result, trace):
    """The result as the benchmark's final JSON object."""
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_result(name, result, args):
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print(f"  env {json.dumps(result['env'])}")
    units = PER_LAYER if args.trace else END_TO_END
    width = max(len(n) for n, _ in units)
    for metric, unit in units:
        value = result["metrics"][metric]
        note = ""
        if metric == "op_s":
            note = f"  (median of {result['operations']} operations)"
        elif metric == "setup_s":
            note = f"  (median of {result['setup_samples']} set-ups)"
        print(f"  {metric:<{width}}  {value:.6g} {unit}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<{width}}  {frac:.6g}  "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        print(f"  spans written to {result['trace_file']}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the sts benchmark from a checkout of the repository.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "sts" / "cli.py").is_file():
        print(f"perfbench: no sts sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    names = TIMED if args.workload == "all" else [args.workload]
    blas_threads = len(os.sched_getaffinity(0))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, blas_threads)
            print_result(name, results[name], args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {"seed": args.seed,
                 "workloads": {n: contract_line(r, args.trace)
                               for n, r in results.items()}}
    else:
        final = contract_line(results[args.workload], args.trace)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
