"""One benchmark process: set up a workload, then time its operations.

``run.py`` starts this file in a fresh interpreter with the BLAS and
``STS_THREADS`` pins in its environment.  The worker imports ``sts`` from
the checkout's ``src``, refuses to go on unless the pins are in effect,
generates and parses the workload's inputs, and prints ``READY <env>``.
In ``setup`` mode it then exits; in ``measure`` mode it runs operations
until ``--seconds`` are used up and prints ``RESULT <json>``.

An operation is one in-process ``sts.cli.main`` call.  With ``--trace 1``
untraced and traced operations alternate, so the tracing overhead and
the equality of their ``report.json`` are measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _openblas_call(lib, stem, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", "", "_64_"):
            fn = getattr(lib, prefix + stem + suffix, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def openblas_runtime():
    """Thread count and build string of each OpenBLAS numpy/scipy loaded."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    site = Path(numpy.__file__).resolve().parent.parent
    out = []
    for package in ("numpy", "scipy"):
        for path in sorted((site / f"{package}.libs").glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
            config = _openblas_call(lib, "get_config", ctypes.c_char_p)
            if threads is not None:
                out.append({"package": package, "threads": threads,
                            "build": config.decode() if config else None})
    return out


def pinned_environment(blas_threads):
    """The recorded environment; exits if the thread pins are not in effect."""
    import numpy
    import scipy

    problems = [
        f"{var}={os.environ.get(var)!r}, expected {blas_threads}"
        for var in BLAS_VARS if os.environ.get(var) != str(blas_threads)
    ]
    if os.environ.get("STS_THREADS") != "1":
        problems.append(f"STS_THREADS={os.environ.get('STS_THREADS')!r}, "
                        "expected 1")
    blas = openblas_runtime()
    if not blas:
        problems.append("no OpenBLAS library found to confirm the thread count")
    problems += [
        f"{lib['package']} OpenBLAS runs {lib['threads']} threads, "
        f"expected {blas_threads}"
        for lib in blas if lib["threads"] != blas_threads
    ]
    if problems:
        raise SystemExit("perfbench: refusing to measure: " + "; ".join(problems))
    return {
        "blas_threads": blas_threads,
        "sts_threads": 1,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


@dataclass
class Operation:
    seconds: float
    traced: bool
    problems: list
    certified: int = 0
    report: bytes = b""
    report_bytes: int = 0
    layers: dict = field(default_factory=dict)


def run_operation(workload, config_path, out_dir, tracer=None, op_id=0):
    """Run and check one operation; its output directory is removed."""
    from sts import cli

    argv = workload.argv(config_path, out_dir)
    first_span = len(tracer.spans) if tracer else 0
    code = None
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.installed(), tracer.operation(op_id):
                    code = cli.main(argv)
        except Exception as exc:  # an operation that raises is a failure
            traceback.print_exc(file=sys.stderr)
            problems.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    op = Operation(seconds, tracer is not None, problems)
    out = Path(out_dir)
    try:
        if not problems:
            op.problems, op.certified = workload.check(code, out)
            op.report = (out / "report.json").read_bytes()
        op.report_bytes = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file())
    except (OSError, KeyError, ValueError) as exc:
        op.problems.append(f"unreadable output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        spans = tracer.spans[first_span:]
        op.seconds = spans[-1].seconds
        op.layers = layer_metrics(spans, spans[-1])
        op.layers["report.bytes"] = op.report_bytes
    return op


def measure(workload, config_path, work, seconds, trace):
    """Operations until ``seconds`` are used up; at least one of each kind."""
    tracer = Tracer() if trace else None
    kinds = [None, tracer] if trace else [None]
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        for kind in kinds:
            ops.append(run_operation(workload, config_path,
                                     work / f"op{len(ops)}", kind, len(ops)))
        # start another round only if a typical round still fits
        per_round = sum(
            statistics.median(o.seconds for o in ops if o.traced == traced)
            for traced in {o.traced for o in ops}
        )
        if time.perf_counter() + per_round > deadline:
            return ops, tracer


def _median(values):
    """Median; the low median for counts, so that they stay whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(ops, tracer):
    """The worker's result: counts, problems and metrics but set-up time."""
    reference = next((o.report for o in ops if o.report), b"")
    for op in ops:
        if op.report and op.report != reference:
            op.problems.append("report.json differs from the first operation's")
    failed = [o for o in ops if o.problems]
    plain = [o.seconds for o in ops if not o.traced]
    result = {
        "attempted": len(ops),
        "failed": len(failed),
        "problems": [p for o in failed for p in o.problems][:10],
        "operations": len(plain),
    }
    if tracer is None:
        result["metrics"] = {
            "op_s": statistics.median(plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified": _median(o.certified for o in ops),
        }
        return result
    traced = [o for o in ops if o.traced]
    layers = {
        name: _median(o.layers[name] for o in traced)
        for name in traced[0].layers
    }
    layers["trace.overhead_s"] = (
        statistics.median(o.seconds for o in traced) - statistics.median(plain))
    result["metrics"] = layers
    result["spans"] = [asdict(s) for s in tracer.spans]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--blas-threads", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import sts.cli  # noqa: F401  (import time is part of set-up)
    from sts.config import parse_config

    if Path(sts.__file__).resolve().parent != ROOT / "src" / "sts":
        raise SystemExit(f"perfbench: imported sts from {sts.__file__}, "
                         f"not from {ROOT / 'src'}")
    env = pinned_environment(args.blas_threads)
    workload = WORKLOADS[args.workload]
    text = json.dumps(workload.config(args.seed), indent=2)
    parse_config(text)
    inputs = args.work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    config_path = inputs / "config.json"
    config_path.write_text(text, encoding="utf-8")
    print("READY " + json.dumps(env), flush=True)
    if args.mode == "setup":
        return 0
    ops, tracer = measure(workload, config_path, args.work, args.seconds,
                          args.trace)
    print("RESULT " + json.dumps(summarize(ops, tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
