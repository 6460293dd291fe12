"""Tests of the benchmark's own checks, metric names and tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from run import END_TO_END
from tracer import PER_LAYER, Tracer
from workloads import (
    ABC_N4_GROUND,
    TIMED,
    WORKLOADS,
    Workload,
    check_dynamo,
    check_mc,
    check_sweep,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _dynamo_report(classification="broken-complex", energy=ABC_N4_GROUND):
    rows = [[{"degree": k, "index": n, "re": 0.0, "im": 0.0,
              "converged": n < 2} for n in range(4)] for k in range(4)]
    return {
        "checks": {"converged": True, "growth_rate_2pct": True,
                   "frequency_5pct": True},
        "payload": {"classification": classification,
                    "ground": {"degree": 2, "index": 0,
                               "re": energy.real, "im": energy.imag},
                    "spectra": rows},
    }


def test_dynamo_check_accepts_the_recorded_result():
    problems, certified = check_dynamo(0, _dynamo_report(), "broken-complex",
                                       ABC_N4_GROUND)
    assert problems == []
    assert certified == 8


@pytest.mark.parametrize("change", [
    {"classification": "unbroken"},
    {"energy": ABC_N4_GROUND + 1e-6},
    {"energy": ABC_N4_GROUND.conjugate()},
])
def test_wrong_classification_or_ground_energy_is_a_failure(change):
    report = _dynamo_report(**change)
    problems, _ = check_dynamo(0, report, "broken-complex", ABC_N4_GROUND)
    assert problems


def test_energy_within_tolerance_passes():
    report = _dynamo_report(energy=ABC_N4_GROUND + 1e-10)
    assert check_dynamo(0, report, "broken-complex", ABC_N4_GROUND)[0] == []


def test_failed_report_check_or_exit_code_is_a_failure():
    report = _dynamo_report()
    report["checks"]["growth_rate_2pct"] = False
    assert check_dynamo(0, report, "broken-complex", ABC_N4_GROUND)[0]
    assert check_dynamo(4, _dynamo_report(), "broken-complex",
                        ABC_N4_GROUND)[0]


def test_sweep_and_mc_checks():
    report = {"checks": {}}
    good = [{"classification": "unbroken", "converged": "true"}] * 3
    assert check_sweep(0, report, good, 3) == ([], 3)
    assert check_sweep(0, report, good, 4)[0]
    bad = good[:2] + [{"classification": "broken-real", "converged": "true"}]
    assert check_sweep(0, report, bad, 3)[0]
    unconverged = good[:2] + [{"classification": "unbroken",
                               "converged": "false"}]
    problems, certified = check_sweep(0, report, unconverged, 3)
    assert problems and certified == 2
    assert check_mc(0, {"checks": {"l1_within_bound": True}}) == ([], 1)
    assert check_mc(4, {"checks": {"l1_within_bound": False}})[0]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == TIMED


def _tiny(name, command, config, args=()):
    def check(code, out_dir):
        return ([] if code == 0 else [f"exit code {code}"]), 0
    return Workload(name, command, config, args, check)


TINY = [
    _tiny("dynamo", "dynamo", lambda seed: {
        **WORKLOADS["dynamo-abc3d"].config(seed), "truncation": 1}),
    _tiny("sweep", "sweep", lambda seed: {
        **WORKLOADS["sweep-random2d"].config(seed), "truncation": 2,
        "sweep": {"theta": [0.5], "parameter": "seed", "values": [seed]}}),
    _tiny("mc", "mc-compare", WORKLOADS["mc-mult1d"].config,
          ("--t", "0.2", "--samples", "2000", "--l1-bound", "1.0")),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_reports_every_layer_metric_and_the_same_report(
        workload, tmp_path):
    from sts import spectral, trig

    originals = (spectral.eigensolve, spectral.spla, trig.TrigField.evaluate)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(4)), encoding="utf-8")
    plain = worker.run_operation(workload, config, tmp_path / "plain")
    tracer = Tracer()
    traced = worker.run_operation(workload, config, tmp_path / "traced",
                                  tracer)
    assert plain.problems == [] and traced.problems == []
    assert plain.report and traced.report == plain.report
    assert (spectral.eigensolve, spectral.spla,
            trig.TrigField.evaluate) == originals
    names = {name for name, _ in PER_LAYER}
    assert set(traced.layers) | {"trace.overhead_s"} == names
    layers = traced.layers
    if workload.command == "mc-compare":
        assert layers["sde.integrate_s"] > 0 and layers["sde.path_steps"] > 0
        assert layers["trig.evaluate_calls"] > 0
    else:
        assert layers["operators.assemble_s"] > 0
        assert layers["operators.assemble_refined_s"] > 0
        assert layers["spectral.guard_s"] > 0
        assert sum(layers[f"spectral.certified.k{k}"] for k in range(4)) > 0
    if workload.command == "dynamo":
        assert layers["spectral.shift_invert_calls"] > 0
    assert layers["report.bytes"] > 0 and layers["report.write_s"] > 0
    root = tracer.spans[-1]
    assert root.name == "op" and root.parent is None
    assert all(s.parent is not None for s in tracer.spans[:-1])


def test_summary_of_a_failed_or_differing_operation():
    ops = [worker.Operation(1.0, False, [], 3, b"a"),
           worker.Operation(2.0, False, [], 3, b"b"),
           worker.Operation(3.0, False, ["exit code 4"], 0, b"")]
    result = worker.summarize(ops, None)
    assert result["attempted"] == 3 and result["failed"] == 2
    assert result["metrics"]["op_s"] == 2.0


def test_worker_refuses_when_threads_are_not_pinned(tmp_path):
    env = dict(os.environ, STS_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "mc-mult1d",
         "--seed", "4", "--work", str(tmp_path), "--blas-threads", "3",
         "--mode", "setup"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "READY" not in proc.stdout
    assert "refusing to measure" in proc.stderr


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-mult1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
