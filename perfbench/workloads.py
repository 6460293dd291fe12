"""Benchmark workloads: input generation from a seed and output checks.

Each workload is one ``sts`` command run on config documents the
benchmark generates.  The program receives only the generated files; the
seed never reaches it except as the config's own ``seed`` key.

The reasons for each workload, and which layer metric should move which
end-to-end metric on it, are in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ground energy of the ABC dynamo, A = B = C = 1, eta = 0.08, N = 4, with
# the refinement guard at tol_converge = 1e-2 (the README's headline case)
ABC_N4_GROUND = complex(-0.0102714378331677, -0.6119529491736274)
ENERGY_RTOL = 1e-8
SWEEP_THETAS = (0.05, 0.5, 1.0)
SWEEP_SEEDS = 4
MULT_NOISE = [[
    {"axis": 1, "wavevector": [0], "re": 1.0, "im": 0.0},
    {"axis": 1, "wavevector": [1], "re": 0.15, "im": 0.0},
]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config(seed)`` builds the JSON config document, ``args`` are the
    command's extra flags, and ``check(code, out_dir)`` returns the list
    of problems with one operation's outputs (empty when they are
    correct) and the number of guard-certified results.
    ``reference`` workloads are too slow for the timed matrix and are
    run by hand to regenerate the README's headline layer table.
    """

    name: str
    command: str
    config: Callable[[int], dict]
    args: tuple
    check: Callable
    reference: bool = False

    def argv(self, config_path, out_dir):
        return [self.command, "--config", str(config_path),
                "--out", str(out_dir), *self.args]


def _report_problems(code, report):
    problems = [] if code == 0 else [f"exit code {code}"]
    failed = sorted(k for k, ok in report["checks"].items() if not ok)
    if failed:
        problems.append(f"report checks failed: {failed}")
    return problems


def check_dynamo(code, report, expected_class, expected_energy):
    """Problems with one ``sts dynamo`` report, and its certified count."""
    problems = _report_problems(code, report)
    payload = report["payload"]
    if payload["classification"] != expected_class:
        problems.append(
            f"classification {payload['classification']!r}, "
            f"expected {expected_class!r}"
        )
    ground = payload["ground"]
    if ground is None:
        problems.append("no ground state")
    else:
        energy = complex(ground["re"], ground["im"])
        tol = ENERGY_RTOL * max(1.0, abs(expected_energy))
        if abs(energy - expected_energy) > tol:
            problems.append(
                f"ground energy {energy!r}, expected {expected_energy!r}"
            )
    certified = sum(
        row["converged"] for degree in payload["spectra"] for row in degree
    )
    return problems, certified


def check_sweep(code, report, rows, cells):
    """Problems with one ``sts sweep`` table, and its converged-cell count."""
    problems = _report_problems(code, report)
    if len(rows) != cells:
        problems.append(f"{len(rows)} sweep cells, expected {cells}")
    bad = [r for r in rows
           if r["classification"] != "unbroken" or r["converged"] != "true"]
    if bad:
        problems.append(f"{len(bad)} cells not unbroken and converged")
    certified = sum(r["converged"] == "true" for r in rows)
    return problems, certified


def check_mc(code, report):
    """Problems with one ``sts mc-compare`` report.

    There is no refinement guard here; the certified count is the number
    of report checks that hold (the single L1 bound check).
    """
    problems = _report_problems(code, report)
    if "l1_within_bound" not in report["checks"]:
        problems.append("report has no l1_within_bound check")
    return problems, sum(bool(ok) for ok in report["checks"].values())


def _read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text("utf-8"))


def _abc_config(truncation):
    def config(seed):
        return {
            "dimension": 3, "truncation": truncation, "theta": 0.08,
            "flow": {"preset": "abc",
                     "params": {"A": 1.0, "B": 1.0, "C": 1.0}},
            "tolerances": {"tol_converge": 1e-2},
            "seed": seed,
        }
    return config


def _dynamo_check(expected_class, expected_energy):
    def check(code, out_dir):
        return check_dynamo(code, _read_report(out_dir), expected_class,
                            expected_energy)
    return check


def sweep_seeds(seed):
    """The random-flow seeds of the 2-D sweep, derived from ``seed``."""
    return random.Random(seed).sample(range(1, 100_000), SWEEP_SEEDS)


def _sweep_config(seed):
    return {
        "dimension": 2, "truncation": 4, "theta": SWEEP_THETAS[0],
        "flow": {"preset": "random",
                 "params": {"bandwidth": 1, "amplitude": 0.5}},
        "sweep": {"theta": list(SWEEP_THETAS), "parameter": "seed",
                  "values": sweep_seeds(seed)},
    }


def _sweep_check(code, out_dir):
    with open(Path(out_dir) / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return check_sweep(code, _read_report(out_dir), rows,
                       len(SWEEP_THETAS) * SWEEP_SEEDS)


def _mc_config(seed):
    return {
        "dimension": 1, "truncation": 12, "theta": 0.5,
        "flow": {"preset": "langevin-cos"},
        "noise": MULT_NOISE,
        "seed": seed,
    }


def _mc_check(code, out_dir):
    return check_mc(code, _read_report(out_dir))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dynamo-abc3d", "dynamo", _abc_config(2), (),
                 _dynamo_check("unbroken", 0j)),
        Workload("sweep-random2d", "sweep", _sweep_config, (), _sweep_check),
        Workload("mc-mult1d", "mc-compare", _mc_config,
                 ("--t", "2", "--samples", "100000"), _mc_check),
        Workload("dynamo-abc3d-n4", "dynamo", _abc_config(4), (),
                 _dynamo_check("broken-complex", ABC_N4_GROUND),
                 reference=True),
    )
}

TIMED = [name for name, w in WORKLOADS.items() if not w.reference]
