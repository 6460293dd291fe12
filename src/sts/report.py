"""Machine-readable report emission: canonical JSON and RFC-4180 CSV.

Reports are deterministic at a fixed BLAS thread count: identical config,
seed and thread count produce byte-identical files.  A different thread
count changes the floating-point summation order inside the eigensolvers,
which can move eigenvalues in their last digits and reorder near-ties.
Wall-clock timing is written to a sibling text file rather than into the
JSON payload.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import canonical_json


@dataclass
class ReportDocument:
    """Everything one command run produces, ready to serialize."""

    config: dict
    payload: dict
    checks: dict = field(default_factory=dict)
    timing: float = 0.0

    def to_dict(self):
        return {
            "version": __version__,
            "config": self.config,
            "payload": self.payload,
            "checks": self.checks,
        }

    def write(self, out_dir):
        """Write report.json and report.timing.txt into an existing directory."""
        out = Path(out_dir)
        path = out / "report.json"
        path.write_text(canonical_json(self.to_dict()), encoding="utf-8")
        (out / "report.timing.txt").write_text(
            f"{self.timing:.3f} s\n", encoding="utf-8"
        )
        return path


def write_eigenvalue_csv(path, spectra):
    """Eigenvalue table with columns degree,index,re,im,converged, from
    the per-degree row dicts of a ``spectral.report`` payload's spectra."""
    header = ["degree", "index", "re", "im", "converged"]
    rows = ([r[key] for key in header] for degree in spectra for r in degree)
    return write_table_csv(path, header, rows)


def write_table_csv(path, header, rows):
    """The one CSV writer, and the one place a value becomes cell text: a
    float, numpy's included, is the repr of the Python float, a bool is
    true or false, None is an empty cell and anything else its str."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return repr(float(v)) if isinstance(v, (float, np.floating)) else v

    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)
    return path
