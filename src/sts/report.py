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
    """Eigenvalue table with columns degree,index,re,im,converged.

    ``spectra`` is the per-degree list of row dicts from
    SpectralReport.to_dict()["spectra"].
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["degree", "index", "re", "im", "converged"])
        for rows in spectra:
            for r in rows:
                w.writerow(
                    [r["degree"], r["index"], repr(r["re"]), repr(r["im"]),
                     str(r["converged"]).lower()]
                )
    return path


def write_table_csv(path, header, rows):
    """Generic small numeric table (t/W/Z samples, densities, sweeps)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path
