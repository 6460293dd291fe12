"""The ``sts`` command line tool.

Dispatches spectral pipelines, Monte-Carlo cross-checks, the dynamo
study, and parameter sweeps, and writes deterministic JSON/CSV reports.

Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence, 4 failed physics check.  Commands return their report;
``main`` derives the exit code from its checks alone: a failed
``converged`` check exits 3, any other failed check exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sde, spectral
from .config import (
    ConfigError,
    build_flow,
    build_model,
    build_potential,
    parse_config,
)
from .layout import BasisLayout, FormVector
from .operators import (
    kd_operator,
    langevin_hermitian_blocks,
    seo_alpha,
)
from .report import ReportDocument, write_eigenvalue_csv, write_table_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_CHECK_FAILED = 4

_WITTEN_BOUND = 1e-6
# an overflowed model, step count or solve: a result, not a traceback
_NUMERICAL_FAILURES = (FloatingPointError, OverflowError, np.linalg.LinAlgError)


def _seo_builder(config):
    def build(layout):
        return seo_alpha(build_model(config, layout.truncation))
    return build


def _kd_builder(config):
    flow = build_flow(config)

    def build(layout):
        return kd_operator(flow, config.theta, layout)
    return build


def _check_dynamo(config):
    """Refuse a config the dynamo pipeline would not analyse as written:
    the kinematic dynamo lives on T^3, has the identity noise frame, and
    takes theta as its magnetic diffusivity, which must be positive."""
    if config.dimension != 3:
        raise ConfigError("the dynamo pipeline requires dimension 3")
    if config.noise != "identity":
        raise ConfigError("the dynamo pipeline assumes the identity noise frame")
    if config.theta <= 0:
        raise ConfigError(
            f"the dynamo pipeline needs theta > 0 (the magnetic "
            f"diffusivity), got {config.theta!r}")


def run_pipeline(config, builder, out_dir):
    """The one guarded run of every spectral command: eigensolve the blocks
    ``builder(config)`` gives under the refinement guard and write their
    eigenvalue and trace tables into ``out_dir``.  Returns the systems,
    their pairing check and the report document, whose ``converged``
    check holds unless the verdict is indeterminate or a W(t) or Z(t)
    sample is not finite; commands add their own payload fields and
    checks to it."""
    build = builder(config)
    tol = config.tolerances
    blocks = build(BasisLayout(config.dimension, config.truncation))
    systems = spectral.analyze(blocks, build, tol)
    pairing = spectral.pairing_check(systems, tol, blocks=blocks)
    payload = spectral.report(systems, pairing, tol, config.t_grid)
    write_eigenvalue_csv(Path(out_dir) / "eigenvalues.csv", payload["spectra"])
    witten, z = payload["witten"], payload["partition"]["z"]
    rows = [(t, *w_t, *z_t) for t, w_t, z_t in zip(witten["t"], witten["w"], z)]
    write_table_csv(Path(out_dir) / "traces.csv",
                    ["t", "w_re", "w_im", "z_re", "z_im"], rows)
    # an overflowed trace sample (inf or nan) is not a converged result
    finite = all(math.isfinite(v) for row in rows for v in row)
    checks = {"converged": finite
              and payload["classification"] != spectral.INDETERMINATE}
    return systems, pairing, ReportDocument(config.to_dict(), payload, checks)


def cmd_spectrum(config, args, out_dir):
    return run_pipeline(config, _seo_builder, out_dir)[2]


def cmd_witten(config, args, out_dir):
    _, _, doc = run_pipeline(config, _seo_builder, out_dir)
    samples = [abs(complex(*w)) for w in doc.payload["witten"]["w"]]
    # max() would skip a nan that is not the first sample
    worst = math.nan if any(map(math.isnan, samples)) else max(samples)
    doc.payload["witten_max_abs"] = worst
    doc.checks["witten_zero"] = worst <= _WITTEN_BOUND
    return doc


def cmd_pair(config, args, out_dir):
    _, pairing, doc = run_pipeline(config, _seo_builder, out_dir)
    doc.payload["pairing_detail"] = pairing
    # vectorless systems (3-D) get only the even/odd multiset comparison
    doc.checks["pairing"] = not pairing["violations"] and (
        pairing["even_odd_distance"] <= config.tolerances.tol_pair)
    return doc


def _uniform_density(layout):
    D = layout.dimension
    psi = FormVector.zero(D, layout)
    psi.set_coefficient(tuple(range(1, D + 1)), (0,) * D,
                        (2 * np.pi) ** (-D))
    return psi


def _rippled_density(layout):
    """The uniform density perturbed by a cos(x1) ripple, so that its
    decay is visible."""
    D = layout.dimension
    psi = _uniform_density(layout)
    kappa = tuple(1 if j == 0 else 0 for j in range(D))
    top = tuple(range(1, D + 1))
    psi.set_coefficient(top, kappa, 0.5 * (2 * np.pi) ** (-D))
    psi.set_coefficient(top, tuple(-k for k in kappa), 0.5 * (2 * np.pi) ** (-D))
    return psi


def _evolved_bin_averages(config, truncation, t, initial):
    """Bin averages of the density ``initial(layout)`` evolved to time t."""
    model = build_model(config, truncation)
    D = model.dimension
    out = sde.operator_evolve_density(seo_alpha(model)[D], initial(model.layout), t)
    return sde.density_bin_averages(out, sde.default_bins(D))


def _refinement_agrees(config, t, initial, vals):
    """Whether the refined truncation N + 2 reproduces the bin averages
    ``vals`` at N; if not, a failed check may be under-resolution, not
    physics."""
    refined = BasisLayout(config.dimension, config.truncation).refined()
    fine = _evolved_bin_averages(config, refined.truncation, t, initial)
    tol = config.tolerances.tol_converge
    return bool(
        np.max(np.abs(fine - vals)) <= tol * max(1.0, float(np.max(np.abs(fine))))
    )


def _write_density_table(path, columns):
    """One row per histogram bin: its centre ``x`` in 1-D, else its flat
    ``cell`` index, then the bin's value of each named density array."""
    first = next(iter(columns.values()))
    if first.ndim == 1:
        bins = len(first)
        key, where = "x", (np.arange(bins) + 0.5) * 2 * np.pi / bins
    else:
        key, where = "cell", range(first.size)
    values = (v.ravel() for v in columns.values())
    write_table_csv(path, [key, *columns], zip(where, *values))


def cmd_evolve(config, args, out_dir):
    vals = _evolved_bin_averages(config, config.truncation, args.t, _rippled_density)
    _write_density_table(Path(out_dir) / "density.csv", {"density": vals})
    checks = {
        "nonnegative": bool(vals.min() > -1e-8),
        "converged": _refinement_agrees(config, args.t, _rippled_density, vals),
    }
    return ReportDocument(
        config.to_dict(),
        {"t": args.t, "bins": len(vals), "min_density": float(vals.min())},
        checks,
    )


def cmd_mc_compare(config, args, out_dir):
    model = build_model(config)
    D = model.dimension
    rng = np.random.default_rng([config.seed, 0])
    dt = min(args.dt, sde.max_stable_dt(model))
    # round the step count up, so t / steps never exceeds dt beyond the
    # 1e-12 relative slack the stability check allows
    steps = max(1, math.ceil(args.t / (dt * (1 + 1e-12))))
    dt = args.t / steps
    states = sde.ensemble_states(model, args.samples, dt, steps, rng)
    bins = sde.default_bins(D)
    hist = sde.ensemble_density(states, bins)
    ref = _evolved_bin_averages(config, config.truncation, args.t, _uniform_density)
    l1 = sde.l1_distance(hist, ref)
    _write_density_table(Path(out_dir) / "densities.csv",
                         {"monte_carlo": hist, "operator": ref})
    # the mean L1 distance of an exact density's own histogram: sum over
    # bins of E|binomial(n, p) / n - p| ~ sqrt(2 p (1 - p) / (pi n))
    mass = np.clip(ref * (2 * np.pi / bins) ** D, 0.0, 1.0)
    floor = float(np.sum(np.sqrt(2 * mass * (1 - mass) / (np.pi * args.samples))))
    checks = {
        "l1_within_bound": l1 <= args.l1_bound,
        # a bound below the sampling floor cannot be judged: under-sampled
        "converged": floor <= args.l1_bound
        and _refinement_agrees(config, args.t, _uniform_density, ref),
    }
    return ReportDocument(
        config.to_dict(),
        {"t": args.t, "samples": args.samples, "dt": dt, "l1_distance": l1,
         "l1_floor": floor},
        checks,
    )


def cmd_dynamo(config, args, out_dir):
    _check_dynamo(config)
    if args.steps < 2:
        # one step would give the oracle's log-norm fit a single point
        raise ConfigError(f"--steps must be at least 2, got {args.steps}")
    systems, _, doc = run_pipeline(config, _kd_builder, out_dir)
    payload = doc.payload
    if payload["classification"] in (spectral.BROKEN_REAL, spectral.BROKEN_COMPLEX):
        flow = build_flow(config)
        layout = systems[0].layout
        rng = np.random.default_rng([config.seed, 1])
        b0 = FormVector(2, layout, rng.standard_normal(layout.size(2)) + 0j)
        n = layout.n_modes
        for r in range(3):
            b0.coeffs[r * n + layout.mode_index((0, 0, 0))] = 0.0
        gamma, omega = sde.induction_timestep_oracle(
            flow, config.theta, b0, args.dt, args.steps
        )
        gamma_eig, omega_eig = -payload["ground"]["re"], abs(payload["ground"]["im"])
        doc.checks["growth_rate_2pct"] = abs(gamma - gamma_eig) <= 0.02 * abs(gamma_eig)
        # the frequency bound scales with |E_g|, not omega_eig: a real
        # ground (omega_eig = 0) would otherwise allow no frequency at all
        doc.checks["frequency_5pct"] = (
            abs(omega - omega_eig) <= 0.05 * abs(complex(gamma_eig, omega_eig))
        )
        payload["oracle"] = {"gamma": gamma, "omega": omega}
        payload["eigensolve"] = {"gamma": gamma_eig, "omega": omega_eig}
    return doc


def cmd_langevin_check(config, args, out_dir):
    potential = build_potential(config)
    if potential is None:
        raise ConfigError("langevin-check needs a langevin-cos or langevin-double flow")
    if config.noise != "identity":
        raise ConfigError("langevin-check assumes the identity noise frame")
    if config.theta <= 0:
        raise ConfigError("langevin-check needs theta > 0, the oracle's temperature")
    # a 1e-8 equality claim is only meaningful on eigenvalues the
    # truncation has itself resolved to 1e-8, so both operators are
    # guarded at least that strictly
    tol = replace(config.tolerances,
                  tol_converge=min(config.tolerances.tol_converge, 1e-8))
    systems, _, doc = run_pipeline(replace(config, tolerances=tol), _seo_builder,
                                   out_dir)
    # the user's config; the payload keeps the stricter tolerances
    doc.config = config.to_dict()
    layout = systems[0].layout

    def hu_builder(lay):
        return langevin_hermitian_blocks(potential, config.theta, lay)

    hu_systems = spectral.analyze(hu_builder(layout), hu_builder, tol, vectors=False)
    radius = spectral.spectral_radius(systems)
    h_conv = [s.eigenvalues[s.converged] for s in systems]
    hu_conv = [s.eigenvalues[s.converged] for s in hu_systems]
    imag_worst = max(float(np.abs(h.imag).max(initial=0.0)) for h in h_conv)
    match_worst = max(
        float((spectral._drift(h, hu) / np.maximum(1.0, np.abs(h))).max(initial=0.0))
        for h, hu in zip(h_conv, hu_conv))
    doc.checks.update({
        "spectrum_real": imag_worst <= 1e-8 * max(radius, 1.0),
        "matches_hermitian_oracle": match_worst <= 1e-8,
        "unbroken": doc.payload["classification"] == spectral.UNBROKEN,
    })
    doc.payload["langevin"] = {
        "max_imag": imag_worst,
        "oracle_mismatch": match_worst,
        "converged_counts": [int(len(v)) for v in h_conv],
    }
    return doc


def _sweep_cell(config, theta, value):
    params = dict(config.flow["params"])
    params[config.sweep["parameter"]] = value
    flow = dict(config.flow)
    flow["params"] = params
    build = _seo_builder(replace(config, theta=theta, flow=flow, sweep=None))
    tol = config.tolerances
    # a cell prints only its verdict, which needs no eigenvectors; an
    # indeterminate cell says why in its last column
    try:
        blocks = build(BasisLayout(config.dimension, config.truncation))
        systems = spectral.analyze(blocks, build, tol, vectors=False)
    except _NUMERICAL_FAILURES as exc:
        return (theta, value, spectral.INDETERMINATE, None, None, False,
                f"{type(exc).__name__}: {exc}")
    label = spectral.classify(systems, tol)
    if label == spectral.INDETERMINATE:
        return (theta, value, label, None, None, False, "nothing certified")
    e = spectral.ground_state(systems, tol)["energy"]
    return (theta, value, label, e.real, e.imag, True, None)


def cmd_sweep(config, args, out_dir):
    if config.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    rows = [
        _sweep_cell(config, theta, value)
        for theta in config.sweep["theta"]
        for value in config.sweep["values"]
    ]
    write_table_csv(
        Path(out_dir) / "sweep.csv",
        ["theta", config.sweep["parameter"], "classification",
         "re_eg", "im_eg", "converged", "reason"],
        rows,
    )
    counts = {}
    for r in rows:
        counts[r[2]] = counts.get(r[2], 0) + 1
    return ReportDocument(
        config.to_dict(), {"cells": len(rows), "classifications": counts},
        {"converged": all(r[5] for r in rows)},
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "classify": cmd_spectrum,
    "witten": cmd_witten,
    "pair": cmd_pair,
    "evolve": cmd_evolve,
    "mc-compare": cmd_mc_compare,
    "dynamo": cmd_dynamo,
    "langevin-check": cmd_langevin_check,
    "sweep": cmd_sweep,
}


def _number(kind, positive):
    """argparse type: a finite ``kind`` that is positive, or nonnegative."""
    def parse(text):
        value = kind(text)
        if not ((value > 0 if positive else value >= 0)
                and (kind is int or math.isfinite(value))):
            sign = "positive" if positive else "nonnegative"
            raise argparse.ArgumentTypeError(f"must be {sign}, got {text}")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's message
    return parse


def float_list(text):
    """argparse type: comma-separated floats."""
    return [float(v) for v in text.split(",")]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sts",
        description="Spectral analysis of stochastic flows on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--truncation", type=int, default=None)
        # sweep cells set theta; only run_pipeline's trace samples read t_grid
        if name != "sweep":
            p.add_argument("--theta", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        if name not in ("evolve", "mc-compare", "sweep"):
            p.add_argument("--t-grid", type=float_list, default=None)
        if name == "evolve":
            p.add_argument("--t", type=_number(float, False), default=1.0)
        if name == "mc-compare":
            p.add_argument("--t", type=_number(float, True), default=1.0)
            p.add_argument("--samples", type=_number(int, True), default=100000)
            p.add_argument("--dt", type=_number(float, True), default=0.02)
            p.add_argument("--l1-bound", type=_number(float, False), default=0.05)
        if name == "dynamo":
            p.add_argument("--dt", type=_number(float, True), default=0.05)
            p.add_argument("--steps", type=_number(int, True), default=6000)
    return parser


_OVERRIDES = ("seed", "truncation", "theta", "alpha", "t_grid")


def _with_overrides(text, args):
    """The config text with the command-line overrides merged into it,
    so that ``parse_config`` validates them like the file's own values."""
    overrides = {
        key: getattr(args, key) for key in _OVERRIDES
        if getattr(args, key, None) is not None
    }
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError):
        return text  # parse_config reports it
    if not overrides or not isinstance(raw, dict):
        return text
    return json.dumps({**raw, **overrides})


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"sts: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    started = time.perf_counter()
    try:
        config = parse_config(_with_overrides(text, args))
        out_dir = Path(args.out or config.output)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        # an overflow or nan fails the run's own checks, or raises
        # FloatingPointError, so numpy's warnings would only precede that
        with np.errstate(over="ignore", invalid="ignore"):
            doc = _COMMANDS[args.command](config, args, out_dir)
    except ConfigError as exc:
        print(f"sts: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_FAILURES as exc:
        print(f"sts: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    doc.timing = time.perf_counter() - started
    path = doc.write(out_dir)
    failed = [name for name, ok in doc.checks.items() if not ok]
    status = "ok" if not failed else f"FAILED: {', '.join(failed)}"
    print(f"sts {args.command}: {status} ({path})")
    if "converged" in failed:
        return EXIT_NONCONVERGED
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
