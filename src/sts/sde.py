"""Direct simulation of the stochastic flow and density cross-checks.

Trajectories are integrated on the torus with a Heun predictor-corrector
on the model's Stratonovich equivalent, so paths and operator densities
follow the same law in every interpretation alpha; fields along
trajectories are evaluated by ``TrigField.evaluate`` as real cos/sin
sums over one half-space of wavevectors (each +-kappa pair folded once
per field), which is exact for the band-limited fields used everywhere
in this package.  Operator densities are propagated by ``expm`` of the
top-degree block and averaged over histogram bins analytically.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .exterior import integrate_top
from .layout import FormVector
from .operators import lie_matrices, stratonovich

TWO_PI = 2.0 * np.pi


def _increment(model, x, dt, dw, sqrt2theta):
    """F(x) dt + sqrt(2 theta) sum_a e_a(x) dW_a, vectorized over x rows."""
    out = model.drift.evaluate(x) * dt
    for a, e in enumerate(model.noise):
        out += sqrt2theta * e.evaluate(x) * dw[..., a : a + 1]
    return out


def max_stable_dt(model):
    """Step bound 0.1 / (max |F| + theta * max noise gradient), F as stepped."""
    scale = stratonovich(model).drift.max_abs()
    for e in model.noise:
        grad = max(
            e[i].diff(j).max_abs()
            for i in range(model.dimension)
            for j in range(model.dimension)
        )
        scale += model.theta * max(grad, e.max_abs())
    return 0.1 / max(scale, 1e-12)


def ensemble_states(model, n_traj, dt, steps, rng, x0=None):
    """Final states of n_traj independent trajectories, shape (n_traj, D).

    Heun-steps the model's Stratonovich equivalent, so the paths sample
    the law of interpretation ``model.alpha``, and wraps to [0, 2pi)^D
    after every step.  Paths start from uniform draws, or from the rows
    of ``x0`` when it is given.
    """
    bound = max_stable_dt(model)
    if not 0 < dt <= bound * (1 + 1e-12):
        raise ValueError(f"dt = {dt} is not in (0, {bound:.3g}], the step bound")
    model = stratonovich(model)
    if x0 is None:
        x0 = rng.uniform(0.0, TWO_PI, size=(n_traj, model.dimension))
    x = np.array(x0, dtype=float)
    M = len(model.noise)
    s2t = np.sqrt(2.0 * model.theta)
    for n in range(steps):
        dw = rng.normal(0.0, np.sqrt(dt), size=(len(x), M))
        k1 = _increment(model, x, dt, dw, s2t)
        k2 = _increment(model, x + k1, dt, dw, s2t)
        x = x + 0.5 * (k1 + k2)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"integration diverged at step {n}")
        x = np.mod(x, TWO_PI)
    return x


def _cell_volume(density):
    """Volume of one cell of a density array's regular grid on the torus."""
    return (TWO_PI / density.shape[0]) ** density.ndim


def ensemble_density(states, bins):
    """Normalized histogram density of an ensemble of states on the torus,
    an array of shape (bins,) * D."""
    states = np.atleast_2d(states)
    if len(states) < 1:
        raise ValueError("empty ensemble")
    D = states.shape[-1]
    edges = [np.linspace(0.0, TWO_PI, bins + 1)] * D
    counts, _ = np.histogramdd(states, bins=edges)
    return counts / (len(states) * _cell_volume(counts))


def default_bins(dimension):
    return {1: 64, 2: 32, 3: 16}[dimension]


def operator_evolve_density(block, psi0, t):
    """Propagate a top-form density by exp(-t H^(D)), computed by ``expm``.

    Scaling and squaring stays accurate on the non-normal, possibly
    defective generator, where an eigenbasis does not.  Probability mass
    must be conserved to 1e-10 (the top block annihilates kappa = 0).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    D = block.layout.dimension
    if psi0.degree != D:
        raise ValueError("density must be a top form")
    out = FormVector(D, block.layout, sla.expm(-t * block.dense) @ psi0.coeffs)
    m0, m1 = integrate_top(psi0), integrate_top(out)
    if abs(m1 - m0) > 1e-10 * max(1.0, abs(m0)):
        raise FloatingPointError(
            f"probability mass drifted from {m0} to {m1} under evolution"
        )
    return out


def density_bin_averages(psi, bins):
    """Exact bin averages of a top-form density on the histogram grid.

    Each wavevector axis of the top-channel coefficients is contracted
    with E[b, kappa] = exp(i kappa c_b) sinc(kappa h / 2 pi), the average
    of one mode over the bin of centre c_b and width h: no grid bias.
    """
    layout = psi.layout
    D, N = layout.dimension, layout.truncation
    h = TWO_PI / bins
    centers = (np.arange(bins) + 0.5) * h
    kappa = np.arange(-N, N + 1)
    E = np.exp(1j * np.outer(centers, kappa)) * np.sinc(kappa * h / TWO_PI)
    out = psi.component(tuple(range(1, D + 1))).reshape((2 * N + 1,) * D)
    for _ in range(D):
        # contracts the leading wavevector axis and appends its bin axis
        out = np.tensordot(out, E, axes=([0], [1]))
    return out.real


def l1_distance(hist, density):
    """Integrated absolute difference of a histogram density and a density
    array on the histogram's grid."""
    return float(np.sum(np.abs(hist - density)) * _cell_volume(hist))


def induction_timestep_oracle(v, eta, b0, dt, steps):
    """Growth rate and frequency of the induction equation by time stepping.

    Advances the magnetic 2-form by Strang splitting: the diffusive part
    is applied exactly in Fourier space, the advective part -L_v with a
    classical RK4 stage.  The dominant continuous-time eigenvalue is then
    extracted from about 400 snapshots by a rank-6 dynamic mode
    decomposition; gamma = -Re and omega = |Im| of that eigenvalue.
    """
    layout = b0.layout
    if layout.dimension != 3:
        raise ValueError("the induction oracle runs on T^3 only")
    L = lie_matrices(v, layout)[2]
    modes = layout.modes()
    k2 = np.tile((modes ** 2).sum(axis=1), 3)
    half_diffusion = np.exp(-eta * k2 * dt / 2.0)
    stride = max(1, steps // 400)
    b = b0.coeffs.copy()
    b = b / np.linalg.norm(b)
    snap_vecs = [b.copy()]
    snap_logs = [0.0]
    log_norms = [0.0]
    scale = 0.0
    for n in range(steps):
        b = half_diffusion * b
        # RK4 on db/dt = -L b over one full step
        r1 = -(L @ b)
        r2 = -(L @ (b + 0.5 * dt * r1))
        r3 = -(L @ (b + 0.5 * dt * r2))
        r4 = -(L @ (b + dt * r3))
        b = b + (dt / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        b = half_diffusion * b
        nb = np.linalg.norm(b)
        if not np.isfinite(nb) or nb == 0.0:
            raise FloatingPointError(f"induction stepping diverged at step {n}")
        b = b / nb
        scale += np.log(nb)
        log_norms.append(scale)
        if (n + 1) % stride == 0:
            snap_vecs.append(b.copy())
            snap_logs.append(scale)
    # each DMD column pair is rescaled by the snapshot's own growth factor,
    # which keeps the pencil finite while preserving the one-stride ratios
    X = np.stack(snap_vecs[:-1], axis=1)
    Y = np.stack(
        [
            snap_vecs[i + 1] * np.exp(snap_logs[i + 1] - snap_logs[i])
            for i in range(len(snap_vecs) - 1)
        ],
        axis=1,
    )
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    r = min(6, int(np.sum(s > s[0] * 1e-12)))
    U, s, Vh = U[:, :r], s[:r], Vh[:r]
    A_red = U.conj().T @ Y @ Vh.conj().T / s
    mu = np.linalg.eigvals(A_red)
    lam = np.log(mu[np.argmax(np.abs(mu))]) / (stride * dt)
    # sanity: the raw log-norm slope over the second half cannot exceed the
    # fitted exponent by a wide margin without signaling instability
    half = len(log_norms) // 2
    ts = np.arange(half, len(log_norms)) * dt
    slope = np.polyfit(ts, np.array(log_norms[half:]), 1)[0]
    if slope > lam.real + max(0.5, 5 * abs(lam.real)):
        raise FloatingPointError("energy grows faster than the fitted exponent")
    return float(lam.real), float(abs(lam.imag))
