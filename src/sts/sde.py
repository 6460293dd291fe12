"""Direct simulation of the stochastic flow and density cross-checks.

Trajectories are integrated on the torus with a Heun predictor-corrector
(Stratonovich limit) or Euler-Maruyama (Ito limit); fields along
trajectories are evaluated by ``TrigField.evaluate`` as real cos/sin
sums over one half-space of wavevectors (each +-kappa pair folded once
per field), which is exact for the band-limited fields used everywhere
in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exterior import integrate_top
from .layout import FormVector

TWO_PI = 2.0 * np.pi


@dataclass
class EnsembleDensity:
    """Normalized histogram density over a regular grid on the torus."""

    counts: np.ndarray
    samples: int
    bins: int

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("empty ensemble")

    @property
    def cell_volume(self):
        D = self.counts.ndim
        return (TWO_PI / self.bins) ** D

    @property
    def density(self):
        return self.counts / (self.samples * self.cell_volume)

    def total_mass(self):
        return float(self.density.sum() * self.cell_volume)


def _increment(model, x, dt, dw, sqrt2theta):
    """F(x) dt + sqrt(2 theta) sum_a e_a(x) dW_a, vectorized over x rows."""
    out = model.drift.evaluate(x) * dt
    for a, e in enumerate(model.noise):
        out += sqrt2theta * e.evaluate(x) * dw[..., a : a + 1]
    return out


def max_stable_dt(model):
    """Conservative step bound 0.1 / (max |F| + theta * max noise gradient)."""
    scale = model.drift.max_abs()
    for e in model.noise:
        grad = max(
            e[i].diff(j).max_abs()
            for i in range(model.dimension)
            for j in range(model.dimension)
        )
        scale += model.theta * max(grad, e.max_abs())
    return 0.1 / max(scale, 1e-12)


def _check_dt(model, dt):
    if dt <= 0:
        raise ValueError("time step must be positive")
    if dt > max_stable_dt(model) * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt} exceeds the stability bound {max_stable_dt(model):.3g}"
        )


def ensemble_states(model, n_traj, dt, steps, rng, scheme="heun", x0=None):
    """Final states of n_traj independent trajectories, shape (n_traj, D).

    Steps with the Heun predictor-corrector (``scheme="heun"``, which
    converges to the Stratonovich SDE) or Euler-Maruyama (``"euler"``,
    the Ito SDE), wrapping to [0, 2pi)^D after every step.  Paths start
    from uniform draws, or from the rows of ``x0`` when it is given.
    """
    _check_dt(model, dt)
    if x0 is None:
        x0 = rng.uniform(0.0, TWO_PI, size=(n_traj, model.dimension))
    x = np.array(x0, dtype=float)
    M = len(model.noise)
    s2t = np.sqrt(2.0 * model.theta)
    for n in range(steps):
        dw = rng.normal(0.0, np.sqrt(dt), size=(len(x), M))
        k1 = _increment(model, x, dt, dw, s2t)
        if scheme == "heun":
            k2 = _increment(model, x + k1, dt, dw, s2t)
            x = x + 0.5 * (k1 + k2)
        else:
            x = x + k1
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"integration diverged at step {n}")
        x = np.mod(x, TWO_PI)
    return x


def ensemble_density(states, bins):
    """Histogram density of an ensemble of states on the torus."""
    states = np.atleast_2d(states)
    if len(states) < 1:
        raise ValueError("empty ensemble")
    D = states.shape[-1]
    edges = [np.linspace(0.0, TWO_PI, bins + 1)] * D
    counts, _ = np.histogramdd(states, bins=edges)
    return EnsembleDensity(counts, len(states), bins)


def default_bins(dimension):
    return {1: 64, 2: 32, 3: 16}[dimension]


def operator_evolve_density(block, psi0, t):
    """Propagate a top-form density by exp(-t H^(D)).

    Uses the eigendecomposition when the eigenbasis is invertible, else a
    scaling-and-squaring matrix exponential.  Probability mass must be
    conserved to 1e-10 (the top block annihilates the kappa = 0 row).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    D = block.layout.dimension
    if psi0.degree != D:
        raise ValueError("density must be a top form")
    A = block.dense
    w, V = np.linalg.eig(A)
    if np.linalg.cond(V) < 1e10:
        coeffs = V @ (np.exp(-w * t) * np.linalg.solve(V, psi0.coeffs))
    else:
        coeffs = sla.expm(-t * A) @ psi0.coeffs
    out = FormVector(D, block.layout, coeffs)
    m0, m1 = integrate_top(psi0), integrate_top(out)
    if abs(m1 - m0) > 1e-10 * max(1.0, abs(m0)):
        raise FloatingPointError(
            f"probability mass drifted from {m0} to {m1} under evolution"
        )
    return out


def density_bin_averages(psi, bins):
    """Exact bin averages of a top-form density on the histogram grid.

    Integrates each Fourier mode analytically over every bin, so the
    comparison against a histogram has no grid-sampling bias.
    """
    layout = psi.layout
    D = layout.dimension
    top = tuple(range(1, D + 1))
    coeffs = psi.component(top)
    modes = layout.modes()
    h = TWO_PI / bins
    centers = (np.arange(bins) + 0.5) * h
    out = np.zeros((bins,) * D, dtype=complex)
    for c, kappa in zip(coeffs, modes):
        if c == 0:
            continue
        factor = np.ones((bins,) * D, dtype=complex)
        for axis in range(D):
            kj = kappa[axis]
            if kj == 0:
                axis_f = np.ones(bins, dtype=complex)
            else:
                axis_f = np.exp(1j * kj * centers) * (
                    2.0 * np.sin(kj * h / 2.0) / (kj * h)
                )
            shape = [1] * D
            shape[axis] = bins
            factor = factor * axis_f.reshape(shape)
        out += c * factor
    return out.real


def l1_distance(hist, density):
    """Integrated absolute difference of a histogram and a density array
    on the histogram's grid."""
    return float(np.sum(np.abs(hist.density - density)) * hist.cell_volume)


def induction_timestep_oracle(v, eta, b0, dt, steps):
    """Growth rate and frequency of the induction equation by time stepping.

    Advances the magnetic 2-form by Strang splitting: the diffusive part
    is applied exactly in Fourier space, the advective part -L_v with a
    classical RK4 stage.  The dominant continuous-time eigenvalue is then
    extracted from about 400 snapshots by a rank-6 dynamic mode
    decomposition; gamma = -Re and omega = |Im| of that eigenvalue.
    """
    from .operators import lie_matrix

    layout = b0.layout
    if layout.dimension != 3:
        raise ValueError("the induction oracle runs on T^3 only")
    L = lie_matrix(v, layout, 2).matrix.tocsr()
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
