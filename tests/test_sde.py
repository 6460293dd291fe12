"""Trajectory integration, densities, Lyapunov exponents, MC cross-checks."""

import numpy as np
import pytest
from scipy.special import iv

from sts.config import abc_field
from sts.layout import BasisLayout, FormVector
from sts.operators import SdeModel, seo_blocks
from sts.sde import (
    default_bins,
    density_bin_averages,
    ensemble_density,
    ensemble_states,
    induction_timestep_oracle,
    integrate_ito,
    integrate_stratonovich,
    l1_distance,
    lyapunov,
    max_stable_dt,
    mc_autocorrelation,
    mc_expectation,
    operator_evolve_density,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model

TWO_PI = 2.0 * np.pi


def test_trajectory_reruns_bit_identical():
    m = langevin_cos_model(BasisLayout(1, 4))
    t1 = integrate_stratonovich(m, [1.0], 0.05, 50, np.random.default_rng([3, 0]))
    t2 = integrate_stratonovich(m, [1.0], 0.05, 50, np.random.default_rng([3, 0]))
    assert np.array_equal(t1.states, t2.states)


def test_step_bound_enforced():
    m = langevin_cos_model(BasisLayout(1, 4))
    with pytest.raises(ValueError):
        integrate_stratonovich(m, [0.0], 10.0, 1, np.random.default_rng([0, 0]))
    with pytest.raises(ValueError):
        integrate_stratonovich(m, [0.0], -0.1, 1, np.random.default_rng([0, 0]))
    assert max_stable_dt(m) > 0


def test_pure_diffusion_variance():
    theta = 0.25
    m = SdeModel(BasisLayout(1, 2), FlowField.zero(1), identity_frame(1), theta)
    rng = np.random.default_rng([11, 0])
    x0 = np.full((8000, 1), np.pi)
    t, dt = 0.5, 0.05
    xs = ensemble_states(m, 8000, dt, int(t / dt), rng, x0=x0)
    disp = xs[:, 0] - np.pi  # no wrap events at 3+ sigma from the seam
    assert abs(disp.mean()) < 0.03
    assert disp.var() == pytest.approx(2.0 * theta * t, rel=0.08)


def test_deterministic_constant_drift_exact():
    m = SdeModel(BasisLayout(1, 2), FlowField.constant([0.7]), identity_frame(1), 0.0)
    traj = integrate_stratonovich(m, [1.0], 0.05, 40, np.random.default_rng([0, 0]))
    expect = np.mod(1.0 + 0.7 * traj.times, TWO_PI)
    assert np.abs(traj.states[:, 0] - expect).max() < 1e-12


def test_deterministic_heun_second_order():
    m = SdeModel(
        BasisLayout(1, 2), FlowField([TrigField.sin(1, 0)]), identity_frame(1), 0.0
    )
    rng = np.random.default_rng([0, 0])

    def endpoint(dt):
        return integrate_stratonovich(m, [1.0], dt, int(round(2.0 / dt)), rng).states[
            -1, 0
        ]

    ref = endpoint(0.0025)
    e1 = abs(endpoint(0.04) - ref)
    e2 = abs(endpoint(0.02) - ref)
    assert 3.0 < e1 / e2 < 5.0


def test_gibbs_stationary_histogram():
    theta = 0.5
    m = langevin_cos_model(BasisLayout(1, 4), theta=theta)
    rng = np.random.default_rng([5, 0])
    xs = ensemble_states(m, 4000, 0.05, 160, rng)
    hist = ensemble_density(xs, 32)
    assert hist.total_mass() == pytest.approx(1.0, abs=1e-12)
    edges = np.linspace(0.0, TWO_PI, 33)
    fine = np.linspace(0.0, TWO_PI, 32 * 200, endpoint=False)
    rho = np.exp(-np.cos(fine) / theta)
    rho /= rho.mean() * TWO_PI
    exact = rho.reshape(32, 200).mean(axis=1)
    assert l1_distance(hist, exact) < 0.12


def test_ito_vs_stratonovich_stationary_laws():
    # dx = sqrt(2 theta) e(x) dW with e = 1 + 0.5 cos x:
    # Stratonovich density ~ 1/e, Ito density ~ 1/e^2
    theta, eps, bins = 0.5, 0.5, 32
    m = multiplicative_model(BasisLayout(1, 4), theta=theta, eps=eps)
    fine = np.linspace(0.0, TWO_PI, bins * 200, endpoint=False)
    e = 1.0 + eps * np.cos(fine)

    def bin_avg(rho):
        rho = rho / (rho.mean() * TWO_PI)
        return rho.reshape(bins, 200).mean(axis=1)

    strat_oracle, ito_oracle = bin_avg(1.0 / e), bin_avg(1.0 / e ** 2)
    for scheme, own, other in [
        ("heun", strat_oracle, ito_oracle),
        ("euler", ito_oracle, strat_oracle),
    ]:
        rng = np.random.default_rng([9, 0])
        xs = ensemble_states(m, 6000, 0.02, 600, rng, scheme)
        hist = ensemble_density(xs, bins)
        assert l1_distance(hist, own) < 0.5 * l1_distance(hist, other)


def test_integrate_ito_and_stratonovich_agree_for_additive_noise():
    m = langevin_cos_model(BasisLayout(1, 4))
    a = integrate_ito(m, [2.0], 0.02, 50, np.random.default_rng([1, 0])).states
    b = integrate_stratonovich(m, [2.0], 0.02, 50, np.random.default_rng([1, 0])).states
    # same noise stream, additive noise: paths differ only at O(dt^2) drift
    assert np.abs(a - b).max() < 0.05


def test_operator_evolution_identity_mass_and_decay():
    theta = 1.0
    lay = BasisLayout(1, 4)
    blocks = seo_blocks(SdeModel(lay, FlowField.zero(1), identity_frame(1), theta))
    psi0 = FormVector.zero(1, lay)
    psi0.set_coefficient((1,), (0,), 1.0 / TWO_PI)
    psi0.set_coefficient((1,), (1,), 0.1)
    psi0.set_coefficient((1,), (-1,), 0.1)
    same = operator_evolve_density(blocks[1], psi0, 0.0)
    assert np.abs(same.coeffs - psi0.coeffs).max() < 1e-12
    out = operator_evolve_density(blocks[1], psi0, 3.0)
    # mode kappa = +-1 decays by e^{-theta t}
    assert out.coefficient((1,), (1,)) == pytest.approx(
        0.1 * np.exp(-3.0), rel=1e-10
    )
    assert out.coefficient((1,), (0,)) == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    with pytest.raises(ValueError):
        operator_evolve_density(blocks[1], psi0, -1.0)
    wrong = FormVector.zero(0, lay)
    with pytest.raises(ValueError):
        operator_evolve_density(blocks[1], wrong, 1.0)


def test_density_bin_averages_exact():
    lay = BasisLayout(1, 2)
    psi = FormVector.zero(1, lay)
    psi.set_coefficient((1,), (0,), 1.0)
    psi.set_coefficient((1,), (1,), 0.5)
    psi.set_coefficient((1,), (-1,), 0.5)
    bins = 8
    avg = density_bin_averages(psi, bins)
    h = TWO_PI / bins
    for b in range(bins):
        lo, hi = b * h, (b + 1) * h
        exact = (h + (np.sin(hi) - np.sin(lo))) / h
        assert avg[b] == pytest.approx(exact, abs=1e-12)


def test_default_bins():
    assert [default_bins(d) for d in (1, 2, 3)] == [64, 32, 16]


def test_lyapunov_stable_fixed_point():
    # F = sin x, deterministic: the attractor x = pi has multiplier -1
    m = SdeModel(
        BasisLayout(1, 2), FlowField([TrigField.sin(1, 0)]), identity_frame(1), 0.0
    )
    lam = lyapunov(m, [2.0], 0.02, 4000, np.random.default_rng([2, 0]))
    assert lam[0] == pytest.approx(-1.0, abs=0.05)


def test_lyapunov_constant_flow_zero():
    m = SdeModel(
        BasisLayout(1, 2), FlowField.constant([1.0]), identity_frame(1), 0.1
    )
    lam = lyapunov(m, [0.5], 0.05, 2000, np.random.default_rng([2, 1]))
    assert abs(lam[0]) < 1e-10


def test_lyapunov_volume_conservation_divergence_free():
    m = SdeModel(
        BasisLayout(2, 2),
        FlowField([TrigField.sin(2, 1), TrigField.sin(2, 0)]),
        identity_frame(2),
        0.05,
    )
    lam = lyapunov(m, [1.0, 2.0], 0.02, 4000, np.random.default_rng([7, 0]))
    assert abs(sum(lam)) < 0.02


def test_lyapunov_abc_chaotic():
    m = SdeModel(BasisLayout(3, 1), abc_field(1.0, 1.0, 1.0), identity_frame(3), 0.01)
    lam = lyapunov(m, [0.3, 1.1, 2.7], 0.02, 6000, np.random.default_rng([13, 0]))
    assert lam[0] > 0.01
    assert abs(sum(lam)) < 0.05


def test_mc_expectation_matches_gibbs():
    theta = 0.5
    m = langevin_cos_model(BasisLayout(1, 4), theta=theta)
    val, err = mc_expectation(
        m, TrigField.cos(1, 0), 300, 1200, np.random.default_rng([21, 0]), 0.05
    )
    oracle = -iv(1, 1.0 / theta) / iv(0, 1.0 / theta)
    assert err < 0.05
    assert abs(val - oracle) < max(5.0 * err, 0.05)


def test_mc_autocorrelation_matches_operator_correlator():
    theta = 0.7
    m = SdeModel(BasisLayout(1, 4), FlowField.zero(1), identity_frame(1), theta)
    lags = [0.0, 0.5, 1.0]
    got = mc_autocorrelation(
        m, TrigField.cos(1, 0), lags, 300, 1500, np.random.default_rng([30, 0]), 0.05
    )
    for lag, (val, err) in zip(lags, got):
        oracle = 0.5 * np.exp(-theta * lag)
        assert abs(val - oracle) < max(5.0 * err, 0.05)
    with pytest.raises(ValueError):
        mc_autocorrelation(
            m, TrigField.cos(1, 0), [0.033], 10, 10, np.random.default_rng([0, 0]), 0.05
        )


def test_induction_oracle_zero_flow_decays_at_eta():
    eta = 0.3
    lay = BasisLayout(3, 2)
    b0 = FormVector.zero(2, lay)
    b0.set_coefficient((1, 2), (0, 0, 1), 0.5)
    b0.set_coefficient((1, 2), (0, 0, -1), 0.5)
    b0.set_coefficient((2, 3), (2, 0, 0), 0.25)
    b0.set_coefficient((2, 3), (-2, 0, 0), 0.25)
    gamma, omega = induction_timestep_oracle(
        FlowField.zero(3), eta, b0, 0.02, 600
    )
    assert gamma == pytest.approx(-eta, rel=1e-6)
    assert omega < 1e-8


def test_induction_oracle_requires_3d():
    lay = BasisLayout(2, 2)
    b0 = FormVector.zero(2, lay)
    with pytest.raises(ValueError):
        induction_timestep_oracle(FlowField.zero(2), 0.1, b0, 0.02, 10)
