"""Trajectory integration, densities, operator evolution, the induction oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from sts.exterior import OperatorBlock
from sts.layout import BasisLayout, FormVector
from sts.operators import SdeModel, seo_alpha
from sts.sde import (
    default_bins,
    density_bin_averages,
    ensemble_density,
    ensemble_states,
    induction_timestep_oracle,
    l1_distance,
    max_stable_dt,
    operator_evolve_density,
)
from sts.spectral import eigensolve
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model, random_flow_model

TWO_PI = 2.0 * np.pi


def endpoint(m, x0, dt, steps, rng):
    """Final state of the single path from x0 (one row of ensemble_states)."""
    return ensemble_states(m, 1, dt, steps, rng, x0=[x0])[0]


def test_trajectory_reruns_bit_identical():
    m = langevin_cos_model(BasisLayout(1, 4))
    for steps in range(51):
        a = endpoint(m, [1.0], 0.05, steps, np.random.default_rng([3, 0]))
        b = endpoint(m, [1.0], 0.05, steps, np.random.default_rng([3, 0]))
        assert np.array_equal(a, b)


def test_step_bound_enforced():
    m = langevin_cos_model(BasisLayout(1, 4))
    with pytest.raises(ValueError):
        endpoint(m, [0.0], 10.0, 1, np.random.default_rng([0, 0]))
    with pytest.raises(ValueError):
        endpoint(m, [0.0], -0.1, 1, np.random.default_rng([0, 0]))
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
    for steps in range(41):
        x = endpoint(m, [1.0], 0.05, steps, np.random.default_rng([0, 0]))
        expect = np.mod(1.0 + 0.7 * (steps * 0.05), TWO_PI)
        assert abs(x[0] - expect) < 1e-12


def test_deterministic_heun_second_order():
    m = SdeModel(
        BasisLayout(1, 2), FlowField([TrigField.sin(1, 0)]), identity_frame(1), 0.0
    )
    rng = np.random.default_rng([0, 0])

    def final(dt):
        return endpoint(m, [1.0], dt, int(round(2.0 / dt)), rng)[0]

    ref = final(0.0025)
    e1 = abs(final(0.04) - ref)
    e2 = abs(final(0.02) - ref)
    assert 3.0 < e1 / e2 < 5.0


def test_gibbs_stationary_histogram():
    theta = 0.5
    m = langevin_cos_model(BasisLayout(1, 4), theta=theta)
    rng = np.random.default_rng([5, 0])
    xs = ensemble_states(m, 4000, 0.05, 160, rng)
    hist = ensemble_density(xs, 32)
    assert hist.sum() * TWO_PI / 32 == pytest.approx(1.0, abs=1e-12)
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
    fine = np.linspace(0.0, TWO_PI, bins * 200, endpoint=False)
    e = 1.0 + eps * np.cos(fine)

    def bin_avg(rho):
        rho = rho / (rho.mean() * TWO_PI)
        return rho.reshape(bins, 200).mean(axis=1)

    strat_oracle, ito_oracle = bin_avg(1.0 / e), bin_avg(1.0 / e ** 2)
    for alpha, own, other in [
        (0.5, strat_oracle, ito_oracle),
        (0.0, ito_oracle, strat_oracle),
    ]:
        m = multiplicative_model(BasisLayout(1, 4), theta=theta, eps=eps,
                                 alpha=alpha)
        rng = np.random.default_rng([9, 0])
        xs = ensemble_states(m, 6000, 0.02, 600, rng)
        hist = ensemble_density(xs, bins)
        assert l1_distance(hist, own) < 0.5 * l1_distance(hist, other)


def test_integrate_ito_and_stratonovich_agree_for_additive_noise():
    # additive noise has no interpretation shift: same noise stream, same path
    m = langevin_cos_model(BasisLayout(1, 4))
    for alpha in (0.0, 1.0):
        ma = SdeModel(m.layout, m.drift, m.noise, m.theta, alpha)
        for steps in range(51):
            a = endpoint(ma, [2.0], 0.02, steps, np.random.default_rng([1, 0]))
            b = endpoint(m, [2.0], 0.02, steps, np.random.default_rng([1, 0]))
            assert np.array_equal(a, b)


def test_operator_evolution_identity_mass_and_decay():
    theta = 1.0
    lay = BasisLayout(1, 4)
    blocks = seo_alpha(SdeModel(lay, FlowField.zero(1), identity_frame(1), theta))
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


def test_operator_evolution_matches_the_eigen_propagator():
    # a random 2-D flow's top block is non-normal and far from diagonal
    blocks = seo_alpha(random_flow_model(3))
    top = blocks[2]
    assert np.count_nonzero(top.dense - np.diag(np.diag(top.dense))) > 100
    psi0 = FormVector.zero(2, top.layout)
    psi0.set_coefficient((1, 2), (0, 0), 1.0 / TWO_PI ** 2)
    psi0.set_coefficient((1, 2), (1, -1), 0.02 + 0.01j)
    psi0.set_coefficient((1, 2), (-1, 1), 0.02 - 0.01j)
    sys = eigensolve(top)
    V, w = sys.right, sys.eigenvalues
    for t in (0.3, 1.0):
        expect = V @ (np.exp(-w * t) * np.linalg.solve(V, psi0.coeffs))
        got = operator_evolve_density(top, psi0, t).coeffs
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_operator_evolution_of_a_jordan_pair_conserves_mass():
    # the kappa = +-1 modes form one Jordan block of eigenvalue 0.5, which
    # has no eigenvector basis; exp(-tJ) = e^{-t/2} [[1, -t], [0, 1]]
    lay = BasisLayout(1, 1)
    A = np.zeros((3, 3))
    A[0, 0] = A[2, 2] = 0.5
    A[0, 2] = 1.0
    block = OperatorBlock(1, lay, sp.csr_matrix(A))
    psi0 = FormVector(1, lay, [0.1, 1.0 / TWO_PI, 0.1])
    t = 2.0
    out = operator_evolve_density(block, psi0, t)
    assert out.coeffs[1] == pytest.approx(1.0 / TWO_PI, rel=1e-14)
    decay = np.exp(-0.5 * t)
    assert out.coeffs[0] == pytest.approx(decay * (0.1 - t * 0.1), rel=1e-12)
    assert out.coeffs[2] == pytest.approx(decay * 0.1, rel=1e-12)


@pytest.mark.parametrize("kappa", [(2, -1), (1, 0, 2)])
def test_density_bin_averages_of_one_mode_per_axis(kappa):
    # a different wavevector on each axis catches transposed bin axes
    D, bins = len(kappa), 5
    lay = BasisLayout(D, 2)
    psi = FormVector.zero(D, lay)
    c = 0.3 - 0.4j
    psi.set_coefficient(tuple(range(1, D + 1)), kappa, c)
    avg = density_bin_averages(psi, bins)
    assert avg.shape == (bins,) * D
    h = TWO_PI / bins
    lo = np.arange(bins) * h
    per_axis = [
        np.ones(bins) if k == 0
        else (np.exp(1j * k * (lo + h)) - np.exp(1j * k * lo)) / (1j * k * h)
        for k in kappa
    ]
    exact = c * per_axis[0]
    for f in per_axis[1:]:
        exact = np.multiply.outer(exact, f)
    assert np.abs(avg - exact.real).max() < 1e-14


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
