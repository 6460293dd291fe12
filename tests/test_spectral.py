"""Spectral pipeline: eigensolves, pairing, classification, observables."""

import numpy as np
import pytest
from scipy.special import iv

from sts.exterior import OperatorBlock
from sts.layout import BasisLayout
from sts.operators import SdeModel, kd_operator, seo_blocks, seo_time_reversed
from sts.spectral import (
    BROKEN_COMPLEX,
    BROKEN_REAL,
    INDETERMINATE,
    UNBROKEN,
    EigenSystem,
    Tolerances,
    adjoint_check,
    analyze,
    classify,
    convergence_masks,
    eigensolve,
    expectation,
    ground_state,
    hausdorff_distance,
    isospectral_check,
    pairing_check,
    partition_function,
    partition_slope,
    targeted_eigenpair,
    witten_index,
    zero_modes,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model, shear_model

TOL = Tolerances()


def diag_block(values, layout=None):
    import scipy.sparse as sp

    layout = layout or BasisLayout(1, (len(values) - 1) // 2)
    return OperatorBlock(0, 0, layout, sp.diags(np.asarray(values, complex)).tocsr())


def fake_system(values, degree=0, dimension=1):
    w = np.asarray(values, complex)
    order = np.lexsort((w.imag, w.real))
    return EigenSystem(
        degree, BasisLayout(dimension, 1), w[order],
        np.eye(len(w), dtype=complex), np.eye(len(w), dtype=complex),
    )


def test_eigensolve_diagonal():
    sys = eigensolve(diag_block([4.0, 0.0, 1.0, 3.0, 2.0]))
    assert np.allclose(sys.eigenvalues, [0, 1, 2, 3, 4])
    assert sys.residual < 1e-12
    # phase gauge: largest entry real positive
    assert np.allclose(sys.right.max(axis=0), 1.0)


def test_eigensolve_reconstructs_random_matrix():
    rng = np.random.default_rng(7)
    import scipy.sparse as sp

    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    block = OperatorBlock(0, 0, BasisLayout(1, 3), sp.csr_matrix(A))
    sys = eigensolve(block)
    recon = sys.right @ np.diag(sys.eigenvalues) @ sys.left
    assert np.abs(recon - A).max() < 1e-9
    assert np.abs(sys.left @ sys.right - np.eye(7)).max() < 1e-10


def test_eigensolve_vectorless():
    sys = eigensolve(diag_block([2.0, 1.0, 0.0]), vectors=False)
    assert not sys.has_vectors
    assert np.allclose(sys.eigenvalues, [0, 1, 2])


def free_diffusion_systems(N=2, theta=1.0):
    lay = BasisLayout(1, N)
    blocks = seo_blocks(
        SdeModel(lay, FlowField.zero(1), identity_frame(1), theta)
    )
    return blocks, [eigensolve(b) for b in blocks]


def test_zero_modes_match_betti():
    _, systems = free_diffusion_systems()
    zm = zero_modes(systems, TOL)
    assert zm["counts"] == [1, 1]
    assert zm["match"]

    lay = BasisLayout(2, 2)
    blocks = seo_blocks(SdeModel(lay, FlowField.zero(2), identity_frame(2), 1.0))
    zm = zero_modes([eigensolve(b) for b in blocks], TOL)
    assert zm["counts"] == [1, 2, 1]


def test_witten_index_cancels():
    _, systems = free_diffusion_systems()
    for w in witten_index(systems, [0.1, 1.0, 10.0]):
        assert abs(w) < 1e-12


def test_partition_function_free_diffusion():
    # T^1 at N = 2: both degrees carry spectrum {0, 1, 1, 4, 4}
    _, systems = free_diffusion_systems()
    for t in (0.3, 1.0, 2.5):
        (z,) = partition_function(systems, [t])
        expect = 2.0 * (1.0 + 2.0 * np.exp(-t) + 2.0 * np.exp(-4.0 * t))
        assert abs(z - expect) < 1e-12


def test_partition_slope_recovers_ground_rate():
    systems = [
        fake_system([-0.3, 0.0, 1.0, 2.0]),
        fake_system([1.0, 2.0, 5.0], degree=1),
    ]
    slope, (t0, t1) = partition_slope(systems, -0.3 + 0j)
    assert t0 == pytest.approx(10.0)
    # the zero mode contaminates the fit window slightly
    assert slope == pytest.approx(0.3, rel=2e-2)


def test_pairing_check_langevin():
    blocks = seo_blocks(langevin_cos_model())
    systems = [eigensolve(b) for b in blocks]
    res = pairing_check(systems, TOL, blocks=blocks)
    assert res["violations"] == []
    assert len(res["partners"]) > 0
    assert res["even_odd_distance"] < 1e-8


def test_hausdorff_distance():
    assert hausdorff_distance([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert hausdorff_distance([0.0], [3.0, 0.0]) == pytest.approx(3.0)
    assert hausdorff_distance([], []) == 0.0
    assert hausdorff_distance([1.0], []) == float("inf")


def test_classify_unbroken():
    systems = [fake_system([0.0, 1.0, 2.0]), fake_system([1.0, 2.0], degree=1)]
    assert classify(systems, TOL) == UNBROKEN


def test_classify_broken_real():
    systems = [fake_system([-0.5, 0.0, 1.0]), fake_system([-0.5, 1.0], degree=1)]
    assert classify(systems, TOL) == BROKEN_REAL


def test_classify_broken_complex_needs_conjugate_partner():
    pair = [fake_system([-0.2 + 0.7j, -0.2 - 0.7j, 0.0, 1.0])]
    assert classify(pair, TOL) == BROKEN_COMPLEX
    lone = [fake_system([-0.2 + 0.7j, 0.0, 1.0])]
    assert classify(lone, TOL) == INDETERMINATE


def test_classify_uses_converged_eigenvalues_only():
    systems = [fake_system([-0.5, 0.0, 1.0])]
    masks = [np.array([False, True, True])]
    assert classify(systems, TOL, masks) == UNBROKEN
    assert classify(systems, TOL, [np.zeros(3, bool)]) == INDETERMINATE


def test_ground_state_tie_breaking():
    systems = [
        fake_system([-1.0 + 2.0j, -1.0 - 2.0j, -1.0 + 0.5j, -1.0 - 0.5j, 0.0]),
    ]
    g = ground_state(systems, TOL)
    # smallest |Im| pool, then the negative-imaginary member
    assert g["energy"] == pytest.approx(-1.0 - 0.5j)

    systems = [
        fake_system([-1.0, 0.0], degree=0),
        fake_system([-1.0, 1.0], degree=1),
    ]
    g = ground_state(systems, TOL)
    assert g["degree"] == 1  # highest degree wins among exact ties


def test_ground_state_needs_candidates():
    systems = [fake_system([0.0, 1.0])]
    with pytest.raises(ValueError):
        ground_state(systems, TOL, [np.zeros(2, bool)])


def test_isospectral_time_reversal():
    for m in [multiplicative_model(), shear_model()]:
        H = seo_blocks(m)
        HT = seo_time_reversed(m)
        sys_h = [eigensolve(b, vectors=False) for b in H]
        sys_t = [eigensolve(b, vectors=False) for b in HT]
        assert max(isospectral_check(sys_h, sys_t)) < 1e-8


def test_adjoint_identity():
    for m in [langevin_cos_model(BasisLayout(1, 8)), shear_model()]:
        H = seo_blocks(m)
        HT = seo_time_reversed(m)
        assert max(adjoint_check(H, HT)) < 1e-12


def test_gibbs_weight_toeplitz_metric_oracle():
    # stationary density of dx = sin(x) dt + sqrt(2 theta) dW is
    # rho ~ exp(-cos(x)/theta), so the Toeplitz matrix of Fourier
    # coefficients I_k(1/theta) must intertwine H-dagger with H away
    # from the truncation boundary
    theta = 0.5
    lay = BasisLayout(1, 16)
    m = SdeModel(lay, FlowField([TrigField.sin(1, 0)]), identity_frame(1), theta)
    A = seo_blocks(m)[0].dense
    modes = lay.modes()[:, 0]
    eta = np.array([[iv(ki - kj, 1.0 / theta) for kj in modes] for ki in modes])
    R = A.conj().T @ eta - eta @ A
    inner = np.abs(modes) <= 10
    assert np.abs(R[np.ix_(inner, inner)]).max() < 1e-12


def test_expectation_matches_gibbs_average():
    theta = 0.5
    blocks = seo_blocks(langevin_cos_model(theta=theta))
    systems = [eigensolve(b) for b in blocks]
    g = ground_state(systems, TOL)
    assert g["degree"] == 1 and abs(g["energy"]) < 1e-12
    val, imag = expectation(TrigField.cos(1, 0), g, systems)
    oracle = -iv(1, 1.0 / theta) / iv(0, 1.0 / theta)
    assert abs(val - oracle) < 1e-10
    assert imag < 1e-10


def test_expectation_refuses_a_vectorless_system():
    blocks = seo_blocks(langevin_cos_model(BasisLayout(1, 8)))
    systems = [eigensolve(b, vectors=False) for b in blocks]
    g = ground_state(systems, TOL)
    with pytest.raises(ValueError):
        expectation(TrigField.cos(1, 0), g, systems)


def test_targeted_eigenpair_matches_dense():
    # U = cos x + 0.25 cos 2x has no symmetry pairing up eigenvalues, so
    # the targeted one is simple
    m = SdeModel(
        BasisLayout(1, 16),
        FlowField([TrigField.sin(1, 0) + TrigField.sin(1, 0, 0.5, 2)]),
        identity_frame(1), 0.5,
    )
    blocks = seo_blocks(m)
    A = blocks[0].dense
    w = np.sort(np.linalg.eigvals(A).real)
    sigma = w[3] + 0.01
    pair = targeted_eigenpair(blocks[0], sigma)
    assert abs(pair["energy"] - w[3]) < 1e-9
    r = pair["right"]
    assert np.linalg.norm(A @ r - pair["energy"] * r) < 1e-8 * np.linalg.norm(r)
    assert abs(pair["left"] @ r - 1.0) < 1e-10


def test_targeted_eigenpair_refuses_a_degenerate_target():
    # every nonzero degree-0 eigenvalue of the cos-potential Langevin
    # model is double; its left and right vectors are then arbitrary
    blocks = seo_blocks(langevin_cos_model(BasisLayout(1, 8)))
    w = eigensolve(blocks[0]).eigenvalues
    assert abs(w[1] - w[2]) < 1e-12
    with pytest.raises(ValueError):
        targeted_eigenpair(blocks[0], w[1])


def test_convergence_masks_flag_low_modes():
    def builder(lay):
        return seo_blocks(langevin_cos_model(lay))

    blocks = builder(BasisLayout(1, 12))
    systems = [eigensolve(b) for b in blocks]
    masks = convergence_masks(systems, builder, TOL)
    for k, s in enumerate(systems):
        low = np.argsort(s.eigenvalues.real)[:8]
        assert masks[k][low].all()


def test_analyze_langevin_report():
    def builder(lay):
        return seo_blocks(langevin_cos_model(lay))

    rep = analyze(builder(BasisLayout(1, 12)), builder=builder)
    assert rep.classification == UNBROKEN
    assert rep.zero_mode_summary["match"]
    assert rep.pairing["violations"] == []
    assert max(abs(w) for w in rep.witten_samples) < 1e-10
    assert rep.ground["degree"] == 1
    d = rep.to_dict()
    assert d["classification"] == UNBROKEN
    assert d["spectra"][0][0]["converged"] in (True, False)


def test_analyze_without_vectors_skips_pairing():
    # 3-D blocks are solved for eigenvalues only
    blocks = kd_operator(FlowField.zero(3), 0.5, BasisLayout(3, 1))
    rep = analyze(blocks)
    assert not any(s.has_vectors for s in rep.systems)
    assert rep.pairing is None
    assert rep.classification == UNBROKEN


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_zero=0.0)
