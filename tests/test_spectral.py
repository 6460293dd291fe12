"""Spectral pipeline: eigensolves, pairing, classification, observables."""

import numpy as np
import pytest
from scipy.special import iv

from sts.exterior import OperatorBlock
from sts.layout import BasisLayout
from sts.operators import SdeModel, kd_operator, seo_alpha, seo_time_reversed
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
    report,
    targeted_eigenpair,
    witten_index,
    zero_modes,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model, shear_model

TOL = Tolerances()


def real_block(R, layout=None):
    """Degree-0 block U R U^H of a real matrix R in the cos/sin basis U."""
    import scipy.sparse as sp

    layout = layout or BasisLayout(1, (len(R) - 1) // 2)
    U = layout.real_basis(0)
    return OperatorBlock(0, 0, layout, U @ sp.csr_matrix(R) @ U.conj().T)


def fake_system(values, degree=0, dimension=1):
    w = np.asarray(values, complex)
    order = np.lexsort((w.imag, w.real))
    return EigenSystem(
        degree, BasisLayout(dimension, 1), w[order], np.eye(len(w), dtype=complex),
    )


def test_eigensolve_diagonal():
    sys = eigensolve(real_block(np.diag([4.0, 0.0, 1.0, 3.0, 2.0])))
    assert np.allclose(sys.eigenvalues, [0, 1, 2, 3, 4])
    # phase gauge: largest entry real positive
    V = sys.right
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    assert np.all(top.imag == 0) and np.all(top.real > 0)


def test_eigensolve_falls_back_to_schur_on_a_jordan_block():
    import scipy.sparse as sp

    layout = BasisLayout(1, 1)
    jordan = np.array([[1, 1, 0], [0, 1, 0], [0, 0, -1]], float)
    blocks = [real_block(jordan, layout),
              OperatorBlock(1, 1, layout, sp.diags([2.0 + 0j, -1.0, 2.0]).tocsr())]
    sys = eigensolve(blocks[0])
    assert sys.near_defective and not sys.has_vectors
    assert np.allclose(sys.eigenvalues, [-1, 1, 1])  # sorted by (Re, Im)
    systems = analyze(blocks)
    payload = report(systems, pairing_check(systems, TOL, blocks=blocks),
                     TOL, [1.0])
    assert payload["near_defective"]
    assert payload["pairing_violations"] is None


def test_eigensolve_reconstructs_random_matrix():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((7, 7))
    block = real_block(A, BasisLayout(1, 3))
    sys = eigensolve(block)
    recon = sys.right @ np.diag(sys.eigenvalues) @ np.linalg.inv(sys.right)
    assert np.abs(recon - block.dense).max() < 1e-9


def test_eigensolve_refuses_a_block_that_is_not_real():
    # a block of a complex field: no cos/sin basis makes it real
    import scipy.sparse as sp

    rng = np.random.default_rng(7)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    block = OperatorBlock(0, 0, BasisLayout(1, 3), sp.csr_matrix(A))
    for vectors in (True, False):
        with pytest.raises(ValueError, match="not real"):
            eigensolve(block, vectors=vectors)


def test_eigensolve_vectorless():
    sys = eigensolve(real_block(np.diag([2.0, 1.0, 0.0])), vectors=False)
    assert not sys.has_vectors
    assert np.allclose(sys.eigenvalues, [0, 1, 2])


def free_diffusion_systems(N=2, theta=1.0):
    lay = BasisLayout(1, N)
    blocks = seo_alpha(
        SdeModel(lay, FlowField.zero(1), identity_frame(1), theta)
    )
    return blocks, [eigensolve(b) for b in blocks]


def test_zero_modes_match_betti():
    _, systems = free_diffusion_systems()
    zm = zero_modes(systems, TOL)
    assert zm["counts"] == [1, 1]
    assert zm["match"]

    lay = BasisLayout(2, 2)
    blocks = seo_alpha(SdeModel(lay, FlowField.zero(2), identity_frame(2), 1.0))
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
    slope = partition_slope(systems, -0.3 + 0j)
    # the zero mode contaminates the fit window slightly
    assert slope == pytest.approx(0.3, rel=2e-2)


def test_pairing_check_langevin():
    blocks = seo_alpha(langevin_cos_model())
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


def test_classify_uses_converged_eigenvalues_only():
    systems = [fake_system([-0.5, 0.0, 1.0])]
    systems[0].converged = np.array([False, True, True])
    assert classify(systems, TOL) == UNBROKEN
    systems[0].converged = np.zeros(3, bool)
    assert classify(systems, TOL) == INDETERMINATE


def test_classification_agrees_with_the_ground_state():
    # -1 - 1e-9 +- 0.5i lies within the zero threshold of -1 in real part,
    # so the ground state is the real -1 and the verdict is broken-real
    systems = [fake_system([-1.0 - 1e-9 + 0.5j, -1.0 - 1e-9 - 0.5j, -1.0, 0.0, 1.0])]
    assert ground_state(systems, TOL)["energy"] == -1.0
    assert classify(systems, TOL) == BROKEN_REAL


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
    systems[0].converged[:] = False
    with pytest.raises(ValueError):
        ground_state(systems, TOL)


def test_isospectral_time_reversal():
    for m in [multiplicative_model(), shear_model()]:
        H = seo_alpha(m)
        HT = seo_time_reversed(m)
        sys_h = [eigensolve(b, vectors=False) for b in H]
        sys_t = [eigensolve(b, vectors=False) for b in HT]
        assert max(isospectral_check(sys_h, sys_t)) < 1e-8


def test_adjoint_identity():
    for m in [langevin_cos_model(BasisLayout(1, 8)), shear_model()]:
        H = seo_alpha(m)
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
    A = seo_alpha(m)[0].dense
    modes = lay.modes()[:, 0]
    eta = np.array([[iv(ki - kj, 1.0 / theta) for kj in modes] for ki in modes])
    R = A.conj().T @ eta - eta @ A
    inner = np.abs(modes) <= 10
    assert np.abs(R[np.ix_(inner, inner)]).max() < 1e-12


def test_expectation_matches_gibbs_average():
    theta = 0.5
    blocks = seo_alpha(langevin_cos_model(theta=theta))
    systems = [eigensolve(b) for b in blocks]
    g = ground_state(systems, TOL)
    assert g["degree"] == 1 and abs(g["energy"]) < 1e-12
    val, imag = expectation(TrigField.cos(1, 0), g, systems)
    oracle = -iv(1, 1.0 / theta) / iv(0, 1.0 / theta)
    assert abs(val - oracle) < 1e-10
    assert imag < 1e-10


def test_expectation_refuses_a_vectorless_system():
    blocks = seo_alpha(langevin_cos_model(BasisLayout(1, 8)))
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
    blocks = seo_alpha(m)
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
    blocks = seo_alpha(langevin_cos_model(BasisLayout(1, 8)))
    w = eigensolve(blocks[0]).eigenvalues
    assert abs(w[1] - w[2]) < 1e-12
    with pytest.raises(ValueError):
        targeted_eigenpair(blocks[0], w[1])


def test_convergence_masks_flag_low_modes():
    def builder(lay):
        return seo_alpha(langevin_cos_model(lay))

    blocks = builder(BasisLayout(1, 12))
    systems = [eigensolve(b) for b in blocks]
    masks = convergence_masks(systems, builder, TOL)
    for k, s in enumerate(systems):
        low = np.argsort(s.eigenvalues.real)[:8]
        assert masks[k][low].all()


def test_analyze_langevin_report():
    def builder(lay):
        return seo_alpha(langevin_cos_model(lay))

    blocks = builder(BasisLayout(1, 12))
    systems = analyze(blocks, builder=builder)
    assert all(s.has_vectors for s in systems)
    pairing = pairing_check(systems, TOL, blocks=blocks)
    payload = report(systems, pairing, TOL, [0.1, 1.0, 10.0])
    assert payload["classification"] == UNBROKEN
    assert payload["zero_modes"]["match"]
    assert payload["pairing_violations"] == 0
    assert max(abs(complex(*w)) for w in payload["witten"]["w"]) < 1e-10
    assert payload["ground"]["degree"] == 1
    assert payload["partition"]["slope"] is None
    converged = [r["converged"] for rows in payload["spectra"] for r in rows]
    assert converged == [bool(c) for s in systems for c in s.converged]
    assert not all(converged)
    # the verdict alone needs no vectors and reads the same eigenvalues
    bare = analyze(blocks, builder=builder, vectors=False)
    assert not any(s.has_vectors for s in bare)
    assert classify(bare, TOL) == UNBROKEN
    assert ground_state(bare, TOL)["degree"] == 1


def test_analyze_without_vectors_skips_pairing():
    # 3-D blocks are solved for eigenvalues only
    blocks = kd_operator(FlowField.zero(3), 0.5, BasisLayout(3, 1))
    systems = analyze(blocks)
    assert not any(s.has_vectors for s in systems)
    pairing = pairing_check(systems, TOL, blocks=blocks)
    assert pairing["partners"] is None
    assert pairing["violations"] is None
    # pure diffusion pairs exactly: only the multiset comparison is left
    assert pairing["even_odd_distance"] < 1e-12
    payload = report(systems, pairing, TOL, [1.0])
    assert payload["even_odd_distance"] == pairing["even_odd_distance"]
    assert payload["pairing_violations"] is None
    assert payload["classification"] == UNBROKEN


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_zero=0.0)
