"""Spectral pipeline: eigensolves, pairing, classification, observables."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import iv

from sts import spectral
from sts.config import abc_field
from sts.exterior import OperatorBlock, multiply_matrix
from sts.layout import BasisLayout
from sts.operators import (
    SdeModel,
    SeoBlocks,
    kd_operator,
    seo_alpha,
    seo_time_reversed,
)
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
    _drift_mask,
    _refined_near,
    _shift_targets,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model, shear_model

TOL = Tolerances()


def real_block(R, layout=None):
    """Degree-0 block U R U^H of a real matrix R in the cos/sin basis U."""
    layout = layout or BasisLayout(1, (len(R) - 1) // 2)
    U = layout.real_basis(0)
    return OperatorBlock(0, layout, U @ sp.csr_matrix(R) @ U.conj().T)


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
    layout = BasisLayout(1, 1)
    jordan = np.array([[1, 1, 0], [0, 1, 0], [0, 0, -1]], float)
    blocks = [real_block(jordan, layout),
              OperatorBlock(1, layout, sp.diags([2.0 + 0j, -1.0, 2.0]).tocsr())]
    sys = eigensolve(blocks[0])
    assert sys.near_defective and not sys.has_vectors
    assert np.allclose(sys.eigenvalues, [-1, 1, 1])  # sorted by (Re, Im)
    systems = [eigensolve(b) for b in blocks]
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
    rng = np.random.default_rng(7)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    block = OperatorBlock(0, BasisLayout(1, 3), sp.csr_matrix(A))
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
    # a small ground rate puts the fit window near t = 1e6
    systems[0] = fake_system([-5e-6, 0.0, 1.0, 2.0])
    assert partition_slope(systems, -5e-6 + 0j) == pytest.approx(5e-6, rel=2e-2)
    # there an eigenvalue growing faster than the ground, as an uncertified
    # one can, would overflow exp(-lambda t); Z(t) then grows at its rate
    systems[0] = fake_system([-0.3, -5e-6, 0.0, 1.0, 2.0])
    assert partition_slope(systems, -5e-6 + 0j) == pytest.approx(0.3, rel=2e-2)


def test_partition_slope_recovers_a_complex_ground_rate(abc_report):
    # the ABC window's ground is a resonance pair, so Z(t) oscillates as
    # cos(omega t): sampled in phase it still grows at -Re E_g, to AC12's 5 %
    _, _, payload = abc_report
    assert payload["classification"] == BROKEN_COMPLEX
    rate = -payload["ground"]["re"]
    assert payload["partition"]["slope"] == pytest.approx(rate, rel=0.05)


def test_pairing_check_langevin():
    blocks = seo_alpha(langevin_cos_model())
    systems = [eigensolve(b) for b in blocks]
    res = pairing_check(systems, TOL, blocks=blocks)
    assert res["violations"] == 0
    assert res["pairs"] > 0
    assert res["even_odd_distance"] < 1e-8


def bumped(operator, degree, amplitude):
    """Builder of ``operator(layout)`` with a cos x multiplication of
    ``amplitude`` added to its degree-``degree`` block: any nonzero
    amplitude breaks [d, H] = 0."""
    def builder(lay):
        H = operator(lay)
        bump = multiply_matrix(TrigField.cos(lay.dimension, 0, amplitude), lay,
                               degree)
        return SeoBlocks(
            tuple(OperatorBlock(k, lay, b.matrix + bump) if k == degree else b
                  for k, b in enumerate(H)),
            lay,
        )
    return builder


def bumped_shear(amplitude):
    """Builder of the guarded shear model bumped in its degree-1 block."""
    return bumped(lambda lay: seo_alpha(shear_model(lay)), 1, amplitude)


def full_dense_guard(systems, fine, tol):
    """The D <= 2 guard as a dense solve of every refined block of
    ``fine``, which need not commute with d."""
    return [
        _drift_mask(s.eigenvalues, spectral._real_eig(fine[k], vectors=False)[0],
                    tol.tol_converge)
        for k, s in enumerate(systems)
    ]


@pytest.mark.parametrize("amplitude", [0.0, 0.3])
def test_pairing_check_counts_violations(amplitude):
    # the bump breaks [d, H] = 0, so states lose their partners; every
    # certified nonzero state is counted.  The 2-D guard refuses such an
    # operator, so the systems are certified by a dense solve of each
    # refined block
    builder = bumped_shear(amplitude)
    blocks = builder(BasisLayout(2, 3))
    systems = [eigensolve(b) for b in blocks]
    fine = builder(blocks.layout.refined())
    for s, mask in zip(systems, full_dense_guard(systems, fine, TOL)):
        s.converged = mask
    res = pairing_check(systems, TOL, blocks=blocks)
    thr = spectral.zero_threshold(systems, TOL)
    states = sum(int(np.sum(s.converged & (np.abs(s.eigenvalues) > thr)))
                 for s in systems)
    assert states > 0
    assert res["pairs"] + res["violations"] == states
    assert (res["violations"] > 0) == bool(amplitude)
    assert (res["pairs"], res["violations"]) == ((0, 34) if amplitude else (40, 0))


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
    masks = convergence_masks(systems, builder, TOL, blocks)
    for k, s in enumerate(systems):
        low = np.argsort(s.eigenvalues.real)[:8]
        assert masks[k][low].all()


def full_block_guard(systems, fine, tol):
    """The guard as one shift-invert of each full refined block per target:
    the 12 lowest distinct eigenvalues of each degree, k = 6 eigenvalues
    each, a complex solve at sigma + 1e-7j."""
    masks = []
    for k, s in enumerate(systems):
        A = sp.csc_matrix(fine[k].matrix, dtype=complex)
        ref = []
        for sigma in _shift_targets(s.eigenvalues, 12):
            try:
                ref.extend(spla.eigs(A, k=6, sigma=complex(sigma) + 1e-7j,
                                     which="LM", return_eigenvectors=False))
            except (spla.ArpackNoConvergence, RuntimeError):
                continue
        mask = np.zeros(s.size, bool)
        if ref:
            mask[:48] = _drift_mask(s.eigenvalues[:48], np.asarray(ref),
                                    tol.tol_converge)
        masks.append(mask)
    return masks


def test_3d_guard_matches_the_full_block_guard():
    # the dynamo benchmark config and the Roberts flow: shift-inverting the
    # d-exact subspaces of the refined operator certifies exactly what
    # shift-inverting each full refined block does
    tol = Tolerances(tol_converge=1e-2)
    for flow, eta, counts in [(abc_field(1.0, 1.0, 1.0), 0.08, [4, 10, 10, 4]),
                              (abc_field(1.0, 1.0, 0.0), 0.1, [3, 11, 11, 3])]:

        def builder(lay):
            return kd_operator(flow, eta, lay)

        blocks = builder(BasisLayout(3, 2))
        systems = [eigensolve(b, vectors=False) for b in blocks]
        masks = convergence_masks(systems, builder, tol, blocks)
        reference = full_block_guard(systems, builder(blocks.layout.refined()), tol)
        for k in range(4):
            assert np.array_equal(masks[k], reference[k]), (eta, k)
        assert [int(m.sum()) for m in masks] == counts


@pytest.fixture
def eigs_shifts(monkeypatch):
    """The shift of every sparse eigs call the test makes from here on."""
    shifts = []
    eigs = spla.eigs

    def counted(*args, **kwargs):
        shifts.append(kwargs["sigma"])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigs", counted)
    return shifts


def test_3d_guard_solves_a_conjugate_pair_of_targets_once(eigs_shifts):
    # the dynamo benchmark config: 14 of the 36 shift targets are the
    # conjugate of an earlier one
    def builder(lay):
        return kd_operator(abc_field(1.0, 1.0, 1.0), 0.08, lay)

    blocks = builder(BasisLayout(3, 2))
    systems = [eigensolve(b, vectors=False) for b in blocks]
    convergence_masks(systems, builder, Tolerances(tol_converge=1e-2), blocks)
    assert len(eigs_shifts) == 22


def test_refined_near_mirrors_the_conjugate_target(eigs_shifts):
    # a real sparse matrix and three conjugate pairs of targets: three
    # solves, and a conjugation-closed set of what six would find
    rng = np.random.default_rng(7)
    A = sp.random(300, 300, density=0.03, random_state=rng, format="csc")
    A = A + sp.diags(rng.uniform(0.0, 3.0, 300))
    w = np.linalg.eigvals(A.toarray())
    upper = w[w.imag > 0.1]
    pairs = upper[np.argsort(upper.real)][:3]
    targets = [t for lam in pairs for t in (lam + 0.01, np.conj(lam) + 0.01)]
    C = sp.csc_matrix(A, dtype=complex)
    reference = np.concatenate([
        spla.eigs(C, k=6, sigma=complex(t) + 1e-7j, which="LM",
                  return_eigenvectors=False)
        for t in targets
    ])
    eigs_shifts.clear()
    found = _refined_near(A, targets)
    assert len(eigs_shifts) == 3
    assert np.array_equal(np.sort_complex(found), np.sort_complex(np.conj(found)))
    assert hausdorff_distance(found, reference) <= 1e-12


def test_guard_factors_each_shift_with_half_the_default_fill(monkeypatch):
    # the dynamo benchmark config: every guard shift of each refined R_j is
    # factored with at most 0.6 of the L + U nonzeros of splu's default
    # COLAMD ordering, and solves to a backward error of roundoff
    factored = []
    splu = spla.splu

    def recorded(M, *args, **kwargs):
        lu = splu(M, *args, **kwargs)
        factored.append((M, lu))
        return lu

    monkeypatch.setattr(spectral.spla, "splu", recorded)

    def builder(lay):
        return kd_operator(abc_field(1.0, 1.0, 1.0), 0.08, lay)

    blocks = builder(BasisLayout(3, 2))
    systems = [eigensolve(b, vectors=False) for b in blocks]
    convergence_masks(systems, builder, Tolerances(tol_converge=1e-2), blocks)
    assert len(factored) == 22
    rng = np.random.default_rng(3)
    for M, lu in factored:
        default = splu(M)
        assert (lu.L.nnz + lu.U.nnz
                <= 0.6 * (default.L.nnz + default.U.nnz))
        b = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
        x = lu.solve(b)
        backward = (np.linalg.norm(M @ x - b)
                    / (spla.norm(M, 1) * np.linalg.norm(x)))
        assert backward <= 1e-14


def test_refined_near_finds_nothing_at_an_exactly_singular_shift():
    # 5 - 1e-7j plus the 1e-7j offset is the exact eigenvalue 5: the
    # factorization fails there, and only that target goes empty
    A = sp.diags(np.arange(1.0, 61.0), format="csc")
    assert len(_refined_near(A, [5 - 1e-7j])) == 0
    found = _refined_near(A, [10.2, 5 - 1e-7j, 40.2])
    expected = np.concatenate([np.arange(8.0, 14.0), np.arange(38.0, 44.0)])
    assert np.allclose(np.sort(found.real), expected, rtol=0, atol=1e-10)
    assert np.abs(found.imag).max() <= 1e-10


@pytest.mark.parametrize("D,degree", [(2, 1), (3, 2), (3, 0)])
def test_guard_refuses_an_operator_that_does_not_commute_with_d(D, degree):
    # the guard's split of spec H^(k) into spec R_(k-1), Betti zeros and
    # spec R_k holds only for an operator that commutes with d.  A degree-0
    # bump leaves every im d^j invariant under the untouched H^(j+1), yet
    # spec H^(0) is no longer that of R_0 and a zero
    if D == 2:
        builder, layout, tol = bumped_shear(0.3), BasisLayout(2, 3), TOL
    else:
        builder = bumped(
            lambda lay: kd_operator(abc_field(1.0, 1.0, 1.0), 0.3, lay),
            degree, 1.0)
        layout, tol = BasisLayout(3, 1), Tolerances(tol_converge=1e-2)
    with pytest.raises(ValueError, match="commute with d"):
        analyze(builder(layout), builder, tol)


@pytest.fixture
def real_eig_degrees(monkeypatch):
    """The degree of every block the test solves densely from here on."""
    degrees = []
    real_eig = spectral._real_eig

    def counted(block, vectors):
        degrees.append(block.k_in)
        return real_eig(block, vectors)

    monkeypatch.setattr(spectral, "_real_eig", counted)
    return degrees


def random2d_builder(seed, theta):
    """Builder of the 2-D `random` preset at its defaults: bandwidth 1,
    amplitude 0.5."""
    rng = np.random.default_rng(seed)
    flow = FlowField([TrigField.random(2, 1, rng, 0.5) for _ in range(2)])
    return lambda lay: seo_alpha(SdeModel(lay, flow, identity_frame(2), theta))


def test_2d_guard_matches_the_full_dense_guard(real_eig_degrees):
    # the union of the refined degree-0 and degree-2 spectra certifies
    # exactly what a dense solve of the refined degree-1 block does; at
    # the default tolerance the random flows certify only their zero
    # modes, at 1e-2 also nonzero eigenvalues of every degree
    cases = [(random2d_builder(seed, theta), 4)
             for seed in (7, 4) for theta in (0.05, 0.5, 1.0)]
    cases.append((lambda lay: seo_alpha(shear_model(lay)), 3))
    for tol in (TOL, Tolerances(tol_converge=1e-2)):
        for i, (builder, n) in enumerate(cases):
            blocks = builder(BasisLayout(2, n))
            systems = [eigensolve(b, vectors=False) for b in blocks]
            real_eig_degrees.clear()
            masks = convergence_masks(systems, builder, tol, blocks)
            assert real_eig_degrees == [0, 2]
            fine = builder(blocks.layout.refined())
            reference = full_dense_guard(systems, fine, tol)
            for k in range(3):
                assert np.array_equal(masks[k], reference[k]), (tol, i, k)


def test_analyze_langevin_report():
    def builder(lay):
        return seo_alpha(langevin_cos_model(lay))

    blocks = builder(BasisLayout(1, 12))
    systems = analyze(blocks, builder, TOL)
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
    bare = analyze(blocks, builder, TOL, vectors=False)
    assert not any(s.has_vectors for s in bare)
    assert classify(bare, TOL) == UNBROKEN
    assert ground_state(bare, TOL)["degree"] == 1


def test_analyze_without_vectors_skips_pairing():
    # 3-D blocks are solved for eigenvalues only
    def builder(lay):
        return kd_operator(FlowField.zero(3), 0.5, lay)

    blocks = builder(BasisLayout(3, 1))
    systems = analyze(blocks, builder, TOL)
    assert not any(s.has_vectors for s in systems)
    pairing = pairing_check(systems, TOL, blocks=blocks)
    assert pairing["pairs"] is None
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
