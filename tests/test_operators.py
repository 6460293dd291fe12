"""Assembly of the graded evolution operators."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sts import operators
from sts.exterior import d_matrix, exact_basis
from sts.layout import BasisLayout
from sts.operators import (
    SdeModel,
    alpha_drift,
    fp_matrix_direct,
    hodge_laplacian_blocks,
    kd_model,
    kd_operator,
    langevin_hermitian_blocks,
    lie_matrices,
    seo_alpha,
    seo_time_reversed,
    stratonovich,
)
from sts.config import abc_field
from sts.spectral import (
    Tolerances,
    adjoint_check,
    eigensolve,
    hausdorff_distance,
    isospectral_check,
    spectral_radius,
    zero_modes,
    _reduce,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import langevin_cos_model, multiplicative_model, shear_model


def sorted_eigs(mat):
    w = np.linalg.eigvals(mat)
    return w[np.lexsort((w.imag, w.real))]


def test_lie_constant_flow_is_translation_generator():
    lay = BasisLayout(2, 2)
    G = FlowField.constant([2.0, -1.0])
    modes = lay.modes()
    for k, L in enumerate(lie_matrices(G, lay)):
        diag = np.tile(2j * modes[:, 0] - 1j * modes[:, 1],
                       lay.size(k) // lay.n_modes)
        assert np.abs(L.toarray() - np.diag(diag)).max() < 1e-14


def test_lie_sin_on_scalars():
    # L_{sin(x) d/dx} e^{i kappa x} = (kappa/2)(e^{i(kappa+1)x} - e^{i(kappa-1)x})
    lay = BasisLayout(1, 3)
    L = lie_matrices(FlowField([TrigField.sin(1, 0)]), lay)[0].toarray()
    for kappa in range(-2, 3):
        col = L[:, lay.mode_index((kappa,))]
        expect = np.zeros(lay.n_modes, complex)
        expect[lay.mode_index((kappa + 1,))] = kappa / 2
        expect[lay.mode_index((kappa - 1,))] = -kappa / 2
        assert np.abs(col - expect).max() < 1e-14


def test_lie_commutes_with_d_exactly():
    rng = np.random.default_rng(0)
    for D, N in [(1, 3), (2, 2), (3, 1)]:
        lay = BasisLayout(D, N)
        G = FlowField([TrigField.random(D, 1, rng, 0.7) for _ in range(D)])
        L = lie_matrices(G, lay)
        for k in range(D):
            d = d_matrix(lay, k)
            comm = d @ L[k] - L[k + 1] @ d
            assert comm.nnz == 0 or abs(comm).max() < 1e-13


def test_free_diffusion_spectrum():
    lay = BasisLayout(1, 2)
    H = seo_alpha(SdeModel(lay, FlowField.zero(1), identity_frame(1), 1.0))
    w = np.sort(np.linalg.eigvals(H[0].dense).real)
    assert np.allclose(w, [0, 1, 1, 4, 4], atol=1e-12)


def test_constant_drift_spectrum():
    lay = BasisLayout(1, 2)
    H = seo_alpha(SdeModel(lay, FlowField.constant([1.0]), identity_frame(1), 1.0))
    got = sorted_eigs(H[0].dense)
    expect = np.array(sorted([0, 1 + 1j, 1 - 1j, 4 + 2j, 4 - 2j],
                             key=lambda z: (z.real, z.imag)))
    assert np.abs(got - expect).max() < 1e-12


def test_alpha_drift_additive_and_stratonovich_fixed_points():
    F = FlowField([TrigField.sin(1, 0)])
    e = identity_frame(1)
    for alpha in (0.0, 0.25, 1.0):
        Fa = alpha_drift(F, e, 0.7, alpha)
        assert (Fa[0] - F[0]).max_abs() == 0.0
    e_mult = [FlowField([TrigField.constant(1, 1.0) + TrigField.cos(1, 0, 0.3)])]
    assert alpha_drift(F, e_mult, 0.7, 0.5) is F


def test_alpha_drift_multiplicative_closed_form():
    eps, theta = 0.3, 1.0
    e = [FlowField([TrigField.constant(1, 1.0) + TrigField.cos(1, 0, eps)])]
    Fa = alpha_drift(FlowField.zero(1), e, theta, 0.0)
    expect = TrigField.sin(1, 0, theta * eps) + TrigField.harmonic(
        1, (2,), theta * eps ** 2 / 2, "sin"
    )
    assert (Fa[0] - expect).max_abs() < 1e-14


def test_seo_alpha_reduces_to_stratonovich():
    # alpha enters the operator only through the Stratonovich equivalent
    m = multiplicative_model(alpha=0.5)
    assert stratonovich(m).drift is m.drift
    ito = multiplicative_model(alpha=0.0)
    s = stratonovich(ito)
    assert s.alpha == 0.5 and s.noise is ito.noise and s.theta == ito.theta
    expect = alpha_drift(ito.drift, ito.noise, ito.theta, 0.0)
    assert (s.drift[0] - expect[0]).max_abs() == 0.0
    for a, b in zip(seo_alpha(ito), seo_alpha(s)):
        assert abs(a.matrix - b.matrix).max() == 0.0


def test_seo_alpha_reuses_only_the_parts_a_call_shares():
    # one dict across calls that differ in theta, noise, drift, alpha or
    # layout: every call gives the blocks of a call without it, bit for bit
    rng = np.random.default_rng(5)

    def field():
        return FlowField([TrigField.random(2, 1, rng, 0.5) for _ in range(2)])

    base = SdeModel(BasisLayout(2, 2), field(), [field()], 0.3, 0.2)
    models = [base, replace(base, theta=0.7), replace(base, noise=[field()]),
              replace(base, drift=field()), replace(base, alpha=0.5),
              replace(base, layout=BasisLayout(2, 3)), base]
    shared = {}
    for m in models:
        for a, b in zip(seo_alpha(m, shared), seo_alpha(m)):
            assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
            assert np.array_equal(a.matrix.indices, b.matrix.indices)
            assert a.matrix.data.tobytes() == b.matrix.data.tobytes()


def test_additive_noise_alpha_independent_bit_exact():
    lay = BasisLayout(1, 8)
    F = FlowField([TrigField.sin(1, 0)])
    ref = None
    for alpha in (0.0, 0.3, 0.5, 1.0):
        m = SdeModel(lay, F, identity_frame(1), 0.5, alpha)
        blocks = seo_alpha(m)
        dense = [b.dense for b in blocks]
        if ref is None:
            ref = dense
        else:
            for a, b in zip(ref, dense):
                assert np.array_equal(a, b)


def test_fp_direct_free_and_constant_drift():
    lay = BasisLayout(1, 3)
    fp = fp_matrix_direct(FlowField.zero(1), identity_frame(1), 1.0, 0.5, lay)
    modes = lay.modes()[:, 0]
    assert np.abs(fp.dense - np.diag(modes.astype(float) ** 2)).max() < 1e-14
    fp = fp_matrix_direct(FlowField.constant([2.0]), identity_frame(1), 1.0, 0.5, lay)
    assert np.abs(np.diag(fp.dense) - (modes ** 2 + 2j * modes)).max() < 1e-14


def test_fp_direct_equals_cartan_top_block():
    for m, alpha in [
        (langevin_cos_model(BasisLayout(1, 10)), 0.5),
        (multiplicative_model(BasisLayout(1, 10), alpha=0.0), 0.0),
        (multiplicative_model(BasisLayout(1, 10), alpha=0.5), 0.5),
        (shear_model(), 0.5),
    ]:
        model = SdeModel(m.layout, m.drift, m.noise, m.theta, alpha)
        cartan = seo_alpha(model)[model.dimension].dense
        direct = fp_matrix_direct(
            m.drift, m.noise, m.theta, alpha, m.layout
        ).dense
        scale = max(np.abs(cartan).max(), 1.0)
        assert np.abs(cartan - direct).max() < 1e-10 * scale


def test_time_reversal_spectra():
    lay = BasisLayout(1, 4)
    m0 = SdeModel(lay, FlowField.zero(1), identity_frame(1), 0.8)
    H, HT = seo_alpha(m0), seo_time_reversed(m0)
    for k in range(2):
        assert abs(H[k].matrix - HT[k].matrix).max() == 0.0
    mc = SdeModel(lay, FlowField.constant([1.0]), identity_frame(1), 0.8)
    H, HT = seo_alpha(mc), seo_time_reversed(mc)
    w = sorted_eigs(H[0].dense)
    wt = sorted_eigs(HT[0].dense)
    assert np.abs(np.conj(w)[np.lexsort((np.conj(w).imag, np.conj(w).real))]
                  - wt).max() < 1e-12


def test_time_reversal_isospectral_to_complementary_degree():
    m = langevin_cos_model()
    H, HT = seo_alpha(m), seo_time_reversed(m)
    for k in range(2):
        w = np.sort(np.linalg.eigvals(H[k].dense).real)
        wt = np.sort(np.linalg.eigvals(HT[1 - k].dense).real)
        assert np.abs(w - wt).max() < 1e-8


def test_hodge_laplacian_diagonal_and_kernel():
    lay = BasisLayout(2, 2)
    lap = hodge_laplacian_blocks(lay)
    k2 = (lay.modes() ** 2).sum(axis=1)
    for k in range(3):
        dense = lap[k].dense
        expect = np.tile(k2, lay.size(k) // lay.n_modes).astype(float)
        assert np.abs(dense - np.diag(expect)).max() < 1e-14
        kernel = int(np.sum(expect == 0))
        assert kernel == [1, 2, 1][k]
    # eigenvalue 1 at kappa=(1,0) on 1-forms has both components
    w = np.sort(np.linalg.eigvals(lap[1].dense).real)
    assert np.sum(np.abs(w - 1.0) < 1e-12) >= 4  # (+-1,0),(0,+-1) x 2 channels


def test_hodge_laplacian_commutes_with_d():
    lay = BasisLayout(2, 2)
    assert max(hodge_laplacian_blocks(lay).d_commutator_residuals()) < 1e-14


def test_d_exactness_of_assembled_operators():
    rng = np.random.default_rng(4)
    models = [
        langevin_cos_model(BasisLayout(1, 6)),
        multiplicative_model(BasisLayout(1, 6)),
        shear_model(BasisLayout(2, 3)),
        SdeModel(
            BasisLayout(2, 3),
            FlowField([TrigField.random(2, 1, rng, 0.5) for _ in range(2)]),
            identity_frame(2),
            0.3,
        ),
    ]
    for m in models:
        for blocks in (seo_alpha(m), seo_time_reversed(m)):
            assert max(blocks.d_commutator_residuals()) < 1e-12


def test_derivatives_are_built_once_per_layout(monkeypatch):
    # every operator of a layout and its [d, H] check read one tuple of d^j
    built = []

    def counting_d_matrix(layout, j):
        built.append(j)
        return d_matrix(layout, j)

    monkeypatch.setattr(operators, "d_matrix", counting_d_matrix)
    operators._derivatives.cache_clear()
    lay = BasisLayout(2, 2)
    seo_alpha(shear_model(lay))
    seo_alpha(shear_model(lay)).d_commutator_residuals()
    assert built == [0, 1]
    assert operators._derivatives(lay) is operators._derivatives(lay)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(D=st.integers(1, 3), N=st.integers(1, 2), n_noise=st.integers(1, 2),
       theta=st.floats(0, 1), alpha=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
# an ill-conditioned eigenvalue pair of H^(1) at 1.9e-4: its Hausdorff
# distance to spec H_T^(2) is 1.08e-8, above 1e-8 but not 1e-8 max(1, radius)
@example(D=3, N=2, n_noise=1, theta=0.0, alpha=0.0, seed=0)
def test_d_exactness_on_random_models(D, N, n_noise, theta, alpha, seed):
    # the bound of acceptance criterion 1, on drawn drifts and noise frames
    rng = np.random.default_rng(seed)

    def field():
        return FlowField([TrigField.random(D, 1, rng, 0.5) for _ in range(D)])

    model = SdeModel(BasisLayout(D, N), field(),
                     [field() for _ in range(n_noise)], theta, alpha)
    H, HT = seo_alpha(model), seo_time_reversed(model)
    # the refinement guard refuses an operator whose refined blocks do not
    # commute with d to 1e-12, so no drawn model may come near that
    fine = seo_alpha(replace(model, layout=model.layout.refined()))
    assert max(fine.d_commutator_residuals()) <= 1e-12
    systems = []
    for blocks in (H, HT):
        assert max(blocks.d_commutator_residuals()) <= 1e-12
        systems.append([real_path_matches_complex_path(b) for b in blocks])
        reduced_spectra_match_full_spectra(blocks, systems[-1])
    # the bounds of acceptance criterion 5
    time_reversal_is_isospectral(H, *systems)
    assert max(adjoint_check(H, HT)) <= 1e-10
    # the Betti zero modes of acceptance criterion 1
    assert zero_modes(systems[0], Tolerances())["match"]


def real_path_matches_complex_path(block):
    """The block is real in its cos/sin basis within the roundoff bound
    eigensolve enforces, and the real solve finds the complex solve's
    spectrum to 1e-12 max(1, spectral radius).  Returns the real solve.

    An eigenvalue the two solves place further apart than that must be
    ill-conditioned: it is then an exact eigenvalue of a block within
    that bound of this one (smallest singular value of A - lam).
    """
    U = block.layout.real_basis(block.k_in)
    M = (U.conj().T @ block.matrix @ U).tocsr()
    assert (np.abs(M.data.imag).max(initial=0.0)
            <= 1e-12 * np.abs(M.data.real).max(initial=0.0))
    A = block.dense
    system = eigensolve(block, vectors=False)
    w = system.eigenvalues
    ref = np.linalg.eigvals(A)
    bound = 1e-12 * max(1.0, float(np.abs(ref).max()))
    assert len(w) == len(ref)
    eye = np.eye(len(A))
    for lam in w:
        if np.min(np.abs(ref - lam)) > bound:
            assert np.linalg.svd(A - lam * eye, compute_uv=False)[-1] <= bound
    return system


def time_reversal_is_isospectral(blocks, systems, reversed_systems):
    """spec H^(k) and spec H_T^(D-k) lie within the forward bound 1e-8
    max(1, spectral radius) of each other in Hausdorff distance.  Beyond
    it, each eigenvalue of H_T^(D-k) must be an exact eigenvalue of a block
    within that bound of H^(k), the backward form of
    real_path_matches_complex_path."""
    bound = 1e-8 * max(1.0, spectral_radius(systems))
    D = len(systems) - 1
    for k, dist in enumerate(isospectral_check(systems, reversed_systems)):
        if dist > bound:
            A = blocks[k].dense
            eye = np.eye(len(A))
            for lam in reversed_systems[D - k].eigenvalues:
                assert np.linalg.svd(A - lam * eye, compute_uv=False)[-1] <= bound


def reduced_spectra_match_full_spectra(blocks, systems):
    """Each exact_basis P_j is orthonormal to 1e-13, im d^j is invariant
    under H^(j+1) to a relative residual of 1e-13, and every eigenvalue
    of H^(k) (the real solves ``systems``) lies within the forward bound
    of real_path_matches_complex_path of the spectra of R_(k-1), R_k and
    b_k zeros, with R_j = P_j^H H^(j+1) P_j.  Beyond it, the nearest of
    those must be an exact eigenvalue of H^(k) perturbed within the bound,
    the backward form: an eigenvalue ill-conditioned in H^(k) can be
    well-conditioned in R_j."""
    layout = blocks.layout
    D = layout.dimension
    reduced = []
    for j in range(D):
        P = exact_basis(layout, j)
        gram = (P.conj().T @ P).toarray()
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-13
        A = blocks[j + 1].matrix
        R = _reduce(blocks[j + 1], P)
        assert sp.linalg.norm(A @ P - P @ R) <= 1e-13 * sp.linalg.norm(A)
        reduced.append(R.toarray())
    spectra = [np.linalg.eigvals(R) for R in reduced]
    for k, s in enumerate(systems):
        union = np.concatenate(
            spectra[max(k - 1, 0):k + 1] + [np.zeros(comb(D, k))])
        assert len(union) == s.size
        A = blocks[k].dense
        bound = 1e-12 * max(1.0, float(np.abs(s.eigenvalues).max()))
        for lam in s.eigenvalues:
            gaps = np.abs(union - lam)
            if gaps.min() > bound:
                mu = union[np.argmin(gaps)]
                sigma = np.linalg.svd(A - mu * np.eye(len(A)), compute_uv=False)
                assert sigma[-1] <= bound


def test_spectra_closed_under_conjugation():
    models = [
        (seo_alpha(shear_model()), True),
        (seo_alpha(multiplicative_model(alpha=0.2)), True),
        (kd_operator(abc_field(1.0, 1.0, 1.0), 0.08, BasisLayout(3, 2)), False),
    ]
    for H, vectors in models:
        for b in H:
            w = np.linalg.eigvals(b.dense)
            for lam in w:
                assert np.min(np.abs(w - np.conj(lam))) < 1e-8
            # the real-arithmetic solve pairs them exactly, and finds the
            # complex solve's spectrum
            e = eigensolve(b, vectors=vectors).eigenvalues
            assert np.array_equal(np.sort_complex(e.conj()), np.sort_complex(e))
            assert hausdorff_distance(e, w) <= 1e-12 * max(1.0, np.abs(w).max())


def test_kd_equals_seo_with_identity_frame():
    # the dynamo generator is assembled as the evolution operator of
    # kd_model; it must equal L_v + eta Delta_H with the Laplacian built
    # independently from the codifferential, bit for bit
    v = abc_field(1.0, 1.0, 1.0)
    for N in (2, 4):
        lay = BasisLayout(3, N)
        kd = kd_operator(v, 0.1, lay)
        seo = seo_alpha(kd_model(v, 0.1, lay))
        lap = hodge_laplacian_blocks(lay)
        lie = lie_matrices(v, lay)
        for k in range(4):
            oracle = lie[k] + 0.1 * lap[k].matrix
            assert np.array_equal(kd[k].dense, oracle.toarray())
            assert np.array_equal(kd[k].dense, seo[k].dense)


def test_kd_zero_flow_spectrum():
    lay = BasisLayout(3, 1)
    kd = kd_operator(FlowField.zero(3), 0.2, lay)
    w = np.sort(np.linalg.eigvals(kd[2].dense).real)
    k2 = np.sort(np.tile((lay.modes() ** 2).sum(axis=1), 3)) * 0.2
    assert np.allclose(w, k2, atol=1e-12)


def test_kd_requires_3d():
    with pytest.raises(ValueError):
        kd_operator(FlowField.zero(2), 0.1, BasisLayout(2, 2))


def test_langevin_hermitian_blocks_are_hermitian_psd():
    U = TrigField.cos(1, 0)
    HU = langevin_hermitian_blocks(U, 0.5, BasisLayout(1, 8))
    for k in range(2):
        A = HU[k].dense
        assert np.abs(A - A.conj().T).max() < 1e-12
        w = np.linalg.eigvalsh(A)
        assert w.min() > -1e-12


def test_model_validation():
    lay = BasisLayout(1, 2)
    with pytest.raises(ValueError):
        SdeModel(lay, FlowField.zero(1), identity_frame(1), -1.0)
    with pytest.raises(ValueError):
        SdeModel(lay, FlowField.zero(1), [], 1.0)
    with pytest.raises(ValueError):
        SdeModel(lay, FlowField.zero(2), identity_frame(1), 1.0)
