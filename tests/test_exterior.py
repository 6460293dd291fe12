"""Elementary exterior-calculus operators on the truncated basis."""

import numpy as np
import pytest
import scipy.sparse as sp

from sts.exterior import (
    DegreeError,
    codifferential_matrix,
    conv_matrix,
    d_matrix,
    hodge_star_inverse_matrix,
    hodge_star_matrix,
    integrate_top,
    interior_matrix,
    multiply_matrix,
    one_form_wedge_matrix,
)
from sts.layout import BasisLayout, FormVector
from sts.trig import FlowField, TrigField

LAYOUTS = [BasisLayout(1, 3), BasisLayout(2, 2), BasisLayout(3, 1)]


def random_form(degree, layout, rng):
    v = rng.standard_normal(layout.size(degree)) + 1j * rng.standard_normal(
        layout.size(degree)
    )
    return FormVector(degree, layout, v)


def test_layout_index_bijection():
    lay = BasisLayout(2, 2)
    seen = set()
    for I in lay.multi_indices(1):
        for kappa in lay.modes():
            seen.add(lay.index(I, tuple(kappa)))
    assert seen == set(range(lay.size(1)))


def test_layout_total_size():
    for lay in LAYOUTS:
        D, N = lay.dimension, lay.truncation
        total = sum(lay.size(k) for k in range(D + 1))
        assert total == 2 ** D * (2 * N + 1) ** D


def test_d_on_single_mode_1d():
    lay = BasisLayout(1, 2)
    psi = FormVector.zero(0, lay)
    psi.set_coefficient((), (1,), 1.0)
    out = FormVector(1, lay, d_matrix(lay, 0) @ psi.coeffs)
    assert out.coefficient((1,), (1,)) == 1j


def test_d_sign_2d():
    # d(e^{i x2} dx1) = -i e^{i x2} dx1^dx2
    lay = BasisLayout(2, 2)
    psi = FormVector.zero(1, lay)
    psi.set_coefficient((1,), (0, 1), 1.0)
    out = FormVector(2, lay, d_matrix(lay, 0 + 1) @ psi.coeffs)
    assert out.coefficient((1, 2), (0, 1)) == -1j


@pytest.mark.parametrize("lay", LAYOUTS)
def test_d_squared_zero(lay):
    for k in range(lay.dimension - 1):
        m = (d_matrix(lay, k + 1) @ d_matrix(lay, k))
        assert m.nnz == 0 or abs(m).max() < 1e-14


@pytest.mark.parametrize("lay", LAYOUTS)
def test_codifferential_squared_zero(lay):
    for k in range(2, lay.dimension + 1):
        m = codifferential_matrix(lay, k - 1) @ codifferential_matrix(lay, k)
        assert m.nnz == 0 or abs(m).max() < 1e-14


@pytest.mark.parametrize("lay", LAYOUTS)
def test_codifferential_is_adjoint_of_d(lay):
    for k in range(lay.dimension):
        dm = d_matrix(lay, k).toarray()
        cd = codifferential_matrix(lay, k + 1).toarray()
        assert np.abs(cd - dm.conj().T).max() < 1e-14


def test_codifferential_1d_mode():
    lay = BasisLayout(1, 2)
    psi = FormVector.zero(1, lay)
    psi.set_coefficient((1,), (1,), 1.0)
    out = FormVector(0, lay, codifferential_matrix(lay, 1) @ psi.coeffs)
    assert out.coefficient((), (1,)) == -1j


def test_interior_constant_2d():
    lay = BasisLayout(2, 1)
    psi = FormVector.zero(2, lay)
    psi.set_coefficient((1, 2), (0, 0), 1.0)
    out = FormVector(1, lay, interior_matrix(FlowField.unit(2, 0), lay, 2) @ psi.coeffs)
    assert out.coefficient((2,), (0, 0)) == 1.0
    assert np.count_nonzero(out.coeffs) == 1


def test_interior_convolution_and_truncation():
    # iota_{cos(x) d/dx} (e^{ix} dx) = (e^{2ix} + 1)/2, mode 2 kept iff N >= 2
    G = FlowField([TrigField.cos(1, 0)])
    for N, keep2 in [(2, True), (1, False)]:
        lay = BasisLayout(1, N)
        psi = FormVector.zero(1, lay)
        psi.set_coefficient((1,), (1,), 1.0)
        out = FormVector(0, lay, interior_matrix(G, lay, 1) @ psi.coeffs)
        assert out.coefficient((), (0,)) == 0.5
        if keep2:
            assert out.coefficient((), (2,)) == 0.5
        else:
            assert np.count_nonzero(out.coeffs) == 1


def test_multiply_identity_and_cos():
    lay = BasisLayout(1, 3)
    one = multiply_matrix(TrigField.constant(1, 1.0), lay, 0).toarray()
    assert np.abs(one - np.eye(lay.n_modes)).max() == 0.0
    M = conv_matrix(TrigField.cos(1, 0), lay).toarray()
    col = M[:, lay.mode_index((0,))]
    assert col[lay.mode_index((1,))] == 0.5
    assert col[lay.mode_index((-1,))] == 0.5
    assert np.count_nonzero(col) == 2


def test_multiply_matches_grid_product_oracle():
    rng = np.random.default_rng(5)
    f = TrigField.random(1, 2, rng)
    lay = BasisLayout(1, 8)
    psi = FormVector.zero(0, lay)
    # band-limited input so that the product is resolvable at N = 8
    for kappa in range(-6, 7):
        psi.set_coefficient((), (kappa,), rng.standard_normal())
    out = FormVector(0, lay, multiply_matrix(f, lay, 0) @ psi.coeffs)
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)[:, None]
    fx = f.evaluate(grid)
    px = np.array(
        [sum(psi.coefficient((), (k,)) * np.exp(1j * k * g) for k in range(-8, 9))
         for g in grid[:, 0]]
    )
    prod = fx * px
    # transform the grid product back and compare mode by mode
    for kappa in range(-8, 9):
        coeff = np.mean(prod * np.exp(-1j * kappa * grid[:, 0]))
        assert abs(coeff - out.coefficient((), (kappa,))) < 1e-12 * max(
            1.0, abs(coeff)
        )


def test_hodge_star_2d_signs():
    lay = BasisLayout(2, 1)
    dx1 = FormVector.zero(1, lay)
    dx1.set_coefficient((1,), (0, 0), 1.0)
    out = FormVector(1, lay, hodge_star_matrix(lay, 1) @ dx1.coeffs)
    assert out.coefficient((2,), (0, 0)) == 1.0
    dx2 = FormVector.zero(1, lay)
    dx2.set_coefficient((2,), (0, 0), 1.0)
    out = FormVector(1, lay, hodge_star_matrix(lay, 1) @ dx2.coeffs)
    assert out.coefficient((1,), (0, 0)) == -1.0


def test_hodge_star_3d():
    lay = BasisLayout(3, 1)
    psi = FormVector.zero(2, lay)
    psi.set_coefficient((1, 2), (0, 0, 0), 1.0)
    out = FormVector(1, lay, hodge_star_matrix(lay, 2) @ psi.coeffs)
    assert out.coefficient((3,), (0, 0, 0)) == 1.0


@pytest.mark.parametrize("lay", LAYOUTS)
def test_star_star_sign_law(lay):
    D = lay.dimension
    for k in range(D + 1):
        twice = hodge_star_matrix(lay, D - k) @ hodge_star_matrix(lay, k)
        sign = (-1) ** (k * (D - k))
        assert abs(twice - sign * np.eye(lay.size(k))).max() < 1e-14
        inv = hodge_star_inverse_matrix(lay, D - k) @ hodge_star_matrix(lay, k)
        assert abs(inv - np.eye(lay.size(k))).max() < 1e-14


@pytest.mark.parametrize("lay", LAYOUTS)
def test_constructors_return_csr_matrices_of_the_layout_sizes(lay):
    D = lay.dimension
    rng = np.random.default_rng(3)
    G = FlowField([TrigField.random(D, 1, rng) for _ in range(D)])
    f = TrigField.random(D, 1, rng)
    # (constructor, its degrees k, the degree it maps k to)
    cases = [
        (lambda k: d_matrix(lay, k), range(D), lambda k: k + 1),
        (lambda k: codifferential_matrix(lay, k), range(1, D + 1), lambda k: k - 1),
        (lambda k: interior_matrix(G, lay, k), range(1, D + 1), lambda k: k - 1),
        (lambda k: one_form_wedge_matrix(G.components, lay, k), range(D),
         lambda k: k + 1),
        (lambda k: multiply_matrix(f, lay, k), range(D + 1), lambda k: k),
        (lambda k: hodge_star_matrix(lay, k), range(D + 1), lambda k: D - k),
        (lambda k: hodge_star_inverse_matrix(lay, k), range(D + 1), lambda k: D - k),
    ]
    for build, degrees, k_out in cases:
        for k in degrees:
            m = build(k)
            assert sp.issparse(m) and m.format == "csr"
            assert m.shape == (lay.size(k_out(k)), lay.size(k))


def test_integrate_top():
    lay = BasisLayout(2, 1)
    psi = FormVector.zero(2, lay)
    psi.set_coefficient((1, 2), (0, 0), 1.0)
    assert abs(integrate_top(psi) - (2 * np.pi) ** 2) < 1e-12
    psi = FormVector.zero(2, lay)
    psi.set_coefficient((1, 2), (1, 0), 1.0)
    psi.set_coefficient((1, 2), (-1, 0), 1.0)
    assert integrate_top(psi) == 0.0


def test_one_form_wedge_is_leibniz_compatible():
    # (dU) ^ phi = d(U phi) - U d(phi) when no modes overflow the box
    lay = BasisLayout(2, 3)
    U = TrigField.cos(2, 0) + TrigField.sin(2, 1)
    comps = [U.diff(j) for j in range(2)]
    W = one_form_wedge_matrix(comps, lay, 0)
    phi = FormVector.zero(0, lay)
    phi.set_coefficient((), (1, -1), 0.3 + 0.1j)
    phi.set_coefficient((), (-1, 1), 0.3 - 0.1j)
    MU0 = multiply_matrix(U, lay, 0)
    MU1 = multiply_matrix(U, lay, 1)
    d0 = d_matrix(lay, 0)
    lhs = W @ phi.coeffs
    rhs = d0 @ (MU0 @ phi.coeffs) - MU1 @ (d0 @ phi.coeffs)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_degree_errors():
    lay = BasisLayout(2, 1)
    G = FlowField.unit(2, 0)
    one_form = [TrigField.cos(2, 0), TrigField.sin(2, 1)]
    # wedges map 0..D-1 up, contractions 1..D down; one past each end fails
    for k in (-1, 2):
        with pytest.raises(DegreeError):
            d_matrix(lay, k)
        with pytest.raises(DegreeError):
            one_form_wedge_matrix(one_form, lay, k)
    for k in (0, 3):
        with pytest.raises(DegreeError):
            codifferential_matrix(lay, k)
        with pytest.raises(DegreeError):
            interior_matrix(G, lay, k)
    # multiplication keeps the degree: 0..D
    for k in (-1, 3):
        with pytest.raises(DegreeError):
            multiply_matrix(one_form[0], lay, k)
