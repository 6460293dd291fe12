"""Degree-graded evolution operators of noisy flows on the torus.

Every composite operator here is a product of individually truncated
factors.  Because the exterior derivative is block-diagonal in the
wavevector and commutes with each projected factor combination by
construction, the assembled generators commute with d exactly at finite
truncation, which keeps the boson-fermion pairing of the spectrum intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import scipy.sparse as sp

from .exterior import (
    OperatorBlock,
    codifferential_matrix,
    conv_matrix,
    d_matrix,
    diff_matrix,
    interior_matrix,
    one_form_wedge_matrix,
)
from .layout import BasisLayout
from .trig import FlowField, TrigField, identity_frame


@dataclass
class SdeModel:
    """A stochastic flow dx = F dt + sum_a e_a o dW^a on T^D.

    Parameters
    ----------
    layout : BasisLayout
        Truncated Fourier basis the operators act on.
    drift : FlowField
        Deterministic drift F.
    noise : list of FlowField
        Noise vector fields e_a, a = 1..M.  M may differ from D.
    theta : float
        Noise temperature, nonnegative.
    alpha : float
        SDE interpretation parameter in [0, 1]; 1/2 is Stratonovich,
        0 is Ito.
    """

    layout: BasisLayout
    drift: FlowField
    noise: list
    theta: float
    alpha: float = 0.5

    def __post_init__(self):
        D = self.layout.dimension
        if self.drift.dimension != D:
            raise ValueError("drift dimension does not match layout")
        if any(e.dimension != D for e in self.noise):
            raise ValueError("noise field dimension does not match layout")
        if self.theta < 0:
            raise ValueError(f"temperature must be nonnegative, got {self.theta}")
        if not self.noise and self.theta > 0:
            raise ValueError("positive temperature requires at least one noise field")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def dimension(self):
        return self.layout.dimension


@dataclass
class SeoBlocks:
    """One square operator block per form degree k = 0..D."""

    blocks: tuple
    layout: BasisLayout = field(repr=False)

    def __post_init__(self):
        D = self.layout.dimension
        if len(self.blocks) != D + 1:
            raise ValueError(f"expected {D + 1} blocks, got {len(self.blocks)}")
        for k, b in enumerate(self.blocks):
            if b.k_in != k:
                raise ValueError(f"block {k} holds degree {b.k_in}")

    def __getitem__(self, k):
        return self.blocks[k]

    def __iter__(self):
        return iter(self.blocks)

    @property
    def dimension(self):
        return self.layout.dimension

    def d_commutator_residuals(self):
        """Relative Frobenius norm of d H^(k) - H^(k+1) d per degree k < D."""
        out = []
        for k, d in enumerate(_derivatives(self.layout)):
            comm = d @ self.blocks[k].matrix - self.blocks[k + 1].matrix @ d
            num = sp.linalg.norm(comm) if comm.nnz else 0.0
            den = sp.linalg.norm(d) * max(
                sp.linalg.norm(self.blocks[k].matrix), 1e-300
            )
            out.append(float(num) / float(den))
        return out


def _blocks(matrices, layout):
    """SeoBlocks holding one matrix per degree k = 0..D."""
    return SeoBlocks(
        tuple(OperatorBlock(k, layout, m) for k, m in enumerate(matrices)),
        layout,
    )


@cache
def _derivatives(layout):
    """The exterior derivatives d: degree j -> j + 1 for j = 0..D-1, built
    once per layout; every reader multiplies them and never edits one."""
    return tuple(d_matrix(layout, j) for j in range(layout.dimension))


def _graded_anticommutator(up, down, layout):
    """down[k + 1] up[k] + up[k - 1] down[k] on every degree k = 0..D.

    ``up[j]`` maps degree j to j + 1 and ``down[j]`` degree j to j - 1
    (``down[0]`` is never read); at k = 0 and k = D only the term that
    exists is kept.
    """
    D = layout.dimension
    out = []
    for k in range(D + 1):
        n = layout.size(k)
        total = sp.csr_matrix((n, n), dtype=complex)
        if k < D:
            total = total + down[k + 1] @ up[k]
        if k > 0:
            total = total + up[k - 1] @ down[k]
        out.append(total)
    return out


def lie_matrices(G, layout):
    """Lie derivative along G on every degree via the Cartan formula.

    Both terms use the truncated interior product, so the commutator
    [d, L_G] vanishes identically on the truncated basis.
    """
    degrees = range(1, layout.dimension + 1)
    iota = [None] + [interior_matrix(G, layout, j) for j in degrees]
    return _graded_anticommutator(_derivatives(layout), iota, layout)


def alpha_drift(F, noise, theta, alpha):
    """Interpretation-shifted drift, computed exactly on trig fields.

    F_alpha^i = F^i + 2 theta (alpha - 1/2) sum_{a,j} (d_j e_a^i) e_a^j.
    """
    coef = 2.0 * theta * (alpha - 0.5)
    if coef == 0.0:
        return F
    D = F.dimension
    comps = []
    for i in range(D):
        shift = TrigField.zero(D)
        for e in noise:
            for j in range(D):
                shift = shift + e[i].diff(j) * e[j]
        comps.append(F[i] + coef * shift)
    return FlowField(comps)


def stratonovich(model):
    """The Stratonovich SDE equivalent to ``model`` (drift shifted by
    :func:`alpha_drift`, alpha 1/2), the one reader of alpha; at alpha
    1/2 the drift object passes through unchanged."""
    drift = alpha_drift(model.drift, model.noise, model.theta, model.alpha)
    return replace(model, drift=drift, alpha=0.5)


def seo_alpha(model):
    """Evolution operator H = L_F - theta sum_a L_a L_a, F the drift of
    the model's Stratonovich equivalent.

    The noise term is summed before it is scaled, so the identity frame
    gives exactly the blocks of the dynamo generator L_v + eta Delta_H.
    """
    layout = model.layout
    H = lie_matrices(stratonovich(model).drift, layout)
    lies = [lie_matrices(e, layout) for e in model.noise]
    if lies:
        H = [h - model.theta * sum(L[k] @ L[k] for L in lies)
             for k, h in enumerate(H)]
    return _blocks(H, layout)


def seo_time_reversed(model):
    """Time-reversed evolution operator H_T = -L_F - theta sum_a L_a L_a,
    F the drift of the Stratonovich equivalent as in :func:`seo_alpha`."""
    strat = stratonovich(model)
    return seo_alpha(replace(strat, drift=-strat.drift))


def fp_matrix_direct(F, noise, theta, alpha, layout):
    """Fokker-Planck generator on densities, assembled without Cartan.

    Acts on the single top-form channel:

        H = sum_i D_i M[F_alpha^i]
            - theta sum_a (sum_i D_i M[e_a^i]) (sum_j D_j M[e_a^j]),

    with D_i the diagonal derivative and M[.] the truncated convolution.
    Provides an independent cross-check of the degree-D Cartan block.
    """
    D = layout.dimension
    Fa = alpha_drift(F, noise, theta, alpha)
    n = layout.n_modes
    H = sp.csr_matrix((n, n), dtype=complex)
    for i in range(D):
        if Fa[i].coeffs:
            H = H + diff_matrix(layout, i + 1) @ conv_matrix(Fa[i], layout)
    for e in noise:
        div = sp.csr_matrix((n, n), dtype=complex)
        for i in range(D):
            if e[i].coeffs:
                div = div + diff_matrix(layout, i + 1) @ conv_matrix(e[i], layout)
        H = H - theta * (div @ div)
    return OperatorBlock(D, layout, H)


def hodge_laplacian_blocks(layout):
    """Euclidean Hodge Laplacian d d^dag + d^dag d per degree.

    Assembled from the codifferential rather than from Lie derivatives,
    so it is an independent oracle for the diffusive part of the dynamo.
    """
    degrees = range(1, layout.dimension + 1)
    delta = [None] + [codifferential_matrix(layout, j) for j in degrees]
    return _blocks(
        _graded_anticommutator(_derivatives(layout), delta, layout), layout
    )


def kd_operator(v, eta, layout):
    """Kinematic-dynamo generator L_v + eta Delta_H on T^3.

    The degree-2 block propagates the magnetic 2-form of the induction
    equation; a negative real part in its spectrum signals dynamo growth.
    It is the evolution operator of :func:`kd_model`.
    """
    if layout.dimension != 3:
        raise ValueError("the kinematic dynamo is defined on T^3 only")
    if eta <= 0:
        raise ValueError(f"magnetic diffusivity must be positive, got {eta}")
    return seo_alpha(kd_model(v, eta, layout))


def kd_model(v, eta, layout):
    """The SDE whose evolution operator reproduces the dynamo generator.

    Drift v, identity noise frame, temperature eta.
    """
    return SdeModel(layout, v, identity_frame(layout.dimension), eta, 0.5)


def langevin_hermitian_blocks(U, theta, layout):
    """Hermitianized Langevin operator, per degree.

    H_U^(k) = theta (d_U d_U^dag + d_U^dag d_U) built from the deformed
    derivative d_U = d - (1/2 theta) dU wedge.  Similar to the Langevin
    evolution operator with drift -grad U and unit additive noise, hence
    an independent oracle for its real nonnegative spectrum.
    """
    if theta <= 0:
        raise ValueError("positive temperature required")
    grad = [U.diff(j) for j in range(layout.dimension)]
    dU = [
        d - one_form_wedge_matrix(grad, layout, j) / (2.0 * theta)
        for j, d in enumerate(_derivatives(layout))
    ]
    adjoint = [None] + [m.conj().T for m in dU]
    return _blocks(
        [theta * m for m in _graded_anticommutator(dU, adjoint, layout)],
        layout,
    )
