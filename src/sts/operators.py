"""Degree-graded evolution operators of noisy flows on the torus.

Every composite operator here is a product of individually truncated
factors.  Because the exterior derivative is block-diagonal in the
wavevector and commutes with each projected factor combination by
construction, the assembled generators commute with d exactly at finite
truncation, which keeps the boson-fermion pairing of the spectrum intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
            if (b.k_in, b.k_out) != (k, k):
                raise ValueError(f"block {k} is not degree-preserving")

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
        for k in range(self.layout.dimension):
            d = d_matrix(self.layout, k).matrix
            comm = d @ self.blocks[k].matrix - self.blocks[k + 1].matrix @ d
            num = sp.linalg.norm(comm) if comm.nnz else 0.0
            den = sp.linalg.norm(d) * max(
                sp.linalg.norm(self.blocks[k].matrix), 1e-300
            )
            out.append(float(num) / float(den))
        return out


def _graded_anticommutator(up, down, layout, k):
    """down(k + 1) up(k) + up(k - 1) down(k) on degree-k forms.

    ``up(j)`` maps degree j to j + 1 and ``down(j)`` degree j to j - 1;
    at k = 0 and k = D only the term that exists is kept.
    """
    n = layout.size(k)
    total = sp.csr_matrix((n, n), dtype=complex)
    if k < layout.dimension:
        total = total + down(k + 1) @ up(k)
    if k > 0:
        total = total + up(k - 1) @ down(k)
    return total


def lie_matrix(G, layout, k):
    """Lie derivative along G on degree-k forms via the Cartan formula.

    Both terms use the truncated interior product, so the commutator
    [d, L_G] vanishes identically on the truncated basis.
    """
    D = layout.dimension
    if not 0 <= k <= D:
        raise ValueError(f"degree {k} outside 0..{D}")
    total = _graded_anticommutator(
        lambda j: d_matrix(layout, j).matrix,
        lambda j: interior_matrix(G, layout, j).matrix, layout, k,
    )
    return OperatorBlock(k, k, layout, total)


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


def seo_blocks(model):
    """Stratonovich evolution operator H = L_F - theta sum_a L_a L_a.

    The noise term is summed before it is scaled, so the identity frame
    gives exactly the blocks of the dynamo generator L_v + eta Delta_H.
    """
    if model.theta < 0:
        raise ValueError("temperature must be nonnegative")
    layout = model.layout
    blocks = []
    for k in range(layout.dimension + 1):
        H = lie_matrix(model.drift, layout, k).matrix
        noise = None
        for e in model.noise:
            L = lie_matrix(e, layout, k).matrix
            noise = L @ L if noise is None else noise + L @ L
        if noise is not None:
            H = H - model.theta * noise
        blocks.append(OperatorBlock(k, k, layout, H))
    return SeoBlocks(tuple(blocks), layout)


def seo_alpha(model):
    """Evolution operator in interpretation alpha via the drift shift."""
    shifted = SdeModel(
        model.layout,
        alpha_drift(model.drift, model.noise, model.theta, model.alpha),
        model.noise,
        model.theta,
        0.5,
    )
    return seo_blocks(shifted)


def seo_time_reversed(model):
    """Time-reversed evolution operator H_T = -L_F - theta sum_a L_a L_a."""
    return seo_blocks(replace(model, drift=-model.drift))


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
    return OperatorBlock(D, D, layout, H)


def hodge_laplacian_blocks(layout):
    """Euclidean Hodge Laplacian d d^dag + d^dag d per degree.

    Assembled from the codifferential rather than from Lie derivatives,
    so it is an independent oracle for the diffusive part of the dynamo.
    """
    blocks = [
        OperatorBlock(k, k, layout, _graded_anticommutator(
            lambda j: d_matrix(layout, j).matrix,
            lambda j: codifferential_matrix(layout, j).matrix, layout, k,
        ))
        for k in range(layout.dimension + 1)
    ]
    return SeoBlocks(tuple(blocks), layout)


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
    return seo_blocks(kd_model(v, eta, layout))


def kd_model(v, eta, layout):
    """The SDE whose evolution operator reproduces the dynamo generator.

    Drift v, identity noise frame, temperature eta.
    """
    return SdeModel(layout, v, identity_frame(layout.dimension), eta, 0.5)


def deformed_d_matrix(U, theta, layout, k):
    """Potential-deformed derivative d_U = d - (1/2 theta) dU wedge."""
    dU = [U.diff(j) for j in range(layout.dimension)]
    block = d_matrix(layout, k)
    wedge = one_form_wedge_matrix(dU, layout, k)
    return OperatorBlock(
        k, k + 1, layout, block.matrix - wedge.matrix / (2.0 * theta)
    )


def langevin_hermitian_blocks(U, theta, layout):
    """Hermitianized Langevin operator, per degree.

    H_U^(k) = theta (d_U d_U^dag + d_U^dag d_U) built from the deformed
    derivative.  Similar to the Langevin evolution operator with drift
    -grad U and unit additive noise, hence an independent oracle for its
    real nonnegative spectrum.
    """
    if theta <= 0:
        raise ValueError("positive temperature required")
    blocks = [
        OperatorBlock(k, k, layout, theta * _graded_anticommutator(
            lambda j: deformed_d_matrix(U, theta, layout, j).matrix,
            lambda j: deformed_d_matrix(U, theta, layout, j - 1).matrix.conj().T,
            layout, k,
        ))
        for k in range(layout.dimension + 1)
    ]
    return SeoBlocks(tuple(blocks), layout)
