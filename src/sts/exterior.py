"""Elementary operators of the exterior algebra in the truncated basis.

All operators are assembled as sparse complex matrices acting on the flat
coefficient vectors of :class:`~sts.layout.FormVector`.  Composite operators
elsewhere are built as products of these individually projected factors, so
the structural identities (d^2 = 0, adjointness, commutators with d) hold
exactly at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod

import numpy as np
import scipy.sparse as sp

from .layout import BasisLayout


class DegreeError(ValueError):
    """Raised when an operator is requested outside its degree range."""


@dataclass
class OperatorBlock:
    """The degree-k_in block of an evolution operator, a sparse square
    matrix on the k_in-forms of the layout.

    The elementary operators below return bare sparse matrices."""

    k_in: int
    layout: BasisLayout
    matrix: sp.spmatrix = field(repr=False)

    def __post_init__(self):
        expected = (self.layout.size(self.k_in),) * 2
        if self.matrix.shape != expected:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match layout "
                f"sizes {expected}"
            )

    @property
    def dense(self):
        return self.matrix.toarray()


# -- the ghost sign rule ------------------------------------------------------


def ghost_sign(axis, multi_index):
    """(-1) to the number of axes of dx^I below ``axis``.

    dx^axis ^ and iota_axis are the creation and annihilation operators of
    the ghost dx^axis; moving it past the ghosts of I below it into the
    increasing multi-index of the result, whether it is inserted there or
    removed from there, costs this sign.
    """
    return -1.0 if sum(a < axis for a in multi_index) % 2 else 1.0


# -- scalar building blocks ---------------------------------------------------


def diff_matrix(layout, axis):
    """d/dx^axis on one scalar channel: diagonal i*kappa_axis."""
    kappa = layout.modes()[:, axis - 1]
    return sp.diags(1j * kappa.astype(float), format="csr")


def conv_matrix(f, layout):
    """Multiplication by TrigField f on one scalar channel.

    The product is a wavevector convolution sharply truncated to the
    layout box: out(kappa + mu) += f_hat(mu) * in(kappa).
    """
    modes = layout.modes()
    n = layout.n_modes
    rows, cols, vals = [], [], []
    for mu, c in f.coeffs.items():
        target = modes + np.asarray(mu)
        ok = np.all(np.abs(target) <= layout.truncation, axis=1)
        rows.append(layout.mode_index(target[ok]))
        cols.append(np.flatnonzero(ok))
        vals.append(np.full(len(cols[-1]), c, dtype=complex))
    if not rows:
        return sp.csr_matrix((n, n), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def _channel_map(layout, k_in, k_out, entries):
    """Assemble a block from per-channel scalar matrices.

    ``entries`` is a list of (rank_out, rank_in, scalar_matrix) triples,
    each channel pair at most once.  Explicit zeros are dropped.
    """
    n = layout.n_modes
    rows, cols, vals = [], [], []
    for r_out, r_in, mat in entries:
        m = sp.coo_matrix(mat)
        nz = m.data != 0
        rows.append(m.row[nz] + r_out * n)
        cols.append(m.col[nz] + r_in * n)
        vals.append(m.data[nz])
    shape = (layout.size(k_out), layout.size(k_in))
    if not entries:
        return sp.csr_matrix(shape, dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape, dtype=complex,
    )


def _ghost_terms(layout, k, step):
    """The (rank_out, rank_in, sign, axis) terms of dx^axis ^ (step +1) or
    iota_axis (step -1) from degree k to k + step.

    Each dx^I has one term per axis absent from I (wedge) or present in I
    (contraction), with the ghost sign of :func:`ghost_sign`.
    """
    D = layout.dimension
    if not (0 <= k <= D and 0 <= k + step <= D):
        raise DegreeError(f"no map from degree {k} to degree {k + step} on T^{D}")
    mi_out = layout.multi_indices(k + step)
    return [
        (mi_out.index(tuple(sorted(set(I) ^ {axis}))), r_in,
         ghost_sign(axis, I), axis)
        for r_in, I in enumerate(layout.multi_indices(k))
        for axis in range(1, D + 1)
        if (axis in I) == (step < 0)
    ]


def _ghost_map(layout, k, step, factors):
    """Sum over axes of dx^axis ^ (step +1) or iota_axis (step -1) times
    factors[axis - 1] on every channel, each term with its ghost sign.

    Maps degree k to k + step; a factor of None is a vanishing term.
    """
    entries = [(r_out, r_in, sign * factors[axis - 1])
               for r_out, r_in, sign, axis in _ghost_terms(layout, k, step)
               if factors[axis - 1] is not None]
    return _channel_map(layout, k, k + step, entries)


def _conv_factors(components, layout):
    return [conv_matrix(c, layout) if c.coeffs else None for c in components]


# -- the elementary operators -------------------------------------------------


def d_matrix(layout, k):
    """Exterior derivative Omega^k -> Omega^{k+1}; block-diagonal in kappa."""
    axes = range(1, layout.dimension + 1)
    return _ghost_map(layout, k, 1, [diff_matrix(layout, a) for a in axes])


def exact_basis(layout, j):
    """Orthonormal basis P_j of im d^j in the degree-(j + 1) block.

    d^j is block-diagonal in kappa with the symbol i K(kappa), K real and
    K(-kappa) = -K(kappa).  The Koszul complex of kappa != 0 is exact, so
    K(kappa) has rank C(D-1, j) there, and d^j vanishes at kappa = 0.  One
    batched SVD over a half-space gives real orthonormal columns u of
    im K(kappa); P_j holds the pairs (e_kappa + e_-kappa) u / sqrt(2) and
    i (e_kappa - e_-kappa) u / sqrt(2), so that U^H P_j is real for the
    cos/sin basis U of :meth:`BasisLayout.real_basis`.  Returns a sparse
    (size(j + 1), (n_modes - 1) C(D-1, j)) matrix.
    """
    D = layout.dimension
    n = layout.n_modes
    plus = np.arange(n // 2 + 1, n)
    kappa = layout.modes()[plus].astype(float)
    # K[m, r_out, r_in] = sign kappa_axis at plus[m]; + 0.0 clears the
    # signed zeros, which would move the SVD's output
    K = np.zeros((len(plus), comb(D, j + 1), comb(D, j)))
    for r_out, r_in, sign, axis in _ghost_terms(layout, j, 1):
        K[:, r_out, r_in] = sign * kappa[:, axis - 1] + 0.0
    rank = comb(D - 1, j)
    u = np.linalg.svd(K, full_matrices=False)[0][:, :, :rank] / np.sqrt(2.0)
    mode, r_out, c = np.indices(u.shape)
    rows_plus = (r_out * n + plus[mode]).ravel()
    rows_minus = (r_out * n + n - 1 - plus[mode]).ravel()
    cos = 2 * (mode * rank + c).ravel()
    u = u.ravel()
    P = sp.csr_matrix(
        (np.concatenate([u, u, 1j * u, -1j * u]),
         (np.concatenate([rows_plus, rows_minus, rows_plus, rows_minus]),
          np.concatenate([cos, cos, cos + 1, cos + 1]))),
        shape=(layout.size(j + 1), 2 * len(plus) * rank),
    )
    P.eliminate_zeros()
    return P


def codifferential_matrix(layout, k):
    """Euclidean codifferential Omega^k -> Omega^{k-1}: -sum_i iota_i d_i."""
    axes = range(1, layout.dimension + 1)
    return _ghost_map(layout, k, -1, [-diff_matrix(layout, a) for a in axes])


def multiply_matrix(f, layout, k):
    """Pointwise multiplication by a TrigField, channel-wise convolution."""
    if not 0 <= k <= layout.dimension:
        raise DegreeError(f"degree {k} outside 0..{layout.dimension}")
    mi = layout.multi_indices(k)
    conv = conv_matrix(f, layout)
    entries = [(r, r, conv) for r in range(len(mi))]
    return _channel_map(layout, k, k, entries)


def interior_matrix(G, layout, k):
    """Interior product with a flow field, Omega^k -> Omega^{k-1}.

    iota_G = sum_i G^i iota_i with the component multiplications realized
    as truncated convolutions.
    """
    if G.dimension != layout.dimension:
        raise ValueError("flow dimension does not match layout")
    return _ghost_map(layout, k, -1, _conv_factors(G.components, layout))


def one_form_wedge_matrix(components, layout, k):
    """Exterior multiplication by the 1-form sum_i components[i] dx^i."""
    return _ghost_map(layout, k, 1, _conv_factors(components, layout))


def hodge_star_matrix(layout, k):
    """Euclidean Hodge star Omega^k -> Omega^{D-k}: channel permutation."""
    if not 0 <= k <= layout.dimension:
        raise DegreeError(f"degree {k} outside 0..{layout.dimension}")
    D = layout.dimension
    mi_out = layout.multi_indices(D - k)
    eye = sp.identity(layout.n_modes, dtype=complex, format="csr")
    entries = []
    for r_in, I in enumerate(layout.multi_indices(k)):
        # Levi-Civita sign of (I, complement(I)): each ghost of I moves
        # past the complement's ghosts below it
        comp = tuple(a for a in range(1, D + 1) if a not in I)
        sign = prod((ghost_sign(a, comp) for a in I), start=1.0)
        entries.append((mi_out.index(comp), r_in, sign * eye))
    return _channel_map(layout, k, D - k, entries)


def hodge_star_inverse_matrix(layout, k):
    """Inverse star Omega^k -> Omega^{D-k}: (-1)^{k(D-k)} times the star."""
    return hodge_star_matrix(layout, k) * (-1.0) ** (k * (layout.dimension - k))


def integrate_top(psi):
    """Integral over T^D of a top form: (2 pi)^D times the kappa=0 amplitude."""
    D = psi.layout.dimension
    if psi.degree != D:
        raise ValueError(f"can only integrate top forms, got degree {psi.degree}")
    top_index = psi.layout.index(tuple(range(1, D + 1)), (0,) * D)
    return (2 * np.pi) ** D * psi.coeffs[top_index]
