"""Elementary operators of the exterior algebra in the truncated basis.

All operators are assembled as sparse complex matrices acting on the flat
coefficient vectors of :class:`~sts.layout.FormVector`.  Composite operators
elsewhere are built as products of these individually projected factors, so
the structural identities (d^2 = 0, adjointness, commutators with d) hold
exactly at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.sparse as sp

from .layout import BasisLayout, FormVector


class DegreeError(ValueError):
    """Raised when an operator is requested outside its degree range."""


@dataclass
class OperatorBlock:
    """A linear map from degree k_in coefficients to degree k_out."""

    k_in: int
    k_out: int
    layout: BasisLayout
    matrix: sp.spmatrix = field(repr=False)

    def __post_init__(self):
        expected = (self.layout.size(self.k_out), self.layout.size(self.k_in))
        if self.matrix.shape != expected:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match layout "
                f"sizes {expected}"
            )

    @property
    def dense(self):
        return self.matrix.toarray() if sp.issparse(self.matrix) else self.matrix

    def apply(self, form):
        if form.degree != self.k_in or form.layout != self.layout:
            raise ValueError("form does not match operator domain")
        return FormVector(self.k_out, self.layout, self.matrix @ form.coeffs)

    def __mul__(self, scalar):
        return OperatorBlock(self.k_in, self.k_out, self.layout, self.matrix * scalar)

    __rmul__ = __mul__


# -- sign bookkeeping for increasing multi-indices ---------------------------


def insert_sign(axis, multi_index):
    """Sign of dx^axis wedged in front of dx^I, axis not in I."""
    return -1.0 if sum(1 for a in multi_index if a < axis) % 2 else 1.0


def remove_sign(axis, multi_index):
    """Sign of contracting dx^axis out of dx^I, axis in I."""
    return -1.0 if multi_index.index(axis) % 2 else 1.0


def complement_sign(multi_index, dimension):
    """Levi-Civita sign of the permutation (I, complement(I))."""
    comp = tuple(a for a in range(1, dimension + 1) if a not in multi_index)
    perm = multi_index + comp
    sign = 1.0
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign, comp


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
    N, D = layout.truncation, layout.dimension
    modes = layout.modes()
    n = layout.n_modes
    weights = (2 * N + 1) ** np.arange(D - 1, -1, -1)
    flat = (modes + N) @ weights
    rows, cols, vals = [], [], []
    for mu, c in f.coeffs.items():
        target = modes + np.asarray(mu)
        ok = np.all(np.abs(target) <= N, axis=1)
        rows.append(((target[ok] + N) @ weights))
        cols.append(flat[ok])
        vals.append(np.full(int(ok.sum()), c, dtype=complex))
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


def _wedge_map(layout, k, factors):
    """Sum over axes of dx^axis ^ (factors[axis - 1] on every channel).

    Maps degree k to k + 1; a factor of None is a vanishing term.
    """
    mi_out = layout.multi_indices(k + 1)
    entries = [
        (mi_out.index(tuple(sorted(I + (axis,)))), r_in,
         insert_sign(axis, I) * factors[axis - 1])
        for r_in, I in enumerate(layout.multi_indices(k))
        for axis in range(1, layout.dimension + 1)
        if axis not in I and factors[axis - 1] is not None
    ]
    return OperatorBlock(k, k + 1, layout, _channel_map(layout, k, k + 1, entries))


def _contraction_map(layout, k, factors):
    """Sum over axes of factors[axis - 1] times the contraction iota_axis.

    Maps degree k to k - 1; a factor of None is a vanishing term.
    """
    mi_out = layout.multi_indices(k - 1)
    entries = [
        (mi_out.index(tuple(a for a in I if a != axis)), r_in,
         remove_sign(axis, I) * factors[axis - 1])
        for r_in, I in enumerate(layout.multi_indices(k))
        for axis in I
        if factors[axis - 1] is not None
    ]
    return OperatorBlock(k, k - 1, layout, _channel_map(layout, k, k - 1, entries))


def _conv_factors(components, layout):
    return [conv_matrix(c, layout) if c.coeffs else None for c in components]


# -- the elementary operators -------------------------------------------------


def d_matrix(layout, k):
    """Exterior derivative Omega^k -> Omega^{k+1}; block-diagonal in kappa."""
    if not 0 <= k < layout.dimension:
        raise DegreeError(f"exterior derivative undefined at degree {k}")
    axes = range(1, layout.dimension + 1)
    return _wedge_map(layout, k, [diff_matrix(layout, a) for a in axes])


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
    # K[m, r_out, r_in] = Im d[r_out n + plus[m], r_in n + plus[m]]
    at = plus[:, None, None]
    rows, cols = np.broadcast_arrays(
        np.arange(comb(D, j + 1))[:, None] * n + at,
        np.arange(comb(D, j))[None, :] * n + at)
    d = d_matrix(layout, j).matrix
    K = np.asarray(d[rows.ravel(), cols.ravel()]).reshape(rows.shape).imag
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
    if not 1 <= k <= layout.dimension:
        raise DegreeError(f"codifferential undefined at degree {k}")
    axes = range(1, layout.dimension + 1)
    return _contraction_map(layout, k, [-diff_matrix(layout, a) for a in axes])


def multiply_matrix(f, layout, k):
    """Pointwise multiplication by a TrigField, channel-wise convolution."""
    mi = layout.multi_indices(k)
    conv = conv_matrix(f, layout)
    entries = [(r, r, conv) for r in range(len(mi))]
    return OperatorBlock(k, k, layout, _channel_map(layout, k, k, entries))


def interior_matrix(G, layout, k):
    """Interior product with a flow field, Omega^k -> Omega^{k-1}.

    iota_G = sum_i G^i iota_i with the component multiplications realized
    as truncated convolutions.
    """
    if not 1 <= k <= layout.dimension:
        raise DegreeError(f"interior product undefined at degree {k}")
    if G.dimension != layout.dimension:
        raise ValueError("flow dimension does not match layout")
    return _contraction_map(layout, k, _conv_factors(G.components, layout))


def one_form_wedge_matrix(components, layout, k):
    """Exterior multiplication by the 1-form sum_i components[i] dx^i."""
    if not 0 <= k < layout.dimension:
        raise DegreeError(f"wedge by a 1-form undefined at degree {k}")
    return _wedge_map(layout, k, _conv_factors(components, layout))


def hodge_star_matrix(layout, k):
    """Euclidean Hodge star Omega^k -> Omega^{D-k}: channel permutation."""
    if not 0 <= k <= layout.dimension:
        raise DegreeError(f"degree {k} outside 0..{layout.dimension}")
    D = layout.dimension
    mi_in = layout.multi_indices(k)
    mi_out = layout.multi_indices(D - k)
    eye = sp.identity(layout.n_modes, dtype=complex, format="csr")
    entries = []
    for r_in, I in enumerate(mi_in):
        sign, comp = complement_sign(I, D)
        r_out = mi_out.index(comp)
        entries.append((r_out, r_in, sign * eye))
    return OperatorBlock(k, D - k, layout, _channel_map(layout, k, D - k, entries))


def hodge_star_inverse_matrix(layout, k):
    """Inverse star Omega^k -> Omega^{D-k}: (-1)^{k(D-k)} times the star."""
    D = layout.dimension
    sign = -1.0 if (k * (D - k)) % 2 else 1.0
    return sign * hodge_star_matrix(layout, k)


def integrate_top(psi):
    """Integral over T^D of a top form: (2 pi)^D times the kappa=0 amplitude."""
    D = psi.layout.dimension
    if psi.degree != D:
        raise ValueError(f"can only integrate top forms, got degree {psi.degree}")
    top_index = psi.layout.index(tuple(range(1, D + 1)), (0,) * D)
    return (2 * np.pi) ** D * psi.coeffs[top_index]
