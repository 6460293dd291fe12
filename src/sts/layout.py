"""Basis bookkeeping for the truncated Fourier representation of forms.

Degree-k differential forms on T^D are expanded as

    psi = sum_{I, kappa}  a(I, kappa)  exp(i kappa . x)  dx^I,

with I a strictly increasing multi-index of length k and kappa an integer
wavevector confined to the box |kappa_j| <= N.  The flat index is canonical:
multi-indices in lexicographic order outermost, wavevectors in lexicographic
order (axis 1 slowest) innermost, so every assembled matrix is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class BasisLayout:
    """Truncated Fourier-Galerkin basis of the exterior algebra on T^D."""

    dimension: int
    truncation: int

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.truncation < 1:
            raise ValueError(f"truncation must be positive, got {self.truncation}")

    @property
    def n_modes(self):
        return (2 * self.truncation + 1) ** self.dimension

    def multi_indices(self, k):
        """Strictly increasing multi-indices of length k, axes 1-based."""
        if not 0 <= k <= self.dimension:
            raise ValueError(f"degree {k} outside 0..{self.dimension}")
        return tuple(combinations(range(1, self.dimension + 1), k))

    def size(self, k):
        return comb(self.dimension, k) * self.n_modes

    def modes(self):
        """All wavevectors as an (n_modes, D) int array, axis 1 slowest."""
        N, D = self.truncation, self.dimension
        axes = np.meshgrid(*([np.arange(-N, N + 1)] * D), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def mode_index(self, kappa):
        """Flat position of wavevector(s) within one multi-index channel."""
        N, D = self.truncation, self.dimension
        kappa = np.asarray(kappa)
        if np.any(np.abs(kappa) > N):
            raise ValueError("wavevector outside the truncation box")
        weights = (2 * N + 1) ** np.arange(D - 1, -1, -1)
        return (kappa + N) @ weights

    def index(self, multi_index, kappa):
        """Flat basis index of exp(i kappa.x) dx^I in the degree-k block."""
        k = len(multi_index)
        rank = self.multi_indices(k).index(tuple(multi_index))
        return rank * self.n_modes + int(self.mode_index(kappa))

    def real_basis(self, k):
        """Sparse unitary U_k of the degree-k block's cos/sin basis.

        Per dx^I channel its columns are e_0, then for each kappa of one
        half-space the adjacent pair (e_kappa + e_-kappa)/sqrt(2) and
        i (e_kappa - e_-kappa)/sqrt(2).  The box is symmetric, so kappa
        maps to -kappa by reversing the mode order.  An operator that
        maps real forms to real forms has a real matrix U^H A U.
        """
        n = self.n_modes
        half = n // 2
        plus = np.arange(half + 1, n)
        cos = 2 * np.arange(half) + 1
        s = 1.0 / np.sqrt(2.0)
        rows = np.concatenate([[half], plus, n - 1 - plus, plus, n - 1 - plus])
        cols = np.concatenate([[0], cos, cos, cos + 1, cos + 1])
        vals = np.concatenate([[1.0], np.full(2 * half, s),
                               np.full(half, 1j * s), np.full(half, -1j * s)])
        offsets = n * np.arange(comb(self.dimension, k))[:, None]
        size = self.size(k)
        return sp.csr_matrix(
            (np.tile(vals, len(offsets)),
             ((rows + offsets).ravel(), (cols + offsets).ravel())),
            shape=(size, size),
        )

    def refined(self):
        """Same layout with truncation N + 2 (convergence checks)."""
        return BasisLayout(self.dimension, self.truncation + 2)


@dataclass
class FormVector:
    """Coefficient vector of a degree-k form in a given layout."""

    degree: int
    layout: BasisLayout
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = self.layout.size(self.degree)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for degree {self.degree}"
            )

    @classmethod
    def zero(cls, degree, layout):
        return cls(degree, layout, np.zeros(layout.size(degree), dtype=complex))

    def component(self, multi_index):
        """View of the coefficients of one dx^I channel, length n_modes."""
        k = len(multi_index)
        if k != self.degree:
            raise ValueError("multi-index length does not match form degree")
        rank = self.layout.multi_indices(k).index(tuple(multi_index))
        n = self.layout.n_modes
        return self.coeffs[rank * n : (rank + 1) * n]

    def set_coefficient(self, multi_index, kappa, value):
        self.coeffs[self.layout.index(multi_index, kappa)] = value

    def coefficient(self, multi_index, kappa):
        return self.coeffs[self.layout.index(multi_index, kappa)]
