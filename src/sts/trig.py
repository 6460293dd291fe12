"""Exact calculus of trigonometric polynomials on the flat torus.

A ``TrigField`` is a real-valued function on T^D = [0, 2pi)^D stored as a
finite map from integer wavevectors to complex Fourier amplitudes,

    f(x) = sum_kappa  c_kappa  exp(i kappa . x),   c_{-kappa} = conj(c_kappa).

Differentiation and multiplication are carried out exactly (no truncation),
so drift shifts and noise gradients derived from these fields are free of
discretization error.
"""

from __future__ import annotations

import numpy as np

_REALITY_TOL = 1e-12


class TrigField:
    """Real trigonometric polynomial on T^D with finite Fourier support.

    ``coeffs`` is read-only: every operation returns a new field, and
    ``evaluate`` caches a real cos/sin fold of the coefficients.
    """

    __slots__ = ("dimension", "coeffs", "_fold")

    def __init__(self, dimension, coeffs, _validate=True):
        self.dimension = int(dimension)
        clean = {}
        for kappa, c in coeffs.items():
            kappa = tuple(int(k) for k in kappa)
            if len(kappa) != self.dimension:
                raise ValueError(
                    f"wavevector {kappa} does not match dimension {self.dimension}"
                )
            c = complex(c)
            if c != 0:
                clean[kappa] = clean.get(kappa, 0.0) + c
        clean = {k: c for k, c in clean.items() if abs(c) > 0.0}
        self.coeffs = clean
        self._fold = None
        if _validate:
            self._check_reality()

    def _check_reality(self):
        scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
        for kappa, c in self.coeffs.items():
            neg = tuple(-k for k in kappa)
            other = self.coeffs.get(neg, 0.0)
            if abs(other - np.conj(c)) > _REALITY_TOL * max(scale, 1.0):
                raise ValueError(
                    f"coefficients at {kappa}/{neg} violate the reality condition"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension):
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension, value):
        return cls(dimension, {(0,) * dimension: complex(value)})

    @classmethod
    def harmonic(cls, dimension, kappa, amplitude=1.0, phase="cos"):
        """amplitude*cos(kappa.x) or amplitude*sin(kappa.x)."""
        kappa = tuple(int(k) for k in kappa)
        neg = tuple(-k for k in kappa)
        if all(k == 0 for k in kappa):
            if phase == "cos":
                return cls.constant(dimension, amplitude)
            return cls.zero(dimension)
        if phase == "cos":
            half = 0.5 * amplitude
            return cls(dimension, {kappa: half, neg: half})
        if phase == "sin":
            half = amplitude / 2j
            return cls(dimension, {kappa: half, neg: -half})
        raise ValueError(f"unknown phase {phase!r}")

    @classmethod
    def cos(cls, dimension, axis, amplitude=1.0, harmonic=1):
        kappa = tuple(harmonic if j == axis else 0 for j in range(dimension))
        return cls.harmonic(dimension, kappa, amplitude, "cos")

    @classmethod
    def sin(cls, dimension, axis, amplitude=1.0, harmonic=1):
        kappa = tuple(harmonic if j == axis else 0 for j in range(dimension))
        return cls.harmonic(dimension, kappa, amplitude, "sin")

    @classmethod
    def random(cls, dimension, bandwidth, rng, amplitude=1.0):
        """Random real field with support in the |kappa_j| <= bandwidth box."""
        coeffs = {}
        ranges = [range(-bandwidth, bandwidth + 1)] * dimension
        import itertools

        for kappa in itertools.product(*ranges):
            if kappa <= tuple(-k for k in kappa):
                continue  # take one representative per +-kappa pair
            c = amplitude * (rng.standard_normal() + 1j * rng.standard_normal())
            coeffs[kappa] = c
            coeffs[tuple(-k for k in kappa)] = np.conj(c)
        coeffs[(0,) * dimension] = amplitude * rng.standard_normal()
        return cls(dimension, coeffs)

    # -- exact calculus ----------------------------------------------------

    def diff(self, axis):
        """Exact partial derivative along ``axis`` (0-based)."""
        return TrigField(
            self.dimension,
            {k: 1j * k[axis] * c for k, c in self.coeffs.items() if k[axis] != 0},
            _validate=False,
        )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TrigField.constant(self.dimension, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TrigField(self.dimension, out, _validate=False)

    __radd__ = __add__

    def __neg__(self):
        return TrigField(
            self.dimension, {k: -c for k, c in self.coeffs.items()}, _validate=False
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigField) else -float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigField(
                self.dimension,
                {k: other * c for k, c in self.coeffs.items()},
                _validate=False,
            )
        if not isinstance(other, TrigField):
            return NotImplemented
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0.0) + c1 * c2
        return TrigField(self.dimension, out, _validate=False)

    __rmul__ = __mul__

    def bandwidth(self):
        """Largest |kappa_j| over the support, 0 for the zero field."""
        return max((max(abs(k) for k in kappa) for kappa in self.coeffs), default=0)

    def coefficient(self, kappa):
        return self.coeffs.get(tuple(kappa), 0.0 + 0.0j)

    def mean(self):
        """Average over the torus (the kappa = 0 amplitude)."""
        return self.coefficient((0,) * self.dimension).real

    def _folded(self):
        """The field as mean + sum_K (a_K cos K.x + b_K sin K.x) over one
        half-space of wavevectors, zero weights dropped.

        With s_K = c_K + conj(c_{-K}), Re(c_K e^{iK.x} + c_{-K} e^{-iK.x})
        = Re s_K cos K.x - Im s_K sin K.x for any coefficients.
        """
        if self._fold is None:
            zero = (0,) * self.dimension
            half = sorted({max(k, tuple(-j for j in k)) for k in self.coeffs} - {zero})
            s = np.array([self.coefficient(k) + np.conj(self.coefficient([-j for j in k]))
                          for k in half], dtype=complex)
            K = np.array(half, dtype=float).reshape(-1, self.dimension)
            a, b = s.real, -s.imag
            self._fold = (self.mean(), (K[a != 0].T, a[a != 0]), (K[b != 0].T, b[b != 0]))
        return self._fold

    def evaluate(self, x):
        """Evaluate at points ``x`` of shape (..., D) as real cos/sin sums."""
        mean, (k_cos, w_cos), (k_sin, w_sin) = self._folded()
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1], mean)
        if len(w_cos):
            out += np.cos(x @ k_cos) @ w_cos
        if len(w_sin):
            out += np.sin(x @ k_sin) @ w_sin
        return out

    def max_abs(self):
        """Upper bound on sup|f| (sum of amplitude moduli)."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def __repr__(self):
        return f"TrigField(D={self.dimension}, modes={len(self.coeffs)})"


class FlowField:
    """Vector field on T^D with one TrigField per component."""

    __slots__ = ("dimension", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a flow field needs at least one component")
        dim = components[0].dimension
        if len(components) != dim:
            raise ValueError(
                f"expected {dim} components for a flow on T^{dim}, "
                f"got {len(components)}"
            )
        if any(c.dimension != dim for c in components):
            raise ValueError("component dimensions disagree")
        self.dimension = dim
        self.components = components

    @classmethod
    def zero(cls, dimension):
        return cls([TrigField.zero(dimension)] * dimension)

    @classmethod
    def constant(cls, values):
        dim = len(values)
        return cls([TrigField.constant(dim, v) for v in values])

    @classmethod
    def unit(cls, dimension, axis):
        """The constant frame vector along ``axis`` (0-based)."""
        return cls.constant([1.0 if j == axis else 0.0 for j in range(dimension)])

    @classmethod
    def gradient(cls, potential):
        return cls([potential.diff(j) for j in range(potential.dimension)])

    def __getitem__(self, i):
        return self.components[i]

    def __neg__(self):
        return FlowField([-c for c in self.components])

    def bandwidth(self):
        return max(c.bandwidth() for c in self.components)

    def evaluate(self, x):
        """Evaluate all components at points (..., D); returns (..., D)."""
        return np.stack([c.evaluate(x) for c in self.components], axis=-1)

    def max_abs(self):
        return max(c.max_abs() for c in self.components)

    def __repr__(self):
        return f"FlowField(D={self.dimension})"


def identity_frame(dimension):
    """The Euclidean frame e_a^i = delta_a^i as a list of FlowFields."""
    return [FlowField.unit(dimension, a) for a in range(dimension)]
