"""Spectral analysis of stochastic flows on flat tori.

The package builds the evolution operators of noisy dynamical systems on
T^D (D = 1, 2, 3) in a truncated Fourier basis of differential forms,
solves their spectra, classifies the dynamical phase, and cross-validates
against direct stochastic simulation.
"""

from .layout import BasisLayout, FormVector
from .trig import FlowField, TrigField, identity_frame

__all__ = [
    "BasisLayout",
    "FormVector",
    "FlowField",
    "TrigField",
    "identity_frame",
]

__version__ = "0.1.0"
