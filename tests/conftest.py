"""Shared models and expensive session-scoped computations."""

import numpy as np
import pytest

from sts.config import abc_field
from sts.layout import BasisLayout
from sts.operators import SdeModel, kd_operator
from sts.spectral import Tolerances, analyze
from sts.trig import FlowField, TrigField, identity_frame


def langevin_cos_model(layout=None, theta=0.5):
    layout = layout or BasisLayout(1, 16)
    return SdeModel(
        layout, FlowField([TrigField.sin(1, 0)]), identity_frame(1), theta
    )


def multiplicative_model(layout=None, theta=0.5, eps=0.3, alpha=0.5):
    layout = layout or BasisLayout(1, 12)
    e = FlowField([TrigField.constant(1, 1.0) + TrigField.cos(1, 0, eps)])
    return SdeModel(layout, FlowField.zero(1), [e], theta, alpha)


def shear_model(layout=None, theta=0.4):
    layout = layout or BasisLayout(2, 4)
    return SdeModel(
        layout,
        FlowField([TrigField.sin(2, 1), TrigField.zero(2)]),
        identity_frame(2),
        theta,
    )


def random_flow_model(seed, dimension=2, layout=None, theta=0.3):
    layout = layout or BasisLayout(dimension, 4)
    rng = np.random.default_rng(seed)
    flow = FlowField(
        [TrigField.random(dimension, 1, rng, 0.4) for _ in range(dimension)]
    )
    return SdeModel(layout, flow, identity_frame(dimension), theta)


# windows established by the eta sweep exercised in the acceptance suite
ABC_ETA = 0.08
ROBERTS_ETA = 0.1
DYNAMO_N = 4
DYNAMO_TOL = Tolerances(tol_converge=1e-2)


@pytest.fixture(scope="session")
def abc_report():
    """Full spectral report of the ABC dynamo operator in the window."""
    flow = abc_field(1.0, 1.0, 1.0)
    builder = lambda lay: kd_operator(flow, ABC_ETA, lay)
    blocks = builder(BasisLayout(3, DYNAMO_N))
    rep = analyze(blocks, builder=builder, tol=DYNAMO_TOL)
    return flow, blocks, rep


@pytest.fixture(scope="session")
def roberts_report():
    """Spectral report for the C=0 member of the ABC family (steady dynamo)."""
    flow = abc_field(1.0, 1.0, 0.0)
    builder = lambda lay: kd_operator(flow, ROBERTS_ETA, lay)
    blocks = builder(BasisLayout(3, DYNAMO_N))
    rep = analyze(blocks, builder=builder, tol=DYNAMO_TOL)
    return flow, blocks, rep
