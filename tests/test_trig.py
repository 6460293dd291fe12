"""Exact trigonometric calculus."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sts.trig import FlowField, TrigField, identity_frame


def test_reality_enforced():
    with pytest.raises(ValueError):
        TrigField(1, {(1,): 1.0 + 0j, (-1,): 2.0 + 0j})


def test_diff_cos_is_minus_sin():
    f = TrigField.cos(1, 0)
    g = f.diff(0)
    assert (g - TrigField.sin(1, 0, -1.0)).max_abs() < 1e-15


def test_mul_cos_squared():
    f = TrigField.cos(1, 0)
    expect = TrigField.constant(1, 0.5) + TrigField.cos(1, 0, 0.5, 2)
    assert (f * f - expect).max_abs() < 1e-15


def test_mul_sin_times_one_plus_cos():
    f = TrigField.sin(1, 0)
    g = TrigField.constant(1, 1.0) + TrigField.cos(1, 0)
    expect = TrigField.sin(1, 0) + TrigField.harmonic(1, (2,), 0.5, "sin")
    assert (f * g - expect).max_abs() < 1e-15


def test_bandwidth_adds_under_product():
    f = TrigField.cos(2, 0, harmonic=2)
    g = TrigField.sin(2, 1, harmonic=3)
    assert (f * g).bandwidth() == 3
    assert (f * f).bandwidth() == 4


def test_evaluate_matches_closed_form():
    f = TrigField.cos(2, 0, 1.5) + TrigField.sin(2, 1, 0.5, 2)
    x = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(40, 2))
    expect = 1.5 * np.cos(x[:, 0]) + 0.5 * np.sin(2 * x[:, 1])
    assert np.allclose(f.evaluate(x), expect, atol=1e-12)


def test_random_field_is_real():
    rng = np.random.default_rng(3)
    f = TrigField.random(2, 2, rng)
    x = rng.uniform(0, 2 * np.pi, size=(10, 2))
    vals = np.array(
        [sum(c * np.exp(1j * xi @ np.array(k)) for k, c in f.coeffs.items())
         for xi in x]
    )
    assert np.abs(vals.imag).max() < 1e-12


def test_mean_and_coefficient():
    f = TrigField.constant(1, 2.0) + TrigField.cos(1, 0, 3.0)
    assert f.mean() == 2.0
    assert f.coefficient((1,)) == 1.5


def test_flow_jacobian_and_divergence():
    flow = FlowField([TrigField.sin(2, 1), TrigField.cos(2, 0)])
    jac = flow.jacobian()
    assert (jac[0][1] - TrigField.cos(2, 1)).max_abs() < 1e-15
    assert jac[0][0].max_abs() == 0.0
    assert flow.divergence().max_abs() == 0.0


def test_gradient_flow():
    U = TrigField.cos(2, 0) + TrigField.sin(2, 1)
    grad = FlowField.gradient(U)
    assert (grad[0] - TrigField.sin(2, 0, -1.0)).max_abs() < 1e-15
    assert (grad[1] - TrigField.cos(2, 1)).max_abs() < 1e-15


def test_identity_frame():
    frame = identity_frame(3)
    assert len(frame) == 3
    x = np.zeros((1, 3))
    for a, e in enumerate(frame):
        v = e.evaluate(x)[0]
        assert np.allclose(v, np.eye(3)[a])


@given(
    a=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    b=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
def test_product_and_leibniz_properties(a, b):
    f = TrigField.constant(1, a[0]) + TrigField.cos(1, 0, a[1]) + TrigField.sin(1, 0, a[2])
    g = TrigField.constant(1, b[0]) + TrigField.cos(1, 0, b[1], 2) + TrigField.sin(1, 0, b[2])
    fg = f * g
    x = np.linspace(0.0, 2 * np.pi, 17)[:, None]
    assert np.allclose(fg.evaluate(x), f.evaluate(x) * g.evaluate(x), atol=1e-12)
    lhs = fg.diff(0)
    rhs = f.diff(0) * g + f * g.diff(0)
    assert (lhs - rhs).max_abs() < 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        FlowField([TrigField.zero(1), TrigField.zero(2)])
    with pytest.raises(ValueError):
        TrigField(2, {(1,): 1.0})
