"""Exact trigonometric calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
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


def _direct(f, x):
    """Re sum_kappa c_kappa exp(i kappa.x), one complex exponential per mode."""
    out = np.zeros(x.shape[:-1], dtype=complex)
    for kappa, c in f.coeffs.items():
        out += c * np.exp(1j * (x @ np.asarray(kappa, dtype=float)))
    return out.real


def _points(rng, D):
    """Points of shape (D,), (n, D) and (T, n, D), some outside [0, 2pi)."""
    return [rng.uniform(-7, 14, size=shape)
            for shape in [(D,), (9, D), (3, 5, D), (1001, D)]]


def _assert_matches_direct(f, xs):
    for x in xs:
        got = f.evaluate(x)
        assert got.shape == x.shape[:-1]
        assert np.max(np.abs(got - _direct(f, x)), initial=0.0) <= (
            1e-12 * max(1.0, f.max_abs()))
        assert np.array_equal(f.evaluate(x), got)
        if x.ndim > 1:
            # a row's bits do not depend on the rows that share its call
            split = np.concatenate([f.evaluate(x[:7]), f.evaluate(x[7:])])
            assert np.array_equal(split, got)


@given(
    D=st.integers(1, 3),
    bandwidth=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    axis=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_direct_summation(D, bandwidth, seed, axis):
    rng = np.random.default_rng(seed)
    f = TrigField.random(D, bandwidth, rng, amplitude=rng.uniform(0.1, 3))
    g = TrigField.random(D, 1, rng)
    xs = _points(rng, D)
    for field in (f, f * g, f.diff(axis % D), (f * g).diff(axis % D)):
        _assert_matches_direct(field, xs)


def test_evaluate_folds_coefficients_that_are_not_conjugate():
    f = TrigField(2, {(1, 0): 1 + 2j, (-1, 0): 0.5 - 1j, (0, 1): 3j,
                      (2, -1): -1.5, (0, 0): 0.25 + 4j}, _validate=False)
    xs = _points(np.random.default_rng(1), 2)
    _assert_matches_direct(f, xs)
    _assert_matches_direct(f * f.diff(1), xs)


def test_evaluate_caches_its_fold():
    f = TrigField.random(3, 2, np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(20, 3))
    first = f.evaluate(x)
    fold = f._folded()
    assert f._folded() is fold
    assert np.array_equal(f.evaluate(x), first)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_zero_and_constant_fields_evaluate_exactly(D):
    for x in _points(np.random.default_rng(D), D):
        for f in (TrigField.zero(D), TrigField.constant(D, -1.7)):
            assert np.array_equal(f.evaluate(x), _direct(f, x))
