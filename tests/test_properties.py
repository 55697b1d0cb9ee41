"""Batched potential evaluation equals stacked single-point evaluation.

Every catalogue entry takes points of shape (..., d); these properties check
the batched value, gradient, Hessian and corrected gradient against one call
per point, on batches with no, one and two leading axes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfglab.errors import InvalidParameter
from mfglab.potentials import (
    corrected_gradient,
    make_delarue_terminal,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)

CATALOGUE = [
    make_zero(1),
    make_zero(2),
    make_quadratic(1.0, 1),
    make_quadratic(-1.0, 2),
    make_quadratic(0.5, 2, kappa=[0.7, -0.3]),
    make_logcosh_terminal(4.0),
    make_delarue_terminal(0.0, 1.0, 0.1),
    make_radial_logcosh(4.0, 2),
]

LEADING = st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                    st.tuples(st.integers(1, 4), st.integers(1, 4)))


def batches(p):
    r = p.probe_radius
    return LEADING.flatmap(lambda lead: arrays(
        np.float64, lead + (p.dim,), elements=st.floats(-r, r)))


def stacked(fn, pts, dim):
    flat = pts.reshape(-1, dim)
    out = np.array([fn(x) for x in flat])
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("p", CATALOGUE, ids=lambda p: p.name)
@settings(deadline=None, max_examples=30)
@given(data=st.data(), N=st.integers(1, 1000))
def test_batched_equals_stacked(p, data, N):
    pts = data.draw(batches(p))
    lead = pts.shape[:-1]
    value, grad, hess = p.value(pts), p.gradient(pts), p.hessian(pts)
    cg = corrected_gradient(p, N, pts)
    assert np.shape(value) == lead
    assert grad.shape == lead + (p.dim,)
    assert hess.shape == lead + (p.dim, p.dim)
    assert cg.shape == lead + (p.dim,)
    close(value, stacked(p.value, pts, p.dim))
    close(grad, stacked(p.gradient, pts, p.dim))
    close(hess, stacked(p.hessian, pts, p.dim))
    close(cg, stacked(lambda x: corrected_gradient(p, N, x), pts, p.dim))


def test_radial_gradient_exactly_zero_at_origin():
    p = make_radial_logcosh(4.0, 2)
    for shape in ((2,), (3, 2), (2, 2, 2)):
        assert np.all(p.gradient(np.zeros(shape)) == 0.0)
    mixed = p.gradient(np.array([[0.0, 0.0], [1.0, -0.5]]))
    assert np.all(mixed[0] == 0.0) and np.all(mixed[1] != 0.0)


@pytest.mark.parametrize("p", CATALOGUE, ids=lambda p: p.name)
def test_wrong_last_axis_rejected(p):
    for shape in ((p.dim + 1,), (3, p.dim + 1), (2, 2, p.dim + 1)):
        bad = np.ones(shape)
        for fn in (p.value, p.gradient, p.hessian, lambda m: corrected_gradient(p, 10, m)):
            with pytest.raises(InvalidParameter):
                fn(bad)
