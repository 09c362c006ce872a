"""Tests for the shared numerical mechanisms."""

import numpy as np
import pytest

from hitchin.lie import TensorRepSpace
from hitchin.numerics import RING_NODES, ring_gradient, site_differences
from hitchin.rational_classical import RationalPhasePoint, lax_rational
from hitchin.rational_quantum import GaudinSystem
from hitchin.theta import PoleError


def test_ring_gradient_is_exact_on_polynomials():
    # degree RING_NODES - 1 in every coordinate: the trapezoidal rule on
    # RING_NODES nodes integrates it exactly
    rng = np.random.default_rng(0)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    deg = RING_NODES - 1

    def f(ys):
        return (c * ys ** deg).sum(axis=1) + ys[:, 0] * ys[:, 1] * ys[:, 2]

    exact = deg * c * x ** (deg - 1) + np.prod(x) / x
    grad = ring_gradient(f, x, [0.1, 0.2, 0.3])
    assert grad.shape == (3,)
    assert np.max(np.abs(grad - exact) / np.abs(exact)) < 1e-13


def test_ring_gradient_matches_per_point_loop():
    # a vector-valued map, called once on the stack of ring points, gives
    # the partials of a loop over the ring points one at a time
    rng = np.random.default_rng(1)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    radii = 1e-2 * (1.0 + np.arange(4))

    def f(ys):
        return np.stack([np.exp(ys).sum(axis=1), ys[:, 0] / (3.0 - ys[:, 3]),
                         np.sin(ys[:, 1] * ys[:, 2])], axis=1)

    ring = np.exp(2j * np.pi * np.arange(RING_NODES) / RING_NODES)
    loop = []
    for k in range(x.size):
        vals = []
        for w in ring:
            y = x.copy()
            y[k] += radii[k] * w
            vals.append(f(y[None])[0])
        loop.append(ring.conj() @ np.array(vals) / (RING_NODES * radii[k]))
    grad = ring_gradient(f, x, radii)
    assert grad.shape == (4, 3)
    assert np.max(np.abs(grad - np.array(loop))) < 1e-12 * np.max(np.abs(grad))


def test_pole_guard_is_relative_to_the_sites():
    # 1e-9 from a site at 1e6 is within 1e-12 of its modulus: both the
    # classical Lax matrix and the quantum current refuse it
    sites = [0.0, 1e6]
    near, far = 1e6 + 1e-9, 1e6 + 1e-3
    assert np.array_equal(site_differences([far], sites),
                          [[far - 0.0, far - 1e6]])
    point = RationalPhasePoint(np.zeros((2, 2, 2)), sites)
    system = GaudinSystem(TensorRepSpace([1, 1]), sites)
    for call in (lambda z: site_differences(z, sites),
                 lambda z: lax_rational(point, z),
                 lambda z: system.current(np.eye(2), z)):
        with pytest.raises(PoleError, match="1000000"):
            call(near)
        call(far)
