"""Fixtures shared by the test modules."""

import numpy as np
import pytest


class LatticeRng:
    """Generator stand-in whose angles are 0 and moduli 1: the twists (and
    sites) it draws all coincide, so every draw lands on the lattice."""

    def __init__(self):
        self.draws = 0

    def uniform(self, low, high, size=None):
        self.draws += 1
        return np.full(size or (), 0.0 if low == 0 else 1.0)

    def normal(self, size=None):
        return np.ones(size or ())


@pytest.fixture
def lattice_rng():
    return LatticeRng()


class RingObservable:
    """A bare callable fun as a bracket observable.  The brackets read only
    ``gradients``; here they are the Cauchy-ring partials
    ``partials(fun, point)``, with partials rational_classical's
    _numerical_gradients or elliptic_classical's _gradients."""

    def __init__(self, fun, partials):
        self.fun = fun
        self.partials = partials

    def gradients(self, point):
        return self.partials(self.fun, point)


@pytest.fixture
def ring_observable():
    return RingObservable
