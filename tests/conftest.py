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
