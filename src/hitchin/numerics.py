"""Numerical mechanisms shared by the rational and elliptic systems:
partial-fraction extraction, Cauchy-ring gradients, and the distinct-points
check and the pole guard for marked points on the sphere."""

import numpy as np

from .theta import PoleError

RING_NODES = 16
_RING = np.exp(2j * np.pi * np.arange(RING_NODES) / RING_NODES)


def multi_indices(nsites, total):
    """All tuples of nonnegative integers of given length summing to total."""
    if nsites == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in multi_indices(nsites - 1, total - head):
            out.append((head,) + tail)
    return out


class PartialFractionPlan:
    """Extraction plan for rational functions in the span of the basis
    prod_i (zeta - z_i)^(-a_i) over multi-indices a with sum a_i = total.

    The function is sampled at ``count`` nodes on a circle enclosing every
    site, rotated by ``offset`` node spacings; the rows of the
    pseudoinverse ``weights`` express each coefficient as a fixed linear
    functional of those node values.
    """

    def __init__(self, sites, total, count, offset):
        self.sites = list(sites)
        self.keys = multi_indices(len(self.sites), total)
        radius = 2.0 * max(abs(z) for z in self.sites) + 3.0
        self.nodes = radius * np.exp(
            2j * np.pi * (np.arange(count) + offset) / count)
        basis = np.array([self.basis(z) for z in self.nodes])
        self.weights = np.linalg.pinv(basis, rcond=1e-12)

    def basis(self, zeta):
        """Values prod_i (zeta - z_i)^(-a_i) at zeta, one per key a."""
        out = []
        for a in self.keys:
            val = 1.0 + 0.0j
            for ai, zi in zip(a, self.sites):
                val *= (zeta - zi) ** (-ai)
            out.append(val)
        return np.array(out)

    def coefficients(self, values):
        """Coefficients, one per key, of the function taking ``values``
        (scalars or stacked arrays) at the nodes."""
        return np.tensordot(self.weights, np.asarray(values), axes=1)

    def evaluate(self, coeffs, zeta):
        """The function with the given coefficients, evaluated at zeta."""
        return np.tensordot(self.basis(zeta), np.asarray(coeffs), axes=1)


def ring_gradient(f, x, radii):
    """Partial derivatives of a holomorphic map at the coordinates x.

    f takes a stack of points, shape (m, x.size), and returns their m
    values stacked, shape (m,) or (m,) + value shape; it is called once,
    on all x.size * RING_NODES ring points.  The partial in x_k is the
    trapezoidal rule for Cauchy's integral on the circle of radius
    radii[k] about x_k with RING_NODES nodes, so its error decays like
    (radii[k] / R)^RING_NODES, R the distance to the nearest singularity;
    polynomials of degree below RING_NODES are differentiated exactly.
    Returns an array of shape (x.size,) + value shape.
    """
    x = np.asarray(x, dtype=complex).ravel()
    radii = np.broadcast_to(np.asarray(radii, dtype=float), x.shape)
    # ring point (k, j) moves x_k to x_k + radii[k] * _RING[j]
    points = np.tile(x, (x.size, RING_NODES, 1))
    k = np.arange(x.size)
    points[k, :, k] += radii[:, None] * _RING
    vals = np.asarray(f(points.reshape(-1, x.size)))
    vals = vals.reshape((x.size, RING_NODES) + vals.shape[1:])
    grad = np.tensordot(_RING.conj(), vals, axes=([0], [1]))
    return grad / (RING_NODES * radii).reshape((-1,) + (1,) * (grad.ndim - 1))


def check_distinct(points):
    """Raise ValueError unless the marked points are pairwise distinct
    (relative to the largest of 1 and their moduli)."""
    scale = max([1.0] + [abs(z) for z in points])
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= 1e-10 * scale:
                raise ValueError("marked points must be pairwise distinct")


def site_differences(z, sites):
    """The differences z - z_i, shape z.shape + (len(sites),); PoleError
    when a point z lies within 1e-12 max(1, |z_i|) of a marked point."""
    sites = np.asarray(sites)
    dz = np.asarray(z)[..., None] - sites
    bad = np.abs(dz) < 1e-12 * max(1.0, np.abs(sites).max())
    if bad.any():
        raise PoleError("evaluation at marked point %r"
                        % (complex(sites[np.nonzero(bad)[-1][0]]),))
    return dz
