"""Classical rational integrable system on the punctured sphere.

Lax matrix with simple poles at marked points, partial-fraction coefficients
of its power traces (the conserved Hamiltonians), the Kostant-Kirillov
Poisson bracket on products of coadjoint orbits, and the induced
isospectral flows with an RK4 integrator.
"""

import functools

import numpy as np

from .numerics import (PartialFractionPlan, check_distinct, ring_gradient,
                       site_differences)
from .theta import PoleError  # noqa: F401  (lax_rational raises it)


class RationalPhasePoint:
    """Matrices eta[i] in gl_n attached to distinct marked points sites[i],
    held as one complex array of shape (N, n, n).

    ``copy_with_eta`` also accepts a stack of shape (..., N, n, n): such a
    batched point is evaluated by ``lax_rational``, ``HitchinCoefficients``
    and ``HitchinObservable.value`` once for every leading index.
    """

    def __init__(self, eta, sites):
        try:
            self.eta = np.array(eta, dtype=complex)
        except ValueError:  # matrices of different sizes
            self.eta = np.empty(0)
        if (self.eta.ndim != 3 or 0 in self.eta.shape
                or self.eta.shape[1] != self.eta.shape[2]):
            raise ValueError("need one or more square site matrices of "
                             "equal size")
        self.sites = tuple(complex(z) for z in sites)
        if len(self.sites) != len(self.eta):
            raise ValueError("sites and eta must have equal length")
        self.nsites, self.n = self.eta.shape[:2]
        check_distinct(self.sites)

    def copy_with_eta(self, eta):
        """The point with the same sites and the site matrices ``eta``
        (shape (..., N, n, n), used as given, not copied)."""
        obj = RationalPhasePoint.__new__(RationalPhasePoint)
        obj.__dict__.update(self.__dict__, eta=np.asarray(eta, dtype=complex))
        return obj


def lax_rational(point, z):
    """The Lax matrix sum_i eta[i] / (z - z_i).

    z may be an array of nodes and the point may be batched: the result
    has shape eta.shape[:-3] + z.shape + (n, n), the leading axes of eta
    ahead of those of z.  The sites are added in order, so every node of
    a stack gives the same bytes as a call at that node alone.  A node at
    a marked point raises PoleError (`numerics.site_differences`).
    """
    z = np.asarray(z)
    dz = site_differences(z, point.sites)
    eta = point.eta
    eta = eta.reshape(eta.shape[:-3] + (1,) * z.ndim + eta.shape[-3:])
    return (eta / dz[..., None, None]).sum(axis=-3)


@functools.lru_cache(maxsize=32)
def _hitchin_plan(sites, d):
    """Extraction plan for the degree-d power trace, shared by every caller
    with the same sites (a flow builds one per RK4 stage otherwise)."""
    plan = PartialFractionPlan(sites, d - 1, max(4 * len(sites) * d, 16), 0.31)
    plan.nodes.flags.writeable = False
    plan.weights.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=32)
def _node_reciprocals(sites, d):
    """1 / (zeta_k - z_i) at the nodes of the degree-d plan, shape (N, K),
    read-only: eta(zeta_k) = sum_i recip[i, k] eta_i."""
    plan = _hitchin_plan(sites, d)
    recip = 1.0 / (plan.nodes - np.array(sites)[:, None])
    recip.flags.writeable = False
    return recip


@functools.lru_cache(maxsize=128)
def _gradient_weights(sites, d, a):
    """Site weights of the gradient of H_{d,a}, read-only.

    grad_i = sum_k B[i, k] eta(zeta_k)^(d-1) over the plan's nodes zeta_k,
    with B[i, k] = d w_a[k] / (zeta_k - z_i).  At d = 2, eta(zeta_k) =
    sum_j eta_j / (zeta_k - z_j) is linear in eta, so B folds with the node
    reciprocals into the N x N matrix C, and grad_i = sum_j C[i, j] eta_j.
    """
    plan = _hitchin_plan(sites, d)
    recip = _node_reciprocals(sites, d)
    weights = d * plan.weights[plan.keys.index(a)] * recip
    if d == 2:
        weights = weights @ recip.T
    weights.flags.writeable = False
    return weights


def _power_traces(point, d, nodes):
    """trace(eta(z)^d) at the nodes; the node axis comes first, then the
    batch axes of a batched point."""
    powers = np.linalg.matrix_power(lax_rational(point, nodes), d)
    return np.moveaxis(np.trace(powers, axis1=-2, axis2=-1), -1, 0)


class HitchinCoefficients:
    """Partial-fraction coefficients of the power traces of the Lax matrix.

    For each degree d the function trace(eta(z)^d) lies in the span of the
    basis prod_i (z - z_i)^{-a_i} over multi-indices a with sum a_i = d - 1.
    Coefficients are extracted by least squares on a fixed circle of
    quadrature nodes, so each coefficient is a fixed linear combination of
    the values trace(eta(z_k)^d) -- a gauge-invariant functional.  For a
    batched point each value is the array of coefficients over the batch.
    """

    def __init__(self, point, degrees):
        self.degrees = sorted(set(int(d) for d in degrees))
        for d in self.degrees:
            if d < 1:
                raise ValueError("degrees must be positive")
        self.values = {}
        for d in self.degrees:
            plan = _hitchin_plan(point.sites, d)
            coeffs = plan.coefficients(_power_traces(point, d, plan.nodes))
            for a, c in zip(plan.keys, coeffs):
                self.values[(d, a)] = c

    def __getitem__(self, key):
        d, a = key
        return self.values[(int(d), tuple(a))]

    def keys(self):
        return list(self.values.keys())


class HitchinObservable:
    """One coefficient H_{d,a} as a scalar observable with analytic gradient.

    Only the extraction plan is needed: the coefficient is the row of the
    pseudoinverse for a applied to the power traces at the plan's nodes,
    and its gradient a fixed combination of eta(zeta)^(d-1) at those nodes
    (see `_gradient_weights`).
    """

    def __init__(self, point, d, a):
        self.d = int(d)
        self.a = tuple(a)
        plan = _hitchin_plan(point.sites, self.d)
        self.row = plan.weights[plan.keys.index(self.a)]
        self.nodes = plan.nodes
        self.site_weights = _gradient_weights(point.sites, self.d, self.a)
        self.recip = _node_reciprocals(point.sites, self.d)

    def value(self, point):
        """H_{d,a} at the point; an array over the batch of a batched one."""
        return np.tensordot(self.row, _power_traces(point, self.d, self.nodes),
                            axes=1)

    def __call__(self, point):
        return self.value(point)

    def gradients(self, point):
        """Matrix gradients wrt each eta[i] under the pairing tr(grad . delta),
        stacked over the sites: one matrix product with the site weights.
        At d >= 3, eta(zeta_k) at the plan's nodes is one product of the
        node reciprocals with the stacked eta_i."""
        eta = point.eta
        terms = eta.reshape(len(eta), -1)
        if self.d > 2:
            lax = (self.recip.T @ terms).reshape((-1,) + eta.shape[1:])
            terms = np.linalg.matrix_power(lax, self.d - 1).reshape(
                len(lax), -1)
        return (self.site_weights @ terms).reshape(eta.shape)


def _numerical_gradients(f, point):
    """Cauchy-ring gradients of a scalar observable in every eta[i] entry,
    shape (N, n, n).

    The independent oracle for analytic gradients; circles have radius
    1e-2 times the largest of 1 and the site-matrix norms.  f is called
    once, on the batched point of all ring points.
    """
    n, N = point.n, point.nsites
    scale = max(1.0, np.linalg.norm(point.eta, axis=(1, 2)).max())

    def along(xs):
        return f(point.copy_with_eta(xs.reshape(-1, N, n, n)))

    grad = ring_gradient(along, point.eta.ravel(), 1e-2 * scale)
    # gradient convention tr(grad . delta): entry (b, a)
    return grad.reshape(N, n, n).transpose(0, 2, 1)


def kk_bracket(f, g, point):
    """Kostant-Kirillov bracket sum_i <eta[i], [grad_i g, grad_i f]>.

    The sign is fixed so that the matrix-valued coordinate brackets satisfy
    {eta(z) (x) eta(w)} = [P/(z-w), eta(z) (x) 1 + 1 (x) eta(w)].
    Each observable supplies its (N, n, n) partials through its
    ``gradients`` method, as HitchinObservable does.  The per-site terms
    are stacked products, added in site order.
    """
    gf = f.gradients(point)
    gg = g.gradients(point)
    return np.sum(np.trace(point.eta @ (gg @ gf - gf @ gg),
                           axis1=1, axis2=2))


def hamiltonian_field(f, point):
    """Hamiltonian vector field eta_dot[i] = {eta[i], f} = [eta[i], grad_i f],
    shape (N, n, n), from the partials f.gradients(point)."""
    grads = f.gradients(point)
    return point.eta @ grads - grads @ point.eta


def entry_observable(i, a, b):
    """The coordinate observable eta[i]_{ab}, with its exact gradient."""

    class _Entry:
        def __call__(self, point):
            return point.eta[..., i, a, b]

        def gradients(self, point):
            grads = np.zeros(point.eta.shape, dtype=complex)
            grads[i, b, a] = 1.0
            return grads

    return _Entry()


def coordinate_bracket_tensor(point, z, w):
    """The 4-tensor {eta(z)_ab, eta(w)_cd} reshaped as an n^2 x n^2 matrix.

    Row index (a, c), column index (b, d), i.e. the matrix of the operator
    on C^n (x) C^n whose (a c, b d) entry is the bracket.  With
    {eta[i]_ab, eta[i]_cd} = delta_cb eta[i]_ad - delta_ad eta[i]_cb it is
    delta_cb M_ad - delta_ad M_cb, M = sum_i eta[i] / ((z - z_i)(w - z_i)).
    """
    n = point.n
    sites = np.array(point.sites)
    M = np.einsum("i,iad->ad", 1.0 / ((z - sites) * (w - sites)), point.eta)
    one = np.eye(n)
    out = np.einsum("cb,ad->acbd", one, M) - np.einsum("ad,cb->acbd", one, M)
    return out.reshape(n * n, n * n)


def flow_field(point, d, a):
    """Tangent vector of the flow attached to the coefficient H_{d,a}.

    Normalized so that for d = 2 and a the indicator of site i the field is
    eta_dot[j] = -[eta[i], eta[j]] / (z_i - z_j) for j != i, and
    eta_dot[i] = sum_{j != i} [eta[i], eta[j]] / (z_i - z_j).
    This equals the Hamiltonian field of H_{d,a} divided by d.
    """
    return hamiltonian_field(HitchinObservable(point, d, a), point) / d


# Site-matrix norm beyond which integrate_flow gives the trajectory up
OVERFLOW = 1e8


def integrate_flow(point, key, T, dt):
    """RK4 integration of flow_field; returns (trajectory, drift_max).

    trajectory is a list of (t, RationalPhasePoint); drift_max is the
    largest absolute drift of any Hitchin coefficient of degrees 2..n
    along the trajectory, evaluated once over the whole trajectory as one
    batched point.  Every step checks the site-matrix norms against
    OVERFLOW (a NaN fails that check too).
    """
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    d, a = key
    current = point
    trajectory = [(0.0, current)]
    for step in range(int(round(T / dt))):
        eta = current.eta
        k1 = flow_field(current, d, a)
        k2 = flow_field(current.copy_with_eta(eta + 0.5 * dt * k1), d, a)
        k3 = flow_field(current.copy_with_eta(eta + 0.5 * dt * k2), d, a)
        k4 = flow_field(current.copy_with_eta(eta + dt * k3), d, a)
        new_eta = eta + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.linalg.norm(new_eta, axis=(1, 2)) <= OVERFLOW):
            raise OverflowError("trajectory escaped the overflow bound")
        current = current.copy_with_eta(new_eta)
        trajectory.append(((step + 1) * dt, current))
    stack = point.copy_with_eta(np.array([p.eta for _, p in trajectory]))
    coeffs = HitchinCoefficients(stack, range(2, point.n + 1))
    drift_max = max((np.abs(v - v[0]).max() for v in coeffs.values.values()),
                    default=0.0)
    return trajectory, drift_max


def random_nilpotent_point(n, N, rng):
    """Random phase point with rank-1 nilpotent site matrices eta = v w^T
    at random complex sites."""
    sites = []
    while len(sites) < N:
        z = rng.normal() + 1j * rng.normal()
        if all(abs(z - s) > 0.2 for s in sites):
            sites.append(z)
    eta = []
    for _ in range(N):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = w - v * (w @ v) / (v @ v)
        eta.append(np.outer(v, w))
    return RationalPhasePoint(eta, sites)
