"""Classical rational integrable system on the punctured sphere.

Lax matrix with simple poles at marked points, partial-fraction coefficients
of its power traces (the conserved Hamiltonians), the Kostant-Kirillov
Poisson bracket on products of coadjoint orbits, and the induced
isospectral flows with an RK4 integrator.
"""

import functools
import json

import numpy as np

from .numerics import PartialFractionPlan, check_distinct, ring_gradient
from .theta import PoleError


class RationalPhasePoint:
    """N matrices eta[i] in gl_n attached to distinct marked points sites[i].

    Optionally checks that each eta[i] is nilpotent (all power traces up to
    n vanish) and/or that the moment constraint sum_i eta[i] = 0 holds.
    """

    def __init__(self, eta, sites, check_nilpotent=False, check_moment=False):
        self.eta = [np.array(m, dtype=complex) for m in eta]
        self.sites = [complex(z) for z in sites]
        if not self.eta:
            raise ValueError("need at least one site")
        n = self.eta[0].shape[0]
        for m in self.eta:
            if m.shape != (n, n):
                raise ValueError("all site matrices must be square of equal size")
        if len(self.sites) != len(self.eta):
            raise ValueError("sites and eta must have equal length")
        self.n = n
        self.nsites = len(self.sites)
        check_distinct(self.sites)
        if check_nilpotent:
            for i, m in enumerate(self.eta):
                p = np.eye(n, dtype=complex)
                for _ in range(n):
                    p = p @ m
                    if abs(np.trace(p)) > 1e-10 * max(1.0, np.linalg.norm(m) ** n):
                        raise ValueError("site matrix %d is not nilpotent" % i)
        if check_moment:
            total = sum(self.eta)
            if np.linalg.norm(total) > 1e-10 * max(
                1.0, max(np.linalg.norm(m) for m in self.eta)
            ):
                raise ValueError("moment constraint sum(eta) = 0 violated")

    def copy_with_eta(self, eta):
        obj = RationalPhasePoint.__new__(RationalPhasePoint)
        obj.eta = [np.array(m, dtype=complex) for m in eta]
        obj.sites = list(self.sites)
        obj.n = self.n
        obj.nsites = self.nsites
        return obj

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "sites": [[z.real, z.imag] for z in self.sites],
                "eta": [
                    [[[v.real, v.imag] for v in row] for row in m]
                    for m in self.eta
                ],
            }
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        sites = [complex(re, im) for re, im in data["sites"]]
        eta = [
            np.array([[complex(re, im) for re, im in row] for row in m])
            for m in data["eta"]
        ]
        point = cls(eta, sites)
        if point.n != data["n"]:
            raise ValueError("matrix size does not match declared n")
        return point


def lax_rational(point, z):
    """The Lax matrix sum_i eta[i] / (z - z_i).

    z may be an array of nodes; the result is then the stack of Lax
    matrices, of shape z.shape + (n, n).
    """
    z = np.asarray(z)
    scale = max(1.0, max(abs(s) for s in point.sites))
    out = np.zeros(z.shape + (point.n, point.n), dtype=complex)
    for m, zi in zip(point.eta, point.sites):
        dz = (z - zi)[..., None, None]
        if np.any(np.abs(dz) < 1e-12 * scale):
            raise PoleError("evaluation at marked point %r" % (zi,))
        out += m / dz
    return out


def _hitchin_plan(sites, d):
    """Extraction plan for the degree-d power trace, shared by every caller
    with the same sites (a flow builds one per RK4 stage otherwise)."""
    return _shared_plan(tuple(sites), int(d))


@functools.lru_cache(maxsize=32)
def _shared_plan(sites, d):
    plan = PartialFractionPlan(sites, d - 1, max(4 * len(sites) * d, 16), 0.31)
    plan.nodes.flags.writeable = False
    plan.weights.flags.writeable = False
    return plan


def _power_traces(point, d, nodes):
    powers = np.linalg.matrix_power(lax_rational(point, nodes), d)
    return np.trace(powers, axis1=-2, axis2=-1)


class HitchinCoefficients:
    """Partial-fraction coefficients of the power traces of the Lax matrix.

    For each degree d the function trace(eta(z)^d) lies in the span of the
    basis prod_i (z - z_i)^{-a_i} over multi-indices a with sum a_i = d - 1.
    Coefficients are extracted by least squares on a fixed circle of
    quadrature nodes, so each coefficient is a fixed linear combination of
    the values trace(eta(z_k)^d) -- a gauge-invariant functional.
    """

    def __init__(self, point, degrees):
        self.degrees = sorted(set(int(d) for d in degrees))
        for d in self.degrees:
            if d < 1:
                raise ValueError("degrees must be positive")
        self.plans = {}
        self.values = {}
        for d in self.degrees:
            plan = _hitchin_plan(point.sites, d)
            coeffs = plan.coefficients(_power_traces(point, d, plan.nodes))
            self.plans[d] = plan
            for a, c in zip(plan.keys, coeffs):
                self.values[(d, a)] = c

    def __getitem__(self, key):
        d, a = key
        return self.values[(int(d), tuple(a))]

    def keys(self):
        return list(self.values.keys())

    def reconstruction_residual(self, point, z):
        """|sum_a H_{d,a} basis_a(z) - trace(eta(z)^d)|, maximized over d."""
        worst = 0.0
        for d in self.degrees:
            plan = self.plans[d]
            total = plan.evaluate([self.values[(d, a)] for a in plan.keys], z)
            worst = max(worst, abs(total - _power_traces(point, d, [z])[0]))
        return worst


class HitchinObservable:
    """One coefficient H_{d,a} as a scalar observable with analytic gradient.

    Only the extraction plan is needed: the coefficient is the row of the
    pseudoinverse for a applied to the power traces at the plan's nodes.
    """

    def __init__(self, point, d, a, coeffs=None):
        self.d = int(d)
        self.a = tuple(a)
        plan = (_hitchin_plan(point.sites, self.d) if coeffs is None
                else coeffs.plans[self.d])
        self.row = plan.weights[plan.keys.index(self.a)]
        self.nodes = plan.nodes

    def value(self, point):
        return self.row @ _power_traces(point, self.d, self.nodes)

    def __call__(self, point):
        return self.value(point)

    def gradients(self, point):
        """Matrix gradients wrt each eta[i] under the pairing tr(grad . delta),
        stacked over the sites."""
        powers = np.linalg.matrix_power(lax_rational(point, self.nodes),
                                        self.d - 1)
        scaled = (self.row * self.d)[:, None, None, None] * powers[:, None]
        dz = (self.nodes[:, None] - np.array(point.sites))[:, :, None, None]
        # a reduction over the leading axis adds the nodes in order
        return np.sum(scaled / dz, axis=0)


def _numerical_gradients(f, point):
    """Cauchy-ring gradients of a scalar observable in every eta[i] entry.

    The independent oracle for analytic gradients; circles have radius
    1e-2 times the largest of 1 and the site-matrix norms.
    """
    n, N = point.n, point.nsites
    scale = max(1.0, max(np.linalg.norm(m) for m in point.eta))

    def along(x):
        return f(point.copy_with_eta(x.reshape(N, n, n)))

    grad = ring_gradient(along, np.array(point.eta).ravel(), 1e-2 * scale)
    # gradient convention tr(grad . delta): entry (b, a)
    return list(grad.reshape(N, n, n).transpose(0, 2, 1))


def _observable_gradients(f, point):
    if hasattr(f, "gradients"):
        return f.gradients(point)
    return _numerical_gradients(f, point)


def kk_bracket(f, g, point):
    """Kostant-Kirillov bracket sum_i <eta[i], [grad_i g, grad_i f]>.

    The sign is fixed so that the matrix-valued coordinate brackets satisfy
    {eta(z) (x) eta(w)} = [P/(z-w), eta(z) (x) 1 + 1 (x) eta(w)].
    """
    gf = _observable_gradients(f, point)
    gg = _observable_gradients(g, point)
    total = 0.0 + 0.0j
    for m, a, b in zip(point.eta, gf, gg):
        total += np.trace(m @ (b @ a - a @ b))
    return total


def hamiltonian_field(f, point):
    """Hamiltonian vector field eta_dot[i] = {eta[i], f} = [eta[i], grad_i f]."""
    grads = _observable_gradients(f, point)
    return [m @ g - g @ m for m, g in zip(point.eta, grads)]


def entry_observable(i, a, b):
    """The coordinate observable eta[i]_{ab}, with its exact gradient."""

    class _Entry:
        def __call__(self, point):
            return point.eta[i][a, b]

        def gradients(self, point):
            grads = [np.zeros((point.n, point.n), dtype=complex)
                     for _ in range(point.nsites)]
            grads[i][b, a] = 1.0
            return grads

    return _Entry()


def coordinate_bracket_tensor(point, z, w):
    """The 4-tensor {eta(z)_ab, eta(w)_cd} reshaped as an n^2 x n^2 matrix.

    Row index (a, c), column index (b, d), i.e. the matrix of the operator
    on C^n (x) C^n whose (a c, b d) entry is the bracket.
    """
    n = point.n
    out = np.zeros((n * n, n * n), dtype=complex)
    for i, (m, zi) in enumerate(zip(point.eta, point.sites)):
        fz = 1.0 / (z - zi)
        fw = 1.0 / (w - zi)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        # {eta[i]_ab, eta[i]_cd} = delta_cb eta_ad - delta_ad eta_cb
                        val = 0.0
                        if c == b:
                            val += m[a, d]
                        if a == d:
                            val -= m[c, b]
                        out[a * n + c, b * n + d] += fz * fw * val
    return out


def flow_field(point, d, a):
    """Tangent vector of the flow attached to the coefficient H_{d,a}.

    Normalized so that for d = 2 and a the indicator of site i the field is
    eta_dot[j] = -[eta[i], eta[j]] / (z_i - z_j) for j != i, and
    eta_dot[i] = sum_{j != i} [eta[i], eta[j]] / (z_i - z_j).
    This equals the Hamiltonian field of H_{d,a} divided by d.
    """
    obs = HitchinObservable(point, d, a)
    field = hamiltonian_field(obs, point)
    return [m / d for m in field]


def integrate_flow(point, key, T, dt, overflow=1e8):
    """RK4 integration of flow_field; returns (trajectory, drift_max).

    trajectory is a list of (t, RationalPhasePoint); drift_max is the
    largest absolute drift of any Hitchin coefficient of degrees 2..n
    along the trajectory.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    d, a = key
    degrees = list(range(2, point.n + 1))
    ref = HitchinCoefficients(point, degrees)
    ref_vals = dict(ref.values)

    def rhs(p):
        return flow_field(p, d, a)

    nsteps = int(round(T / dt))
    current = point
    trajectory = [(0.0, current)]
    drift_max = 0.0
    for step in range(nsteps):
        k1 = rhs(current)
        p2 = current.copy_with_eta(
            [m + 0.5 * dt * v for m, v in zip(current.eta, k1)])
        k2 = rhs(p2)
        p3 = current.copy_with_eta(
            [m + 0.5 * dt * v for m, v in zip(current.eta, k2)])
        k3 = rhs(p3)
        p4 = current.copy_with_eta(
            [m + dt * v for m, v in zip(current.eta, k3)])
        k4 = rhs(p4)
        new_eta = [
            m + dt / 6.0 * (v1 + 2 * v2 + 2 * v3 + v4)
            for m, v1, v2, v3, v4 in zip(current.eta, k1, k2, k3, k4)
        ]
        if max(np.linalg.norm(m) for m in new_eta) > overflow:
            raise OverflowError("trajectory escaped the overflow bound")
        current = current.copy_with_eta(new_eta)
        trajectory.append(((step + 1) * dt, current))
        coeffs = HitchinCoefficients(current, degrees)
        for kk, v in ref_vals.items():
            drift_max = max(drift_max, abs(coeffs.values[kk] - v))
    return trajectory, drift_max


def random_nilpotent_point(n, N, rng, spread=1.0, moment=False):
    """Random phase point with rank-1 nilpotent site matrices eta = v w^T.

    Sites are random complex numbers; with moment=True the last site matrix
    is replaced so that sum eta[i] = 0 (the result is then generally not
    nilpotent at the last site).
    """
    sites = []
    while len(sites) < N:
        z = rng.normal(scale=spread) + 1j * rng.normal(scale=spread)
        if all(abs(z - s) > 0.2 * spread for s in sites):
            sites.append(z)
    eta = []
    for _ in range(N):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = w - v * (w @ v) / (v @ v)
        eta.append(np.outer(v, w))
    if moment:
        eta[-1] = -sum(eta[:-1])
    return RationalPhasePoint(eta, sites)
