"""Classical elliptic spin system: Lax matrix, dynamical r/rho matrices,
and quadratic Hamiltonians.

Phase space coordinates: momenta p_a, multiplicative twists t_a (one pair
per matrix index a = 1..n) and N residue matrices eta^(i) attached to the
marked points z_i on the annulus.  Poisson structure: {p_a, t_b} = delta_ab
t_b, Kostant-Kirillov brackets on each eta^(i), all cross brackets zero.

The Lax matrix is built from the theta kernel K_t(x) and the logarithmic
derivative u = theta_dot/theta.  Its diagonal carries u(z/z_i) - 1/2, the
unique shift for which the quadratic bracket tensor closes on an
(r, rho)-pair; u - 1/2 is also the odd part of u under x -> 1/x.
"""

import json

import numpy as np

from .numerics import ring_gradient
from .theta import ThetaContext, PoleError


class EllipticPhasePoint:
    """Point of the elliptic phase space.

    p: length-n complex momenta; t: length-n nonzero complex twists with
    pairwise ratios off the lattice q^Z; eta: list of N complex n x n
    matrices; sites: length-N nonzero complex marked points with pairwise
    ratios off q^Z; ctx: ThetaContext carrying the modulus q.
    """

    def __init__(self, ctx, p, t, eta, sites):
        self.ctx = ctx
        self.p = np.asarray(p, dtype=complex)
        self.t = np.asarray(t, dtype=complex)
        self.eta = [np.asarray(m, dtype=complex) for m in eta]
        self.sites = np.asarray(sites, dtype=complex)
        n = self.p.shape[0]
        if self.t.shape != (n,):
            raise ValueError("p and t must have the same length")
        for m in self.eta:
            if m.shape != (n, n):
                raise ValueError("every eta matrix must be %d x %d" % (n, n))
        if np.any(self.t == 0) or np.any(self.sites == 0):
            raise ValueError("twists and sites must be nonzero")
        ctx.check_ratios(self.t)
        ctx.check_ratios(self.sites)
        self.n = n
        self.nsites = len(self.eta)
        if self.nsites != self.sites.shape[0]:
            raise ValueError("eta count must match site count")

    def charges(self):
        """Diagonal of the total residue, C_a = sum_i eta^(i)_aa."""
        return np.array([sum(m[a, a] for m in self.eta)
                         for a in range(self.n)])

    def copy_with(self, p=None, t=None, eta=None):
        return EllipticPhasePoint(self.ctx,
                                  self.p if p is None else p,
                                  self.t if t is None else t,
                                  self.eta if eta is None else eta,
                                  self.sites)

    def to_json(self):
        def cplx(v):
            return [float(np.real(v)), float(np.imag(v))]
        return json.dumps({
            "q": cplx(self.ctx.q),
            "p": [cplx(v) for v in self.p],
            "t": [cplx(v) for v in self.t],
            "sites": [cplx(v) for v in self.sites],
            "eta": [[[cplx(m[a, b]) for b in range(self.n)]
                     for a in range(self.n)] for m in self.eta],
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)

        def cplx(v):
            return complex(v[0], v[1])
        ctx = ThetaContext(cplx(data["q"]))
        eta = [np.array([[cplx(v) for v in row] for row in m])
               for m in data["eta"]]
        return cls(ctx,
                   [cplx(v) for v in data["p"]],
                   [cplx(v) for v in data["t"]],
                   eta,
                   [cplx(v) for v in data["sites"]])


def random_elliptic_point(n, nsites, q, rng, moment=False):
    """Random phase point; with moment=True the diagonal charges vanish."""
    ctx = ThetaContext(q)
    while True:
        t = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) \
            * rng.uniform(0.8, 1.25, n)
        sites = np.exp(1j * rng.uniform(0, 2 * np.pi, nsites)) \
            * rng.uniform(0.7, 1.4, nsites)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
               for _ in range(nsites)]
        if moment:
            total = sum(eta)
            for a in range(n):
                eta[-1][a, a] -= total[a, a]
        try:
            return EllipticPhasePoint(ctx, p, t, eta, sites)
        except (ValueError, PoleError):
            continue


def _coeff(point, a, b, i, z):
    """Coefficient of eta^(i)_ab in the Lax entry (a, b) at z."""
    ctx = point.ctx
    if a == b:
        return (ctx.theta_ratio(z / point.sites[i]) - 0.5) \
            / ctx.theta_prime_one()
    return ctx.kernel(point.t[a] ** (-1) * point.t[b], z / point.sites[i])


def _coeff_tderiv(point, c, a, b, i, z):
    """Euler derivative t_c d/dt_c of the coefficient above.

    Uses t d/dt K_t(x) = [u(t x) - u(t)] K_t(x).
    """
    if a == b or (c != a and c != b):
        return 0.0
    ctx = point.ctx
    T = point.t[a] ** (-1) * point.t[b]
    x = z / point.sites[i]
    val = (ctx.theta_ratio(T * x) - ctx.theta_ratio(T)) * ctx.kernel(T, x)
    return -val if c == a else val


def lax_elliptic(point, z):
    """Lax matrix xbar(z) of the elliptic system.

    Off-diagonal: xbar_ab(z) = sum_i eta^(i)_ab K(t_a^-1 t_b, z/z_i).
    Diagonal: xbar_aa(z) = [p_a + sum_i eta^(i)_aa (u(z/z_i) - 1/2)]
    / theta'(1).  Simple poles at the sites; quasi-periodic under z -> qz
    with multiplier Ad(diag t) up to the constant diagonal charge matrix.
    """
    n, N = point.n, point.nsites
    for i in range(N):
        point.ctx.check_regular(z / point.sites[i])
    m = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            m[a, b] = sum(point.eta[i][a, b] * _coeff(point, a, b, i, z)
                          for i in range(N))
        m[a, a] += point.p[a] / point.ctx.theta_prime_one()
    return m


def r_matrix(ctx, z, w, t):
    """Dynamical r-matrix on C^n (x) C^n, depending on x = z/w and the
    twists t.

    r = sum_{a != b} [ K(t_a^-1 t_b, x) e_ab (x) e_ba
                       - ((u(x) - 1/2)/theta'(1)) e_aa (x) e_bb ].

    The (a, b; c, d) entry is the coefficient of e_ac (x) e_bd.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    x = z / w
    ctx.check_regular(x)
    tp1 = ctx.theta_prime_one()
    uval = ctx.theta_ratio(x)
    r = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            T = t[a] ** (-1) * t[b]
            r[a * n + b, b * n + a] += ctx.kernel(T, x)
            r[a * n + b, a * n + b] -= (uval - 0.5) / tp1
    return r


def rho_matrix(ctx, z, w, t):
    """Dynamical rho-matrix pairing with the diagonal charge difference.

    rho_ab = -(K(T, x)/theta'(1)) (u(T x) - u(T)), T = t_a^-1 t_b, x = z/w,
    placed as the coefficient of e_ab (x) e_ba.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    x = z / w
    ctx.check_regular(x)
    tp1 = ctx.theta_prime_one()
    rho = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            T = t[a] ** (-1) * t[b]
            ctx.check_regular(T * x)
            rho[a * n + b, b * n + a] -= ctx.kernel(T, x) / tp1 \
                * (ctx.theta_ratio(T * x) - ctx.theta_ratio(T))
    return rho


def bracket_tensor(point, z, w):
    """Exact tensor of Poisson brackets L[(a,c),(b,d)] = {xbar_ab(z),
    xbar_cd(w)}.

    The Lax entries are linear in (p, eta) with t-dependent coefficients,
    so the tensor follows from the coordinate brackets and the closed-form
    Euler derivatives of the kernel; no finite differences are involved.
    """
    n, N = point.n, point.nsites
    tp1 = point.ctx.theta_prime_one()
    L = np.zeros((n * n, n * n), dtype=complex)
    Az = [[[_coeff(point, a, b, i, z) for i in range(N)]
           for b in range(n)] for a in range(n)]
    Aw = [[[_coeff(point, a, b, i, w) for i in range(N)]
           for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = 0.0 + 0.0j
                    for i in range(N):
                        br = 0.0 + 0.0j
                        if c == b:
                            br += point.eta[i][a, d]
                        if a == d:
                            br -= point.eta[i][c, b]
                        val += Az[a][b][i] * Aw[c][d][i] * br
                    if a == b:
                        val += sum(point.eta[j][c, d]
                                   * _coeff_tderiv(point, a, c, d, j, w)
                                   for j in range(N)) / tp1
                    if c == d:
                        val -= sum(point.eta[i][a, b]
                                   * _coeff_tderiv(point, c, a, b, i, z)
                                   for i in range(N)) / tp1
                    L[a * n + c, b * n + d] = val
    return L


def verify_dynamical_rmatrix(point, z, w):
    """Max entry norm of {xbar(z) (x), xbar(w)} - [r, xbar(z) (x) 1 +
    1 (x) xbar(w)] - rho ((Sum eta)_diag (x) 1 - 1 (x) (Sum eta)_diag)."""
    n = point.n
    L = bracket_tensor(point, z, w)
    X = np.kron(lax_elliptic(point, z), np.eye(n)) \
        + np.kron(np.eye(n), lax_elliptic(point, w))
    St = np.diag(point.charges())
    D = np.kron(St, np.eye(n)) - np.kron(np.eye(n), St)
    r = r_matrix(point.ctx, z, w, point.t)
    rho = rho_matrix(point.ctx, z, w, point.t)
    R = r @ X - X @ r + rho @ D
    return float(np.abs(L - R).max())


class EllipticHamiltonians:
    """Coefficients of the expansion of theta'(1)^2 tr xbar(z)^2.

    h0: constant term; h[i]: coefficient of u(z/z_i); k[i]: coefficient of
    u(z/z_i)^2; m[i]: coefficient of wp(ln z/z_i); charges: the central
    diagonal charges C_a.
    """

    def __init__(self, h0, h, k, m, charges):
        self.h0 = h0
        self.h = h
        self.k = k
        self.m = m
        self.charges = charges


def hamiltonians_elliptic(point):
    """Closed-form expansion coefficients of theta'(1)^2 tr xbar(z)^2.

    With P_a = p_a - C_a/2, u_i = u(z/z_i), w_ij = z_i/z_j:
      K_i = sum_a eta^(i)_aa C_a,
      M_i = tr((eta^(i))^2) - K_i,
      H_i = 2 sum_a P_a eta^(i)_aa
            + sum_a sum_{j != i} eta^(i)_aa eta^(j)_aa (2 u(w_ij) - 1)
            + 2 sum_{a != b} sum_{j != i} eta^(i)_ab eta^(j)_ba
              sigma_{t_a/t_b}(w_ij),
      H_0 = sum_a P_a^2
            - (1/2) sum_a sum_{i != j} eta^(i)_aa eta^(j)_aa
              [wp(ln w_ij) - u(w_ij)^2 + u(w_ij) - 1/4]
            - 2 sum_{a < b} sum_i eta^(i)_ab eta^(i)_ba wp(ln t_a/t_b)
            + sum_{a != b} sum_{i != j} eta^(i)_ab eta^(j)_ba
              [u(t_a t_b^-1 w_ij) - u(t_a t_b^-1)] sigma_{t_a t_b^-1}(w_ij).
    """
    ctx = point.ctx
    n, N = point.n, point.nsites
    eta, t, zs = point.eta, point.t, point.sites
    u = ctx.theta_ratio
    charges = point.charges()
    P = point.p - 0.5 * charges
    k = np.array([sum(eta[i][a, a] * charges[a] for a in range(n))
                  for i in range(N)])
    m = np.array([np.trace(eta[i] @ eta[i]) - k[i] for i in range(N)])
    h = np.zeros(N, dtype=complex)
    for i in range(N):
        val = 2.0 * sum(P[a] * eta[i][a, a] for a in range(n))
        for j in range(N):
            if j == i:
                continue
            w_ij = zs[i] / zs[j]
            for a in range(n):
                val += eta[i][a, a] * eta[j][a, a] * (2.0 * u(w_ij) - 1.0)
                for b in range(n):
                    if b != a:
                        val += 2.0 * eta[i][a, b] * eta[j][b, a] \
                            * ctx.sigma(t[a] / t[b], w_ij)
        h[i] = val
    h0 = np.sum(P ** 2) + 0.0j
    for i in range(N):
        for j in range(N):
            if j == i:
                continue
            w_ij = zs[i] / zs[j]
            uw = u(w_ij)
            block = ctx.wp(w_ij) - uw ** 2 + uw - 0.25
            for a in range(n):
                h0 -= 0.5 * eta[i][a, a] * eta[j][a, a] * block
                for b in range(n):
                    if b != a:
                        T = t[a] / t[b]
                        h0 += eta[i][a, b] * eta[j][b, a] \
                            * (u(T * w_ij) - u(T)) * ctx.sigma(T, w_ij)
    for a in range(n):
        for b in range(a + 1, n):
            wp_ab = ctx.wp(t[a] / t[b])
            for i in range(N):
                h0 -= 2.0 * eta[i][a, b] * eta[i][b, a] * wp_ab
    return EllipticHamiltonians(h0, h, k, m, charges)


def trace_expansion(point, z, hams=None):
    """Residual of theta'(1)^2 tr xbar(z)^2 against its closed-form
    expansion in u(z/z_i), u(z/z_i)^2 and wp(ln z/z_i)."""
    ctx = point.ctx
    if hams is None:
        hams = hamiltonians_elliptic(point)
    xi = lax_elliptic(point, z)
    lhs = ctx.theta_prime_one() ** 2 * np.trace(xi @ xi)
    rhs = hams.h0
    for i in range(point.nsites):
        ui = ctx.theta_ratio(z / point.sites[i])
        rhs += hams.h[i] * ui + hams.k[i] * ui ** 2 \
            + hams.m[i] * ctx.wp(z / point.sites[i])
    return float(abs(lhs - rhs))


def hamiltonian_family(point):
    """The involutive family [h0, h_1, ..., h_N] as one vector."""
    hams = hamiltonians_elliptic(point)
    return np.concatenate([[hams.h0], hams.h])


def _gradients(fun, point):
    """Cauchy-ring partials of fun(point) in p, t and every eta entry.

    Circles have radius 1e-2 in p and eta and 1e-2 |t_a| in t_a.  Returns
    (gp, gt, geta) of shapes (n,), (n,) and (N, n, n), each followed by
    the shape of fun's value.
    """
    n, N = point.n, point.nsites
    x = np.concatenate([point.p, point.t, np.array(point.eta).ravel()])
    radii = 1e-2 * np.concatenate([np.ones(n), np.abs(point.t),
                                   np.ones(N * n * n)])

    def at(y):
        return fun(point.copy_with(p=y[:n], t=y[n:2 * n],
                                   eta=y[2 * n:].reshape(N, n, n)))

    grad = ring_gradient(at, x, radii)
    return (grad[:n], grad[n:2 * n],
            grad[2 * n:].reshape((N, n, n) + grad.shape[1:]))


def poisson_bracket(f, g, point):
    """Poisson bracket {f, g} of two observables at a phase point.

    f and g return scalars or 1-d arrays; for arrays the result is the
    matrix {f_k, g_l}, and with ``g is f`` the gradients are taken once.
    Combines {p_a, t_a} = t_a with the Kostant-Kirillov bracket on each
    residue matrix; partial derivatives are taken spectrally on small
    circles, so the result is accurate to near machine precision for
    holomorphic observables.
    """
    n, N = point.n, point.nsites
    fp, ft, feta = _gradients(f, point)
    gp, gt, geta = (fp, ft, feta) if g is f else _gradients(g, point)
    shape = fp.shape[1:] + gp.shape[1:]
    fp, ft, gp, gt = (v.reshape(n, -1) for v in (fp, ft, gp, gt))
    feta, geta = (v.reshape(N, n, n, -1) for v in (feta, geta))
    eta = np.array(point.eta)
    # tr(eta_i [G_i, F_i]) with F_i, G_i the transposed partial matrices
    val = (np.einsum("a,ak,al->kl", point.t, fp, gt)
           - np.einsum("a,ak,al->kl", point.t, ft, gp)
           + np.einsum("ixy,izyl,ixzk->kl", eta, geta, feta)
           - np.einsum("ixy,izyk,ixzl->kl", eta, feta, geta))
    return val.reshape(shape)[()]
