"""Classical elliptic spin system: Lax matrix, dynamical r/rho matrices,
and quadratic Hamiltonians.

Phase space coordinates: momenta p_a, multiplicative twists t_a (one pair
per matrix index a = 1..n) and N residue matrices eta^(i), one (N, n, n)
array, at the marked points z_i on the annulus.  Poisson structure:
{p_a, t_b} = delta_ab t_b, Kostant-Kirillov brackets on each eta^(i), all
cross brackets zero.

The Lax matrix is built from the theta kernel K_t(x) and the logarithmic
derivative u = z theta'/theta.  Its diagonal carries u(z/z_i) - 1/2, the
unique shift for which the quadratic bracket tensor closes on an
(r, rho)-pair; u - 1/2 is also the odd part of u under x -> 1/x.

Evaluation.  The Lax matrix, the bracket tensor, r, rho and the
Hamiltonians read the twists and sites only through tables of kernel, u
and wp values, each read through the scalar theta leaf once per point;
the tables over T = t_a^-1 t_b at ratios x of sites and spectral points
come from one builder, _ratio_tables.  Everything else is an array
contraction of those tables with p and eta.
"""

import numpy as np

from .numerics import ring_gradient
from .theta import MAX_DRAWS, ThetaContext, redraw


class EllipticPhasePoint:
    """Point of the elliptic phase space.

    p: length-n complex momenta; t: length-n nonzero complex twists with
    pairwise ratios off the lattice q^Z; eta: complex array of shape
    (N, n, n), one residue matrix per site; sites: length-N nonzero complex
    marked points with pairwise ratios off q^Z; ctx: ThetaContext carrying
    the modulus q.
    """

    def __init__(self, ctx, p, t, eta, sites):
        self.ctx = ctx
        self.p = np.asarray(p, dtype=complex)
        self.t = np.asarray(t, dtype=complex)
        self.eta = np.asarray(eta, dtype=complex)
        self.sites = np.asarray(sites, dtype=complex)
        self.n = n = self.p.shape[0]
        self.nsites = self.sites.shape[0]
        if self.t.shape != (n,):
            raise ValueError("p and t must have the same length")
        if self.eta.shape != (self.nsites, n, n):
            raise ValueError("eta must hold one %d x %d matrix per site"
                             % (n, n))
        if np.any(self.t == 0) or np.any(self.sites == 0):
            raise ValueError("twists and sites must be nonzero")
        ctx.check_ratios(self.t)
        ctx.check_ratios(self.sites)

    def charges(self):
        """Diagonal of the total residue, C_a = sum_i eta^(i)_aa."""
        return np.einsum("iaa->ia", self.eta).sum(axis=0)

    def copy_with(self, p=None, t=None, eta=None):
        return EllipticPhasePoint(self.ctx,
                                  self.p if p is None else p,
                                  self.t if t is None else t,
                                  self.eta if eta is None else eta,
                                  self.sites)


def random_elliptic_point(n, nsites, q, rng, moment=False):
    """Random phase point; with moment=True the diagonal charges vanish.
    Raises PoleError after MAX_DRAWS draws in a row that land on the
    lattice."""
    ctx = ThetaContext(q)

    def draw():
        t = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) \
            * rng.uniform(0.8, 1.25, n)
        sites = np.exp(1j * rng.uniform(0, 2 * np.pi, nsites)) \
            * rng.uniform(0.7, 1.4, nsites)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
               for _ in range(nsites)]
        if moment:
            eta[-1] -= np.diag(np.diag(sum(eta)))
        return EllipticPhasePoint(ctx, p, t, eta, sites)
    return redraw(draw)


def _pairs(n):
    """Ordered pairs (a, b) of distinct indices below n."""
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def _twist_table(t, f):
    """f(t_a^-1 t_b) at every a != b, zero on the diagonal."""
    out = np.zeros((len(t), len(t)), dtype=complex)
    for a, b in _pairs(len(t)):
        out[a, b] = f(t[a] ** (-1) * t[b])
    return out


def _ratio_tables(ctx, t, xs, orders=0):
    """Twist tables at the ratios x_i, zero where a = b: K[i, a, b] =
    K_T(x_i) and X[k, i, a, b] = D^k [u(T x_i) - u(T)] for k < orders,
    with T = t_a^-1 t_b and D = T d/dT; X[0] is T d/dT log K_T(x_i)."""
    n = len(t)
    K = np.zeros((len(xs), n, n), dtype=complex)
    X = np.zeros((orders, len(xs), n, n), dtype=complex)
    for i, x in enumerate(xs):
        for a, b in _pairs(n):
            T = t[a] ** (-1) * t[b]
            K[i, a, b] = ctx.kernel(T, x)
            for k in range(orders):
                X[k, i, a, b] = ctx.theta_ratio(T * x, k) \
                    - ctx.theta_ratio(T, k)
    return K, X


def _euler_t(table):
    """Stack over c of t_c d/dt_c of a table whose last two axes are twist
    pairs (a, b) and whose entries hold D f(T) at T = t_a^-1 t_b."""
    n = table.shape[-1]
    eye = np.eye(n)
    # t_c d/dt_c (t_a^-1 t_b) = (delta_cb - delta_ca) t_a^-1 t_b
    sign = eye[:, None, :] - eye[:, :, None]
    return sign.reshape((n,) + (1,) * (table.ndim - 2) + (n, n)) * table


def _lax_table(point, z, orders=0):
    """Coefficient table of the Lax matrix at z and the ratio tables X of
    _ratio_tables at x_i = z/z_i: A[i, a, b] multiplies eta^(i)_ab in
    xbar_ab(z).  It is K(t_a^-1 t_b, z/z_i) off the diagonal and
    (u(z/z_i) - 1/2)/theta'(1) on it."""
    ctx = point.ctx
    n = point.n
    xs = z / point.sites
    A, X = _ratio_tables(ctx, point.t, xs, orders)
    for i, x in enumerate(xs):
        A[i, range(n), range(n)] = (ctx.theta_ratio(x) - 0.5) \
            / ctx.theta_prime_one()
    return A, X


def _lax(point, A):
    return (np.einsum("iab,iab->ab", A, point.eta)
            + np.diag(point.p) / point.ctx.theta_prime_one())


def lax_elliptic(point, z):
    """Lax matrix xbar(z) of the elliptic system.

    Off-diagonal: xbar_ab(z) = sum_i eta^(i)_ab K(t_a^-1 t_b, z/z_i).
    Diagonal: xbar_aa(z) = [p_a + sum_i eta^(i)_aa (u(z/z_i) - 1/2)]
    / theta'(1).  Simple poles at the sites; quasi-periodic under z -> qz
    with multiplier Ad(diag t) up to the constant diagonal charge matrix.
    """
    return _lax(point, _lax_table(point, z)[0])


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
    ab = np.arange(n * n).reshape(n, n)
    r = np.zeros((n * n, n * n), dtype=complex)
    r[ab, ab.T] = _ratio_tables(ctx, t, [x])[0][0]
    r[ab, ab] = -(ctx.theta_ratio(x) - 0.5) / ctx.theta_prime_one() \
        * (1.0 - np.eye(n))
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
    ab = np.arange(n * n).reshape(n, n)
    rho = np.zeros((n * n, n * n), dtype=complex)
    K, X = _ratio_tables(ctx, t, [x], 1)
    rho[ab, ab.T] = -K[0] / ctx.theta_prime_one() * X[0, 0]
    return rho


def _bracket(point, Az, Xz, Aw, Xw):
    """The bracket tensor from the Lax tables at z and w (orders >= 1)."""
    n = point.n
    eta = point.eta
    eye = np.eye(n)
    # {eta_ab, eta_cd} = delta_cb eta_ad - delta_ad eta_cb on each site,
    # and {p_a / theta'(1), A(t)} = t_a dA/dt_a / theta'(1), where
    # t d/dt K_t(x) = [u(t x) - u(t)] K_t(x)
    L = (np.einsum("iab,icd,cb,iad->acbd", Az, Aw, eye, eta)
         - np.einsum("iab,icd,ad,icb->acbd", Az, Aw, eye, eta)
         + (np.einsum("ab,ajcd,jcd->acbd", eye, _euler_t(Aw * Xw[0]), eta)
            - np.einsum("cd,ciab,iab->acbd", eye, _euler_t(Az * Xz[0]), eta))
         / point.ctx.theta_prime_one())
    return L.reshape(n * n, n * n)


def bracket_tensor(point, z, w):
    """Exact tensor of Poisson brackets L[(a,c),(b,d)] = {xbar_ab(z),
    xbar_cd(w)}.

    The Lax entries are linear in (p, eta) with t-dependent coefficients,
    so the tensor follows from the coordinate brackets and the closed-form
    Euler derivatives of the kernel; no finite differences are involved.
    """
    return _bracket(point, *_lax_table(point, z, 1), *_lax_table(point, w, 1))


def verify_dynamical_rmatrix(point, z, w):
    """Residual of {xbar(z) (x), xbar(w)} = [r, xbar(z) (x) 1 +
    1 (x) xbar(w)] + rho ((Sum eta)_diag (x) 1 - 1 (x) (Sum eta)_diag):
    the max entry norm of the difference over max(1, the max entry norm
    of the bracket tensor and of each of the three products on the
    right), since those products cancel terms far larger than the
    bracket at large q."""
    eye = np.eye(point.n)
    Az, Xz = _lax_table(point, z, 1)
    Aw, Xw = _lax_table(point, w, 1)
    L = _bracket(point, Az, Xz, Aw, Xw)
    # xbar(z) (x) 1 + 1 (x) xbar(w), and the diagonal C_a - C_c
    X = (np.einsum("ab,cd->acbd", _lax(point, Az), eye)
         + np.einsum("ab,cd->acbd", eye, _lax(point, Aw))).reshape(L.shape)
    C = point.charges()
    D = np.diag(np.subtract.outer(C, C).ravel())
    r = r_matrix(point.ctx, z, w, point.t)
    rho = rho_matrix(point.ctx, z, w, point.t)
    rX, Xr, rhoD = r @ X, X @ r, rho @ D
    scale = np.max([np.abs(m).max() for m in (L, rX, Xr, rhoD)],
                   initial=1.0)
    return float(np.abs(L - (rX - Xr + rhoD)).max() / scale)


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


def _family_tables(point, orders):
    """Theta-leaf tables of the family, with w_ij = z_i/z_j and, as in the
    Lax matrix, T = t_a^-1 t_b: U[i, j] = 2 u(w_ij) - 1, B[i, j] =
    wp(ln w_ij) - u(w_ij)^2 + u(w_ij) - 1/4, S[i, j, a, b] = sigma_T(w_ij),
    X[k, i, j, a, b] = D^k [u(T w_ij) - u(T)] for k < orders and W[a, b] =
    wp(ln T); each is zero where i = j or a = b."""
    ctx = point.ctx
    n, N = point.n, point.nsites
    U, B = np.zeros((2, N, N), dtype=complex)
    ws = [point.sites[i] / point.sites[j] for i, j in _pairs(N)]
    for (i, j), w in zip(_pairs(N), ws):
        uw = ctx.theta_ratio(w)
        U[i, j] = 2.0 * uw - 1.0
        B[i, j] = ctx.wp(w) - uw ** 2 + uw - 0.25
    K, Xw = _ratio_tables(ctx, point.t, ws, orders)
    off = ~np.eye(N, dtype=bool)
    S = np.zeros((N, N, n, n), dtype=complex)
    S[off] = ctx.theta_prime_one() * K
    X = np.zeros((orders, N, N, n, n), dtype=complex)
    X[:, off] = Xw
    return U, B, S, X, _twist_table(point.t, ctx.wp)


def _family_tderiv_tables(point, S, X):
    """Euler derivatives t_c d/dt_c of the twist tables S, V = X[0] S and
    W, stacked on a leading axis c.  With D = T d/dT: D sigma_T(w) = V,
    D V = X[1] S + X[0] V and D wp(ln T) = -D^2 u(T)."""
    V = X[0] * S
    return (_euler_t(V), _euler_t(X[1] * S + X[0] * V),
            _euler_t(_twist_table(point.t,
                                  lambda T: -point.ctx.theta_ratio(T, 2))))


def _twist_terms(S, V, W, eta1, eta2):
    """The twist-dependent part of _family_form."""
    h0 = (np.einsum("...iba,...jab,...ijab->...", eta1, eta2, V)
          - np.einsum("...iba,...iab,...ab->...", eta1, eta2, W))
    h = 2.0 * np.einsum("...iba,...jab,...ijab->...i", eta1, eta2, S)
    return np.concatenate([h0[..., None], h], axis=-1)


def _family_form(tables, p1, eta1, p2, eta2):
    """Bilinear form whose diagonal is the family: [h0, h_1, ..., h_N] at
    (p, eta) is _family_form(tables, p, eta, p, eta), with tables =
    (U, B, S, V, W), V = X S.  Leading axes of the arguments broadcast."""
    U, B, S, V, W = tables
    d1 = np.einsum("...iaa->...ia", eta1)
    d2 = np.einsum("...iaa->...ia", eta2)
    P1 = p1 - 0.5 * d1.sum(axis=-2)
    P2 = p2 - 0.5 * d2.sum(axis=-2)
    h0 = (np.einsum("...a,...a->...", P1, P2)
          - 0.5 * np.einsum("...ia,...ja,ij->...", d1, d2, B))
    h = (2.0 * np.einsum("...a,...ia->...i", P1, d2)
         + np.einsum("...ia,...ja,ij->...i", d1, d2, U))
    return np.concatenate([h0[..., None], h], axis=-1) \
        + _twist_terms(S, V, W, eta1, eta2)


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
    U, B, S, X, W = _family_tables(point, 1)
    eta = point.eta
    fam = _family_form((U, B, S, X[0] * S, W), point.p, eta, point.p, eta)
    charges = point.charges()
    k = np.einsum("iaa,a->i", eta, charges)
    m = np.einsum("iab,iba->i", eta, eta) - k
    return EllipticHamiltonians(fam[0], fam[1:], k, m, charges)


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
    """The involutive family [h0, h_1, ..., h_N] as one vector; its exact
    partials are ``hamiltonian_family.gradients``."""
    hams = hamiltonians_elliptic(point)
    return np.concatenate([[hams.h0], hams.h])


def _family_gradients(point):
    """Partials of hamiltonian_family in p, t and eta, shaped as
    _gradients returns them.  The family is a quadratic form in (p, eta),
    so the (p, eta) partials are the bilinear form against unit vectors;
    the t partials contract the Euler-derivative tables."""
    n, N = point.n, point.nsites
    U, B, S, X, W = _family_tables(point, 2)
    tables = (U, B, S, X[0] * S, W)
    eta = point.eta
    unit = np.eye(n + N * n * n)
    up, ueta = unit[:, :n], unit[:, n:].reshape(-1, N, n, n)
    g = _family_form(tables, up, ueta, point.p, eta) \
        + _family_form(tables, point.p, eta, up, ueta)
    gt = _twist_terms(*_family_tderiv_tables(point, S, X), eta, eta) \
        / point.t[:, None]
    return g[:n], gt, g[n:].reshape(N, n, n, N + 1)


hamiltonian_family.gradients = _family_gradients


def _gradients(fun, point):
    """Cauchy-ring partials of fun(point) in p, t and every eta entry, the
    reference for analytic ones.

    Circles have radius 1e-2 in p and eta and 1e-2 |t_a| in t_a.  Returns
    (gp, gt, geta) of shapes (n,), (n,) and (N, n, n), each followed by
    the shape of fun's value.
    """
    n, N = point.n, point.nsites
    x = np.concatenate([point.p, point.t, point.eta.ravel()])
    radii = 1e-2 * np.concatenate([np.ones(n), np.abs(point.t),
                                   np.ones(N * n * n)])

    def at(ys):
        return np.array([fun(point.copy_with(p=y[:n], t=y[n:2 * n],
                                             eta=y[2 * n:].reshape(N, n, n)))
                         for y in ys])

    grad = ring_gradient(at, x, radii)
    return (grad[:n], grad[n:2 * n],
            grad[2 * n:].reshape((N, n, n) + grad.shape[1:]))


def poisson_bracket(f, g, point):
    """Poisson bracket {f, g} of two observables at a phase point.

    f and g return scalars or 1-d arrays; for arrays the result is the
    matrix {f_k, g_l}, and with ``g is f`` the gradients are taken once.
    Combines {p_a, t_a} = t_a with the Kostant-Kirillov bracket on each
    residue matrix.  Each observable supplies its partials (gp, gt, geta)
    through its ``gradients`` method, shaped as _gradients returns them,
    as hamiltonian_family does.
    """
    n, N = point.n, point.nsites
    fp, ft, feta = f.gradients(point)
    gp, gt, geta = (fp, ft, feta) if g is f else g.gradients(point)
    shape = fp.shape[1:] + gp.shape[1:]
    fp, ft, gp, gt = (v.reshape(n, -1) for v in (fp, ft, gp, gt))
    feta, geta = (v.reshape(N, n, n, -1) for v in (feta, geta))
    eta = point.eta
    # tr(eta_i [G_i, F_i]) with F_i, G_i the transposed partial matrices
    val = (np.einsum("a,ak,al->kl", point.t, fp, gt)
           - np.einsum("a,ak,al->kl", point.t, ft, gp)
           + np.einsum("ixy,izyl,ixzk->kl", eta, geta, feta)
           - np.einsum("ixy,izyk,ixzl->kl", eta, feta, geta))
    return val.reshape(shape)[()]
