"""Quantum elliptic sl2 spin system on the reduced twist variable t.

The Hamiltonians are Euler-differential operators (polynomials in
D = t d/dt) with coefficients that are matrix-valued theta expressions on
a tensor product of sl2 irreducibles.  They are the expansion
coefficients of the trace of the squared operator Lax matrix and commute
on the weight-zero subspace.
"""

import operator
from math import comb

import numpy as np

from .lie import TensorRepSpace
from .theta import redraw
from .theta_expr import ThetaExpr, kernel_expr, sigma_expr


class QuantumEllipticParams:
    """Data of the quantum system: twist level k (integer), sl2 highest
    weights per site, marked points, theta context."""

    def __init__(self, ctx, k, weights, sites):
        self.ctx = ctx
        self.k = int(k)
        self.weights = list(weights)
        self.sites = np.asarray(sites, dtype=complex)
        if len(self.weights) != self.sites.shape[0]:
            raise ValueError("one weight per site required")
        if np.any(self.sites == 0):
            raise ValueError("sites must be nonzero")
        ctx.check_ratios(self.sites)
        self.space = TensorRepSpace(self.weights)
        self.dim = self.space.dim


class CoeffSum(ThetaExpr):
    """Matrix-valued theta expression: a ThetaExpr whose coefficients are
    constant matrices."""

    __slots__ = ()

    @classmethod
    def of(cls, expr, mat):
        """expr * mat for a scalar theta expression or number expr."""
        return cls({(): np.asarray(mat, dtype=complex)}) * expr

    def matmul(self, other):
        """Product with the coefficient matrices multiplied by @."""
        return self._product(other, operator.matmul)

    def evaluate(self, ctx, t):
        """Numeric matrix at a point t."""
        return self(ctx, t)


class EulerDiffOp:
    """Finite sum over m >= 0 of A_m(t) D^m with D = t d/dt and A_m a
    matrix-valued theta expression on the representation space.  Degrees
    whose coefficient vanishes identically are not stored."""

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        self.coeffs = {m: cs for m, cs in (coeffs or {}).items() if cs.terms}

    @classmethod
    def function(cls, expr, mat):
        """Multiplication by expr(t) mat, for a scalar theta expression or
        number expr and a constant matrix mat."""
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.shape[0], {0: CoeffSum.of(expr, mat)})

    @classmethod
    def derivative(cls, dim, order=1):
        return cls(dim, {order: CoeffSum.of(1.0, np.eye(dim))})

    def degree(self):
        return max(self.coeffs) if self.coeffs else 0

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for m, cs in other.coeffs.items():
            coeffs[m] = coeffs.get(m, CoeffSum()) + cs
        return EulerDiffOp(self.dim, coeffs)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, v):
        """Multiply every coefficient by a scalar theta expression or
        number v."""
        return EulerDiffOp(self.dim,
                           {m: cs * v for m, cs in self.coeffs.items()})

    def __matmul__(self, other):
        """Operator composition: A(t)D^m B(t)D^k expands by Leibniz with
        the symbolic Euler derivative of B."""
        out = {}
        for k, bk in other.coeffs.items():
            derivs = [bk]
            while len(derivs) <= self.degree():
                derivs.append(derivs[-1].euler())
            for m, am in self.coeffs.items():
                for j in range(m + 1):
                    out[m - j + k] = out.get(m - j + k, CoeffSum()) \
                        + am.matmul(derivs[j]) * comb(m, j)
        return EulerDiffOp(self.dim, out)

    def evaluate(self, ctx, t):
        """Numeric coefficient matrices {m: A_m(t)} at a point t."""
        return {m: cs.evaluate(ctx, t) for m, cs in self.coeffs.items()}

    def apply_power(self, ctx, t, expn, vec):
        """Apply to the trial function t^expn * vec and strip the common
        t^expn factor: D^m picks up expn^m."""
        return _at_power(self.evaluate(ctx, t), expn, self.dim) @ vec


def _at_power(vals, expn, dim):
    """sum_m expn^m A_m of evaluated coefficients {m: A_m}: the matrix by
    which the operator acts on t^expn * v once t^expn is stripped."""
    return sum((expn ** m * mat for m, mat in vals.items()),
               np.zeros((dim, dim), dtype=complex))


def _max_diff(a, b):
    """Largest entry of |a_m - b_m| over the degrees of two evaluated
    operators {m: matrix}, a missing degree reading as zero."""
    return max((np.abs(a.get(m, 0) - b.get(m, 0)).max()
                for m in set(a) | set(b)), default=0.0)


def commutator(a, b):
    return a @ b - b @ a


def _site_matrices(params):
    """The sl2 generators at each site as {(g, i): matrix}, g in "efh" and
    i counted from 0, read from the images cached on the representation
    space."""
    space = params.space
    return {(g, i): space.generator(g, i + 1)
            for g in "efh" for i in range(space.nsites)}


def reduced_momentum(params):
    """p_hat = D + k u(t^2) acting on functions of the reduced twist: the
    quantisation of p = p_1 - p_2, whose bracket with the twists (t, 1/t)
    is {p, t} = t, with the same unit of action as the site generators."""
    return EulerDiffOp.derivative(params.dim) + EulerDiffOp.function(
        params.k * ThetaExpr.u(1.0, 2), np.eye(params.dim))


def lax_quantum(params, z):
    """Operator Lax matrix: 2 x 2 array of Euler-differential operators.

    Off-diagonal entries carry the theta kernels at twist ratio t^-2 and
    t^2; diagonal entries carry +-p_hat/2 plus the half-shifted
    logarithmic derivatives at the sites, all over theta'(1).
    """
    ctx = params.ctx
    for zi in params.sites:
        ctx.check_regular(z / zi)
    d = params.dim
    mats = _site_matrices(params)
    tp1 = ThetaExpr.theta_prime_one()
    phat = reduced_momentum(params)
    L = np.empty((2, 2), dtype=object)
    diag = phat.scale(0.5)
    L[0, 1] = EulerDiffOp(d)
    L[1, 0] = EulerDiffOp(d)
    for i, zi in enumerate(params.sites):
        x = z / zi
        diag = diag + EulerDiffOp.function(ThetaExpr.u(x, 0) - 0.5,
                                           0.5 * mats["h", i])
        L[0, 1] = L[0, 1] + EulerDiffOp.function(
            kernel_expr(1.0, -2, x), mats["e", i])
        L[1, 0] = L[1, 0] + EulerDiffOp.function(
            kernel_expr(1.0, 2, x), mats["f", i])
    L[0, 0] = diag.scale(1.0 / tp1)
    L[1, 1] = diag.scale(-1.0 / tp1)
    return L


# name of the effective momentum p_hat - (1/2) sum_j h^(j) in a term list,
# the operator version of the half-charge shift in the classical diagonal
P = "p"


def _trace_terms(params):
    """The closed form of the expansion coefficients (H0, [H_i], [K_i],
    [M_i]) of theta'(1)^2 tr L(z)^2 on the basis {1, u(z/z_i),
    u(z/z_i)^2, wp(ln z/z_i)}, each a list of terms (c, x, y) meaning
    c x y.

    c is a number or a scalar theta expression in t; x and y name the
    effective momentum P or a site generator (g, i) as _site_matrices
    keys it.  Same-site quadratic terms are symmetrized (e f + f e) as
    dictated by the operator trace.
    """
    ctx = params.ctx
    N = len(params.weights)
    zs = params.sites
    h0 = [(0.5, P, P)]
    his = [[(1.0, P, ("h", i))] for i in range(N)]
    for i in range(N):
        for j in range(N):
            if j == i:
                continue
            w_ij = zs[i] / zs[j]
            uw = ctx.theta_ratio(w_ij)
            his[i] += [
                (0.5 * (2.0 * uw - 1.0), ("h", i), ("h", j)),
                (2.0 * sigma_expr(1.0, 2, w_ij), ("e", i), ("f", j)),
                (2.0 * sigma_expr(1.0, -2, w_ij), ("f", i), ("e", j))]
            h0 += [
                (-0.25 * (ctx.wp(w_ij) - uw ** 2 + uw - 0.25),
                 ("h", i), ("h", j)),
                ((ThetaExpr.u(w_ij, 2) - ThetaExpr.u(1.0, 2))
                 * sigma_expr(1.0, 2, w_ij), ("e", i), ("f", j)),
                ((ThetaExpr.u(w_ij, -2) - ThetaExpr.u(1.0, -2))
                 * sigma_expr(1.0, -2, w_ij), ("f", i), ("e", j))]
    for i in range(N):
        h0 += [(-ThetaExpr.wp(1.0, 2), ("e", i), ("f", i)),
               (-ThetaExpr.wp(1.0, 2), ("f", i), ("e", i))]
    kis = [[(0.5, ("h", i), ("h", j)) for j in range(N)] for i in range(N)]
    mis = [[(1.0, ("e", i), ("f", i)), (1.0, ("f", i), ("e", i))]
           + [(-0.5, ("h", i), ("h", j)) for j in range(N) if j != i]
           for i in range(N)]
    return h0, his, kis, mis


def quantum_hamiltonians(params):
    """Hamiltonians of the quantum system, as Euler-differential
    operators on the tensor product of site representations.

    Returns (H0, [H_i], [K_i], [M_i]), the expansion coefficients of
    theta'(1)^2 tr L(z)^2 read off the term lists of _trace_terms: a site
    generator is its matrix, P is reduced_momentum - (1/2) sum_j h^(j),
    and a term (c, x, y) is c times the composition x y.
    """
    mats = _site_matrices(params)
    pe = reduced_momentum(params)
    for i in range(len(params.weights)):
        pe = pe - EulerDiffOp.function(0.5, mats["h", i])

    def read(terms):
        op = EulerDiffOp(params.dim)
        for c, x, y in terms:
            if x == P:
                right = pe if y == P else EulerDiffOp.function(1.0, mats[y])
                op = op + (pe @ right).scale(c)
            else:
                op = op + EulerDiffOp.function(c, mats[x] @ mats[y])
        return op

    h0, his, kis, mis = _trace_terms(params)
    return (read(h0), [read(ts) for ts in his], [read(ts) for ts in kis],
            [read(ts) for ts in mis])


def ordering_counterterm(params):
    """The operator sum_{i != j} (D sigma_{t^2}(z_i/z_j)) e_i f_j, the
    commutator [D, sum sigma_{t^2}(z_i/z_j) e_i f_j].  Since
    D sigma_{t^2}(w) = 2 (u(w t^2) - u(t^2)) sigma_{t^2}(w), it is twice
    the e_i f_j terms of H0.

    Not part of the commuting family: it compensated a momentum
    quantised as 2D, and only for one site or two spin-1/2 sites.  It is
    kept because the benchmark tracer (bench/tracer.py) wraps it by name,
    and goes with the next change to the benchmark.
    """
    mats = _site_matrices(params)
    q = EulerDiffOp(params.dim)
    for c, x, y in _trace_terms(params)[0]:
        if x[0] == "e" and y[0] == "f" and x[1] != y[1]:
            q = q + EulerDiffOp.function(2.0 * c, mats[x] @ mats[y])
    return q


def commuting_hamiltonians(params, ops=None):
    """The commuting family [H0, H_1, ..., H_N]: the trace coefficients
    themselves, with no reordering correction.  They commute on the
    weight-zero subspace for any number of sites, weights and twist
    level once the momentum is p_hat = D + k u(t^2) (reduced_momentum).
    """
    if ops is None:
        ops = quantum_hamiltonians(params)
    return [ops[0]] + list(ops[1])


def trace_expansion_residual(params, z, t, ops=None):
    """Residual of theta'(1)^2 tr L(z)^2 = H0 + sum_i [H_i u_i
    + K_i u_i^2 + M_i wp_i] as operators, compared coefficient-wise at a
    numeric twist t."""
    ctx = params.ctx
    if ops is None:
        ops = quantum_hamiltonians(params)
    h0, his, kis, mis = ops
    L = lax_quantum(params, z)
    tr = EulerDiffOp(params.dim)
    for a in range(2):
        for b in range(2):
            tr = tr + L[a, b] @ L[b, a]
    rhs = h0
    for i, zi in enumerate(params.sites):
        ui, wpi = ctx.theta_ratio(z / zi), ctx.wp(z / zi)
        rhs = rhs + his[i].scale(ui) + kis[i].scale(ui ** 2) \
            + mis[i].scale(wpi)
    lhs = tr.scale(ctx.theta_prime_one() ** 2)
    return _max_diff(lhs.evaluate(ctx, t), rhs.evaluate(ctx, t))


def check_reduced_commutativity(params, t_samples, exponents, ops=None):
    """Max relative norm of [H_a, H_b] applied to trial functions t^m v
    with v in the weight-zero subspace, over all pairs from the
    commuting family, twist samples and exponents.

    Reduction notes: the Cartan ideal kills weight-zero-valued trials,
    so the commutators of the reduced family must vanish on them, and
    they do to machine precision for any number of sites and weights,
    at any twist level and modulus; a residual of order one means the
    operators are wrong.  Returns None when the weight-zero subspace is
    empty (odd total weight): there is then nothing to test.
    """
    ctx = params.ctx
    fam = commuting_hamiltonians(params, ops=ops)
    vecs = np.eye(params.dim)[:, params.space.weight_zero()]
    if not vecs.size:
        return None
    worst = 0.0
    scale = 0.0
    for a in range(len(fam)):
        for b in range(a + 1, len(fam)):
            prod = fam[a] @ fam[b]
            comm = prod - fam[b] @ fam[a]
            for t in t_samples:
                cvals = comm.evaluate(ctx, t)
                pvals = prod.evaluate(ctx, t)
                for m in exponents:
                    cv = _at_power(cvals, m, params.dim) @ vecs
                    pv = _at_power(pvals, m, params.dim) @ vecs
                    worst = max(worst, np.linalg.norm(cv, axis=0).max())
                    scale = max(scale, np.linalg.norm(pv, axis=0).max())
    return worst / max(scale, 1.0)


def symbol_data(params, rng):
    """Random classical phase point matching the reduced quantum data:
    twists (t, 1/t), momenta (p/2, -p/2), site matrices built from
    scalar symbols of (e, f, h).  Raises PoleError after MAX_DRAWS draws
    in a row that land on the lattice."""
    from .elliptic_classical import EllipticPhasePoint

    def draw():
        t = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.85, 1.2)
        p = rng.normal() + 1j * rng.normal()
        sym = rng.normal(size=(len(params.weights), 3)) \
            + 1j * rng.normal(size=(len(params.weights), 3))
        eta = [np.array([[hv / 2, ev], [fv, -hv / 2]])
               for (ev, fv, hv) in sym]
        return EllipticPhasePoint(params.ctx, [p / 2, -p / 2],
                                  [t, 1.0 / t], eta, params.sites), sym
    return redraw(draw)


def _symbol(terms, vals, ctx, t):
    """Value of a term list of _trace_terms with the names read as the
    scalars vals and each theta-expression coefficient evaluated at t."""
    return sum((c(ctx, t) if isinstance(c, ThetaExpr) else c)
               * vals[x] * vals[y] for c, x, y in terms)


def symbol_residual(params, rng, samples=20):
    """Max relative deviation between the symbols of the quantum
    Hamiltonians and the classical expansion coefficients at random
    reduced phase points.

    The symbols read the term lists that quantum_hamiltonians composes:
    D -> p (the symbol of the reduced momentum is p = p_1 - p_2), the
    k-shift of reduced_momentum dropped (it is subprincipal), and the
    site generators replaced by the commuting scalars
    (e_i, f_i, h_i) = sym[i].
    """
    from .elliptic_classical import hamiltonians_elliptic
    ctx = params.ctx
    h0, *site_terms = _trace_terms(params)
    worst = 0.0
    for _ in range(samples):
        point, sym = symbol_data(params, rng)
        t = point.t[0]
        p = point.p[0] - point.p[1]
        vals = {(g, i): sym[i, a]
                for i in range(len(sym)) for a, g in enumerate("efh")}
        # p_hat = D + k u(t^2) with D -> p, the k-shift dropped
        vals[P] = p - 0.5 * np.sum(sym[:, 2])
        cl = hamiltonians_elliptic(point)
        scale = max(abs(cl.h0), np.abs(cl.h).max(), 1.0)
        worst = max(worst, abs(_symbol(h0, vals, ctx, t) - cl.h0) / scale)
        for lists, ref in zip(site_terms, (cl.h, cl.k, cl.m)):
            got = np.array([_symbol(ts, vals, ctx, t) for ts in lists])
            worst = max(worst, np.abs(got - ref).max() / scale)
    return worst


def _shift_derivative(coeffs, c):
    """Rewrite sum_m A_m D^m with D replaced by D + c."""
    out = {}
    for m, mat in coeffs.items():
        for j in range(m + 1):
            out[j] = out.get(j, 0) + comb(m, j) * (c ** (m - j)) * mat
    return out


def _lax_symmetry_residual(params, z, t, image, swap, shift, conj, factor):
    """Largest entry of |g L'_ab g^-1 - factor[a, b] L_ab(t)| over the four
    entries, evaluated at a numeric twist t and compared per degree in D.

    L' is the Lax matrix at the twist `image`; with swap its entries are
    taken at (1-a, 1-b) and D -> -D.  Then D -> D + shift, and g = conj.
    """
    ctx = params.ctx
    lax = lax_quantum(params, z)
    conj_inv = np.linalg.inv(conj)
    sign = -1.0 if swap else 1.0
    worst = 0.0
    for a, b in np.ndindex(2, 2):
        ref = {m: factor[a, b] * mat
               for m, mat in lax[a, b].evaluate(ctx, t).items()}
        src = lax[1 - a, 1 - b] if swap else lax[a, b]
        raw = {m: sign ** m * mat
               for m, mat in src.evaluate(ctx, image).items()}
        cand = {m: conj @ mat @ conj_inv
                for m, mat in _shift_derivative(raw, shift).items()}
        worst = max(worst, _max_diff(cand, ref))
    return worst


def check_s2_invariance(params, z, t):
    """Residual of the transposition symmetry of the Lax matrix.

    Swapping the two twist components acts by the entry swap
    (a, b) -> (1-a, 1-b) combined with t -> 1/t (hence D -> -D followed
    by the twist-level shift D -> D + k), conjugation by the Weyl element
    [[0, -1], [1, 0]] of SL(2) acting on every site (the group action
    `TensorRepSpace.group_image`, which sends e -> -f, f -> -e, h -> -h),
    and a sign on the off-diagonal entries.  The transformed matrix must
    equal the original entrywise.
    """
    weyl = params.space.group_image(np.array([[0.0, -1.0], [1.0, 0.0]]))
    return _lax_symmetry_residual(
        params, z, t, 1.0 / t, True, float(params.k), weyl,
        np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _lattice_conjugator(params):
    """prod_i z_i^(-h_i/2), read off the diagonals of the h_i."""
    hs = np.diagonal(params.space.images[:, 0, 0], axis1=1, axis2=2).real
    return np.diag(np.prod(params.sites[:, None] ** (-hs / 2), axis=0))


def check_lattice_invariance(params, z, t):
    """Residual of the lattice symmetry of the Lax matrix.

    The lattice generator scales the squared twist by 1/q, shifts
    D -> D - k, and conjugates every site representation by
    z_i^(-h_i/2), a diagonal matrix in the weight basis; the result must
    match Ad(diag(1, z)) applied to the original Lax matrix entrywise.
    """
    return _lax_symmetry_residual(
        params, z, t, t / np.sqrt(params.ctx.q), False, -float(params.k),
        _lattice_conjugator(params), np.array([[1.0, 1.0 / z], [z, 1.0]]))
