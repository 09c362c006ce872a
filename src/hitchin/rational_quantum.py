"""Quantum Gaudin operators on tensor products of representations.

Quadratic Gaudin Hamiltonians and their Casimir parts, operators built from
singular-vector data (ordered products of derivatives of currents), the
s_p polynomial recursion, the companion diagonal matrix of its roots, and
higher Gaudin operators obtained by averaging conjugates of that matrix
over the unitary group.
"""

from fractions import Fraction

import numpy as np

from .lie import MatrixAlgebra, TensorRepSpace
from .numerics import PartialFractionPlan, check_distinct


class GaudinSystem:
    """Tensor representation space with marked points and an algebra.

    For spaces built from sl2 highest weights the algebra is sl_2 and
    abstract 2x2 traceless matrices are carried through the irreducible
    representations at each site; for defining-representation spaces any
    n x n matrix acts directly.
    """

    def __init__(self, space, sites, algebra=None):
        if len(sites) != space.nsites:
            raise ValueError("site count must match tensor factor count")
        sites = [complex(z) for z in sites]
        check_distinct(sites)
        self.space = space
        self.sites = sites
        if algebra is None:
            algebra = MatrixAlgebra(space.n, "sl")
        self.algebra = algebra

    def rep_embed(self, x, i):
        """Site operator of the representation image of the algebra element x.

        x may be a stack of shape (..., n, n); so is the result, (..., dim, dim).
        """
        space = self.space
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (space.n, space.n):
            raise ValueError("algebra element shape does not match site")
        if not 1 <= i <= space.nsites:
            raise ValueError("site index out of range")
        lead = x.shape[:-2]
        units = space.images[i - 1].reshape(space.n ** 2, space.dim ** 2)
        return (x.reshape(lead + (-1,)) @ units).reshape(
            lead + (space.dim, space.dim))

    def current(self, x, u, order=1):
        """x(u) = sum_i x^(i)/(u-z_i)^order (order > 1 for derivatives).

        x may be a stack of shape (..., n, n) and u an array; the result has
        shape x.shape[:-2] + u.shape + (dim, dim).
        """
        x = np.asarray(x, dtype=complex)
        u = np.asarray(u)
        if any(np.any(np.abs(u - z) < 1e-12) for z in self.sites):
            raise ValueError("evaluation at a marked point")
        dim = self.space.dim
        lead = x.shape[:-2]
        out = np.zeros(lead + u.shape + (dim, dim), dtype=complex)
        for i, zi in enumerate(self.sites, start=1):
            image = self.rep_embed(x, i).reshape(
                lead + (1,) * u.ndim + (dim, dim))
            # np.power, not **: an array ** 2 is np.square, which rounds
            # differently from the scalar power
            out += image / np.power(u - zi, order)[..., None, None]
        return out


def gaudin_quadratic(system, zeta):
    """The quadratic pencil sum_a e_a(zeta) e_a(zeta) over the orthonormal basis."""
    cur = system.current(np.array(system.algebra.basis()), zeta)
    return np.sum(cur @ cur, axis=0)


def gaudin_residues(system):
    """Simple-pole residues H_{2,i} and the central site Casimirs.

    H_{2,i} = sum_{j != i} 2 Omega_ij / (z_i - z_j) with
    Omega_ij = sum_a e_a^(i) e_a^(j); the double-pole coefficients
    C_i = sum_a (e_a^(i))^2 are central and returned separately.
    """
    basis = system.algebra.basis()
    N = len(system.sites)
    dim = system.space.dim
    site_ops = [[system.rep_embed(e, i) for e in basis]
                for i in range(1, N + 1)]
    hams = []
    casimirs = []
    for i in range(N):
        h = np.zeros((dim, dim), dtype=complex)
        for j in range(N):
            if j == i:
                continue
            omega = sum(a @ b for a, b in zip(site_ops[i], site_ops[j]))
            h += 2.0 * omega / (system.sites[i] - system.sites[j])
        hams.append(h)
        casimirs.append(sum(a @ a for a in site_ops[i]))
    return hams, casimirs


class SingularVectorSpec:
    """Sum of ordered products of current factors with depths.

    terms: list of (coefficient, factors); each factor is (matrix, depth)
    with depth >= 1.  Factor order within a term is significant.
    """

    def __init__(self, terms):
        for _, factors in terms:
            for _, depth in factors:
                if depth < 1 or depth != int(depth):
                    raise ValueError("depths must be positive integers")
        self.terms = [(complex(c), [(np.asarray(x, dtype=complex), int(l))
                                    for x, l in factors])
                      for c, factors in terms]

    @classmethod
    def quadratic(cls, algebra):
        return cls([(1.0, [(e, 1), (e, 1)]) for e in algebra.basis()])


def ffr_operator(system, spec, u):
    """Operator attached to singular-vector data at the point u.

    Each factor (x, l) contributes (1/(l-1)!) d^{l-1}/du^{l-1} x(u)
    = sum_i (-1)^{l-1} x^(i)/(u-z_i)^l; factors multiply left to right
    and terms are summed with their coefficients.
    """
    dim = system.space.dim
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in spec.terms:
        prod = np.eye(dim, dtype=complex)
        for x, l in factors:
            prod = prod @ ((-1) ** (l - 1) * system.current(x, u, order=l))
        total += coeff * prod
    return total


def s_polynomials(n, p_max):
    """The exact rational sequence s_1..s_p_max for gl_n.

    s_1 = 0, s_2 = n/2, s_3 = -2n/3 and
    s_{p+2} = ((n - p) s_p - 2 (p + 1) s_{p+1}) / (p + 2).
    """
    if p_max < 3:
        raise ValueError("need p_max >= 3")
    s = [Fraction(0), Fraction(n, 2), Fraction(-2 * n, 3)]
    for p in range(2, p_max - 1):
        nxt = ((n - p) * s[p - 1] - 2 * (p + 1) * s[p]) / Fraction(p + 2)
        s.append(nxt)
    return s[:p_max]


def eigen_h(n):
    """Diagonal matrix of the roots of the s_p characteristic polynomial.

    Roots of lambda^n - s_1 lambda^{n-1} + s_2 lambda^{n-2} - ... = 0,
    found with a companion-matrix eigensolver and ordered lexicographically
    by (Re, Im), descending.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    s = s_polynomials(n, max(n, 3))
    coeffs = [1.0] + [(-1) ** k * float(s[k - 1]) for k in range(1, n + 1)]
    roots = np.roots(coeffs)
    worst = max(abs(np.polyval(coeffs, r)) for r in roots)
    if worst > 1e-8:
        raise ArithmeticError(
            "ill-conditioned characteristic polynomial: residual %g" % worst)
    roots = sorted(roots, key=lambda r: (r.real, r.imag), reverse=True)
    return np.diag(roots)


class HaarSampler:
    """Haar-distributed SU(n) matrices from QR of complex Gaussians."""

    def __init__(self, n, seed=0):
        self.n = n
        self.rng = np.random.default_rng(seed)

    def sample(self, count=None):
        """One matrix, or with a count a stack of that many, equal to as
        many single draws made one after the other."""
        n = self.n
        x = self.rng.normal(size=(1 if count is None else count, 2, n, n))
        g = (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[:, None, :]
        det = np.linalg.det(q)
        # np.power, not **: an array ** 0.5 is np.sqrt, which rounds
        # differently from the scalar power
        q = q / np.power(det, 1.0 / n)[:, None, None]
        return q[0] if count is None else q


class SU2Quadrature:
    """Deterministic product quadrature for Haar averages over SU(2).

    Parametrizes k = [[e^{i phi} cos th, e^{i psi} sin th],
                      [-e^{-i psi} sin th, e^{-i phi} cos th]];
    the Haar measure is uniform in x = cos(2 th) and in the two angles,
    so Gauss-Legendre in x times trapezoid rules in phi, psi integrate
    low-degree trigonometric polynomials exactly.
    """

    def __init__(self, n_x=8, n_angle=8):
        x, wx = np.polynomial.legendre.leggauss(n_x)
        self.nodes = []
        self.weights = []
        for xi, wi in zip(x, wx):
            th = 0.5 * np.arccos(xi)
            for a in range(n_angle):
                phi = 2 * np.pi * a / n_angle
                for b in range(n_angle):
                    psi = 2 * np.pi * b / n_angle
                    c, s = np.cos(th), np.sin(th)
                    k = np.array([
                        [np.exp(1j * phi) * c, np.exp(1j * psi) * s],
                        [-np.exp(-1j * psi) * s, np.exp(-1j * phi) * c],
                    ])
                    self.nodes.append(k)
                    self.weights.append(wi / (2.0 * n_angle * n_angle))


class OperatorPencil:
    """Partial-fraction coefficients of an operator-valued rational function.

    coeffs maps the multi-indices of the extraction plan (a_1..a_N),
    sum a_i = l - 1, to operators; se maps the same keys to Monte Carlo
    standard-error estimates; nsamples is the number of Haar samples
    drawn (0 with a quadrature).
    """

    def __init__(self, degree, plan, coeffs, se, nsamples):
        self.degree = degree
        self.plan = plan
        self.coeffs = coeffs
        self.se = se
        self.nsamples = nsamples

    def reconstruct(self, zeta):
        return self.plan.evaluate([self.coeffs[a] for a in self.plan.keys],
                                  zeta)


# Bytes of the stacked operators one chunk of group elements holds: the
# few chunk-sized temporaries then add well under a megabyte to peak memory
# however many samples are drawn.
CHUNK_BYTES = 1 << 18


def haar_average_power(system, H, l, zetas, sampler, nsamples, batches=10):
    """Averages of (sum_i Ad(k)H^(i)/(zeta - z_i))^l over the group.

    Returns (means, ses): per zeta the averaged operator and a Frobenius
    standard error from batch means.  With a quadrature sampler all nodes
    are used with their weights, nsamples and batches are ignored and the
    errors are zero.  Otherwise nsamples // batches samples are drawn per
    batch, which needs batches >= 2 and nsamples >= batches.  Group
    elements are evaluated in stacked chunks of at most CHUNK_BYTES of
    operators and summed in draw order.
    """
    dim = system.space.dim
    zetas = np.asarray(zetas)
    zero = np.zeros(zetas.shape + (dim, dim), dtype=complex)
    # one group element contributes as many operators as zero holds
    chunk = max(1, CHUNK_BYTES // max(zero.nbytes, 1))

    def accumulate(total, ks, weights=None):
        """total plus the l-th powers at every zeta, summed over the stack ks."""
        kh = ks @ H @ ks.conj().swapaxes(-1, -2)
        values = np.linalg.matrix_power(system.current(kh, zetas), l)
        if weights is not None:
            values = weights[:, None, None, None] * values
        # a reduction over the leading axis adds in stack order, so the sum
        # does not depend on where the chunks split
        return np.sum(np.concatenate((total[None], values)), axis=0)

    if hasattr(sampler, "nodes"):
        nodes = np.asarray(sampler.nodes)
        weights = np.asarray(sampler.weights)
        total = zero
        for s in range(0, len(nodes), chunk):
            total = accumulate(total, nodes[s:s + chunk], weights[s:s + chunk])
        return list(total), [0.0 for _ in zetas]

    if batches < 2 or nsamples < batches:
        raise ValueError("need batches >= 2 and nsamples >= batches, got "
                         "%d and %d" % (batches, nsamples))
    per_batch = nsamples // batches
    batch_means = []
    for _ in range(batches):
        sums = zero
        for s in range(0, per_batch, chunk):
            sums = accumulate(sums, sampler.sample(min(chunk, per_batch - s)))
        batch_means.append(sums / per_batch)
    means = sum(batch_means) / batches
    ses = []
    for idx in range(len(zetas)):
        dev = [np.linalg.norm(b[idx] - means[idx]) ** 2 for b in batch_means]
        ses.append(np.sqrt(sum(dev) / (batches * (batches - 1))))
    return list(means), ses


def higher_gaudin(system, H, l, sampler, nsamples=10000, batches=10):
    """Higher Gaudin pencil from the group average of the l-th power.

    The averaged operator-valued rational function is projected onto the
    partial-fraction basis prod_i (zeta - z_i)^{-a_i}, sum a_i = l - 1, by
    least squares at fixed circle nodes; coefficient standard errors are
    propagated from the batch-mean errors of the node values.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    sites = system.sites
    plan = PartialFractionPlan(sites, l - 1,
                               max((l - 1) * len(sites) + 1, 8), 0.17)
    means, ses = haar_average_power(system, H, l, plan.nodes, sampler,
                                    nsamples, batches)
    coeffs = dict(zip(plan.keys, plan.coefficients(means)))
    se = {a: float(np.sqrt(sum(abs(w) ** 2 * s ** 2
                               for w, s in zip(row, ses))))
          for row, a in zip(plan.weights, plan.keys)}
    drawn = 0 if hasattr(sampler, "nodes") else nsamples // batches * batches
    return OperatorPencil(l, plan, coeffs, se, drawn)


def commutator_norm(a, b):
    """Frobenius norm of the commutator ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("operators must be square and of equal shape")
    return float(np.linalg.norm(a @ b - b @ a))


# ---------------------------------------------------------------------------
# exact-arithmetic path for commutator checks at rational sites


def gaudin_residues_exact(weights, sites):
    """H_{2,i} over exact rationals for sl2 weight data at rational sites.

    sites must be Fractions (or ints); returns object-dtype matrices of
    Fractions.  2 Omega_ij = h_i h_j + 2 e_i f_j + 2 f_i e_j is formed in
    integer arithmetic from the site images of e, f, h; only the division
    by z_i - z_j leaves the integers.
    """
    space = TensorRepSpace(weights)
    sites = [Fraction(z) for z in sites]
    if len(sites) != space.nsites:
        raise ValueError("need one site per weight, got %d sites for %d weights"
                         % (len(sites), space.nsites))
    e, f, h = ([space.generator(g, i).real.astype(np.int64)
                for i in range(1, space.nsites + 1)] for g in "efh")
    hams = []
    for i, si in enumerate(sites):
        ham = np.full((space.dim, space.dim), Fraction(0), dtype=object)
        for j, sj in enumerate(sites):
            if j != i:
                two_omega = h[i] @ h[j] + 2 * (e[i] @ f[j] + f[i] @ e[j])
                ham = ham + two_omega.astype(object) / (si - sj)
        hams.append(ham)
    return hams
