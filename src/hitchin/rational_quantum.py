"""Quantum Gaudin operators on tensor products of representations.

Quadratic Gaudin Hamiltonians and their Casimir parts, the s_p polynomial
recursion, the companion diagonal matrix of its roots, and higher Gaudin
operators obtained by averaging conjugates of that matrix over the
unitary group, exactly (Weingarten calculus) or by Monte Carlo
Haar sampling with standard errors from batch replicates.  The Monte Carlo
path needs a diagonal traceless H, as `eigen_h` is: it moves the group
action off the current, current(Ad(k)H) = R(k) current(H) R(k)^-1, and
averages R(k)[:, m] R(k^-1)[m, :] once for every node and power.  The
split Casimir is read from the site images of the matrix units
(`lie.split_casimir`), exactly on sl2 sites too.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .lie import TensorRepSpace, matrix_units, split_casimir
from .numerics import PartialFractionPlan, check_distinct, site_differences


class GaudinSystem:
    """Tensor representation space with marked points.

    An n x n matrix x acts at a site as sum_ab x_ab times the site image
    of E_ab: exact for traceless x on sl2 sites, which map E_11 to 0.
    """

    def __init__(self, space, sites):
        if len(sites) != space.nsites:
            raise ValueError("site count must match tensor factor count")
        sites = [complex(z) for z in sites]
        check_distinct(sites)
        self.space = space
        self.sites = sites

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

    def current(self, x, u):
        """x(u) = sum_i x^(i)/(u-z_i).

        x may be a stack of shape (..., n, n) and u an array; the result has
        shape x.shape[:-2] + u.shape + (dim, dim).
        """
        x = np.asarray(x, dtype=complex)
        u = np.asarray(u)
        dz = site_differences(u, self.sites)
        dim = self.space.dim
        lead = x.shape[:-2]
        out = np.zeros(lead + u.shape + (dim, dim), dtype=complex)
        for i in range(1, len(self.sites) + 1):
            image = self.rep_embed(x, i).reshape(
                lead + (1,) * u.ndim + (dim, dim))
            out += image / dz[..., i - 1, None, None]
        return out


def gaudin_quadratic(system, zeta):
    """The quadratic pencil: Omega on the unit currents J_ab(zeta)."""
    cur = system.current(matrix_units(system.space.n), zeta)
    return split_casimir(cur, cur) / system.space.n


def gaudin_residues(system):
    """Simple-pole residues H_{2,i} and the central site Casimirs.

    H_{2,i} = sum_{j != i} 2 Omega_ij / (z_i - z_j), Omega_ij the split
    Casimir on sites i and j; the double-pole coefficients C_i = Omega_ii
    are central and returned separately.
    """
    images, n, sites = system.space.images, system.space.n, system.sites
    hams = [np.zeros((system.space.dim,) * 2, dtype=complex) for _ in sites]
    # Omega_ij = Omega_ji: each pair once, added to H_i and H_j
    for i, j in itertools.combinations(range(len(sites)), 2):
        omega = 2.0 / n * split_casimir(images[i], images[j])
        hams[i] += omega / (sites[i] - sites[j])
        hams[j] += omega / (sites[j] - sites[i])
    return hams, [split_casimir(a, a) / n for a in images]


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


class OperatorPencil:
    """Partial-fraction coefficients of an operator-valued rational function.

    coeffs maps the multi-indices of the extraction plan (a_1..a_N),
    sum a_i = l - 1, to operators; se maps them to Frobenius standard
    errors from the batch replicates and nsamples counts the Haar samples
    drawn (both 0 for the exact average).
    """

    def __init__(self, degree, plan, coeffs, se, nsamples):
        self.degree = degree
        self.plan = plan
        self.coeffs = coeffs
        self.se = se
        self.nsamples = nsamples


def _cycle_counts(perms):
    """Number of cycles of each permutation in a stack of shape (..., l)."""
    l = perms.shape[-1]
    start = np.arange(l)
    x = low = np.broadcast_to(start, perms.shape)
    for _ in range(l - 1):
        x = np.take_along_axis(perms, x, axis=-1)
        low = np.minimum(low, x)
    # each cycle is counted at its smallest element
    return np.sum(low == start, axis=-1)


def _permutation_average(H, l):
    """Haar average of (Ad(k)H)^{(x) l} over SU(n), shape (n*n,) * l.

    It is sum_s c_s P_s over the permutations s of the l factors
    (Weingarten calculus): c = G^+ b with G_st = <P_s, P_t> =
    n^#cycles(s^-1 t) and b_s = <P_s, H^{(x) l}>, the product over the
    cycles of s of tr H^|cycle|; the pseudoinverse covers l > n.  Entry
    (k_1, ..., k_l), k_j = n a_j + b_j, is the coefficient of
    E_{a_1 b_1} x ... x E_{a_l b_l}.
    """
    n = H.shape[0]
    perms = np.array(list(itertools.permutations(range(l))))
    gram = float(n) ** _cycle_counts(np.argsort(perms)[:, perms])
    # P_s[a, b] = prod_j delta(a_j, b_s(j)) is 1 at the n^l index tuples
    # (b_s(1), b_1, ..., b_s(l), b_l) of the layout (a_1, b_1, ..., a_l, b_l)
    b = np.indices((n,) * l).reshape(l, -1)
    tuples = np.stack(np.broadcast_arrays(b[perms], b), axis=2)
    ones = np.ravel_multi_index(
        tuple(tuples.reshape(len(perms), 2 * l, -1).swapaxes(0, 1)),
        (n,) * 2 * l)
    moments = np.prod(H[b[perms], b], axis=1).sum(axis=-1)
    coeffs = np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ moments
    avg = np.zeros(n ** (2 * l), dtype=complex)
    for idx, c in zip(ones, coeffs):
        avg[idx] += c
    return avg.reshape((n * n,) * l)


def exact_average_power(system, H, l, zetas):
    """Exact averages of (sum_i Ad(k)H^(i)/(zeta - z_i))^l over SU(n).

    The average of (Ad(k)H)^{(x) l} (`_permutation_average`, any n x n H)
    is contracted with the currents J_ab(zeta) of the matrix units, which
    is exact on sl2 sites too, as sum_ab X_ab J_ab is the current of X
    there.  Per node it costs n^(2l-2) dim^3 and, contracting one value
    of the first index at a time, holds n^(2l-4) dim^2 numbers: SU(3) on
    three defining sites at 13 nodes takes 0.02 s at l = 3, 0.1-0.15 s at
    l = 4 and 0.7-1.7 s at l = 5 (45 MB peak RSS) on a shared 2-core
    machine.  Returns shape (len(zetas), dim, dim).
    """
    n, dim = system.space.n, system.space.dim
    avg = _permutation_average(np.asarray(H), l)
    # J[k, z] is the current of the matrix unit E_ab, k = n a + b
    J = system.current(matrix_units(n).reshape(n * n, n, n), np.ravel(zetas))
    if l == 1:
        return np.tensordot(avg, J, axes=1)
    out = []
    for Jz in J.swapaxes(0, 1):
        # sum_k_l avg[..., k_l] J_k_l, then J_k @ (...) for the remaining k
        # from the right, one value of the first index at a time
        rows = Jz.swapaxes(0, 1).reshape(dim, n * n * dim)
        firsts = [_left_products(rows, np.tensordot(a, Jz, axes=1))
                  for a in avg]
        out.append(_left_products(rows, np.array(firsts)))
    return np.array(out)


def _left_products(rows, total):
    """sum_k J_k @ total[..., k, :, :] over the leading k axes, last first,
    each as one product of rows = [J_0 ... J_(n^2-1)] with the stacked
    (k, row) axis."""
    dim = rows.shape[0]
    while total.ndim > 2:
        total = rows @ total.reshape(total.shape[:-3] + (-1, dim))
    return total


# Bytes of the per-draw products of the site tensors q_i over all sites but
# the last that one chunk of draws holds (see `_batch_means`), so that
# memory per chunk does not grow with the number of samples.
CHUNK_BYTES = 1 << 18


def _batch_means(system, H, l, zetas, sampler, nsamples, batches):
    """Batch means of the l-th powers, shape (batches, zetas, dim, dim).

    current(Ad(k)H, zeta) = R(k) current(H, zeta) R(k)^-1, with R the group
    action on the space, and for a diagonal traceless H, current(H, zeta)
    is the diagonal matrix of D(zeta).  So a batch mean is
    sum_m D_m(zeta)^l A_m, where A_m, the batch mean of
    R(k)[:, m] R(k^-1)[m, :], is shared by every node.  R(k) is the
    Kronecker product of the site actions rho_i(k)
    (`TensorRepSpace.site_images`), so a draw adds to A_m[r, c] the product
    over the sites of q_i[m_i, r_i, c_i] = rho_i(k)[r_i, m_i]
    rho_i(k^-1)[m_i, c_i], d_i^3 numbers each.  A batch is one sampler
    call; its draws go in chunks whose per-draw products of the q_i of all
    sites but the last hold at most CHUNK_BYTES, and one matrix product
    with the last site's q sums a chunk over its draws.  The batch sum,
    site by site, has its axes reordered to (m, r, c) once per batch.
    """
    if batches < 2 or nsamples < batches:
        raise ValueError("need batches >= 2 and nsamples >= batches, got "
                         "%d and %d" % (batches, nsamples))
    H = np.asarray(H, dtype=complex)
    if (np.any(H != np.diag(np.diagonal(H)))
            or abs(np.trace(H)) > 1e-12 * np.linalg.norm(H)):
        raise ValueError("Monte Carlo averages need a diagonal traceless H")
    space = system.space
    dim, dims = space.dim, space.site_dims
    powers = np.diagonal(system.current(H, np.asarray(zetas)),
                         axis1=-2, axis2=-1) ** l
    chunk = max(1, CHUNK_BYTES // (16 * math.prod(d ** 3 for d in dims[:-1])))
    # the axes (m_1, r_1, c_1, ..., m_N, r_N, c_N) of a sum, as (m, r, c)
    order = [3 * i + j for j in range(3) for i in range(len(dims))]
    per_batch = nsamples // batches
    out = np.empty((batches,) + powers.shape[:-1] + (dim, dim),
                   dtype=complex)
    for b in range(batches):
        ks = sampler.sample(per_batch)
        for s in range(0, per_batch, chunk):
            k = ks[s:s + chunk]
            rhos = space.site_images(
                np.concatenate((k, k.conj().swapaxes(-1, -2))))
            # q_i[draw, (m, r, c)] = rho_i(k)[r, m] rho_i(k^-1)[m, c]
            qs = [(rho[:len(k)].swapaxes(1, 2)[..., None]
                   * rho[len(k):, :, None, :]).reshape(len(k), -1)
                  for rho in rhos]
            prod = np.ones((len(k), 1), dtype=complex)
            for q in qs[:-1]:
                prod = (prod[:, :, None] * q[:, None, :]).reshape(len(k), -1)
            if s:
                sums += prod.T @ qs[-1]
            else:
                sums = prod.T @ qs[-1]
        sums = sums.reshape([d for d in dims for _ in range(3)])
        out[b] = (powers @ sums.transpose(order).reshape(dim, -1)).reshape(
            out.shape[1:])
    out /= per_batch
    return out


def _standard_error(replicates, mean):
    """Frobenius standard error of the mean of independent replicates."""
    dev = sum(np.linalg.norm(r - mean) ** 2 for r in replicates)
    return np.sqrt(dev / (len(replicates) * (len(replicates) - 1)))


def haar_average_power(system, H, l, zetas, sampler, nsamples, batches=10):
    """Monte Carlo averages of (sum_i Ad(k)H^(i)/(zeta - z_i))^l.

    H must be diagonal and traceless (ValueError otherwise).  Returns
    (means, ses): per zeta the mean of the batch means and its Frobenius
    standard error.  nsamples // batches samples are drawn per batch
    (batches >= 2, nsamples >= batches), one sampler call per batch.  A
    batch keeps the means A_m of R(k)[:, m] R(k^-1)[m, :], dim^3 numbers
    (0.3 MB at dim 27), from the per-site images rho_i(k): in chunks of
    draws whose per-draw products of the site tensors of all sites but the
    last, prod_{i<N} d_i^3 numbers, hold at most CHUNK_BYTES, one matrix
    product per chunk (see `_batch_means`).  It contracts them with the
    l-th powers of the diagonal of current(H, zeta).
    """
    batch = _batch_means(system, H, l, zetas, sampler, nsamples, batches)
    means = sum(batch) / batches
    return list(means), [_standard_error(batch[:, idx], means[idx])
                         for idx in range(len(means))]


def higher_gaudin(system, H, l, sampler=None, nsamples=10000, batches=10):
    """Higher Gaudin pencil from the group average of the l-th power.

    The average, exact without a sampler and the mean of the Monte Carlo
    batch means with one, is projected onto the partial-fraction basis
    prod_i (zeta - z_i)^{-a_i}, sum a_i = l - 1, by least squares at fixed
    circle nodes; standard errors come from the batch means' coefficients.
    With a sampler H must be diagonal and traceless, and one batch mean of
    the dim^3 numbers A_m (see `haar_average_power`) serves every node.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    count = max((l - 1) * len(system.sites) + 1, 8)
    plan = PartialFractionPlan(system.sites, l - 1, count, 0.17)
    if sampler is None:
        coeffs = dict(zip(plan.keys, plan.coefficients(
            exact_average_power(system, H, l, plan.nodes))))
        return OperatorPencil(l, plan, coeffs, dict.fromkeys(coeffs, 0.0), 0)
    batch = _batch_means(system, H, l, plan.nodes, sampler, nsamples, batches)
    coeffs = dict(zip(plan.keys, plan.coefficients(sum(batch) / batches)))
    replicates = [plan.coefficients(b) for b in batch]
    se = {a: float(_standard_error([r[k] for r in replicates], coeffs[a]))
          for k, a in enumerate(plan.keys)}
    return OperatorPencil(l, plan, coeffs, se, nsamples // batches * batches)


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
    """H_{2,i} over exact rationals at pairwise distinct rational sites.

    weights as for `TensorRepSpace`, with integer unit images; sites are
    Fractions (or ints).  Returns object-dtype matrices of Fractions: H_i
    sums n Omega_ij (`split_casimir`), formed in integers, over one integer
    denominator, the lcm of the numerators of the z_i - z_j, and becomes
    Fractions entry by entry at the end.
    """
    space = TensorRepSpace(weights)
    sites = [Fraction(z) for z in sites]
    if len(sites) != space.nsites:
        raise ValueError("need one site per weight, got %d sites for %d weights"
                         % (len(sites), space.nsites))
    if len(set(sites)) < len(sites):
        raise ValueError("sites must be pairwise distinct")
    images = space.images.real.astype(np.int64)
    dens = [math.lcm(*((si - sj).numerator for j, sj in enumerate(sites)
                       if j != i))
            for i, si in enumerate(sites)]
    nums = [np.zeros((space.dim, space.dim), dtype=object) for _ in sites]
    # Omega_ij = Omega_ji: each pair once, added to H_i and H_j
    for i, j in itertools.combinations(range(len(sites)), 2):
        omega = split_casimir(images[i], images[j]).astype(object)
        for a, b in ((i, j), (j, i)):
            # 1 / (z_a - z_b) is this integer over dens[a];
            # H_a = 2 nums[a] / (n dens[a])
            diff = sites[a] - sites[b]
            nums[a] += omega * (diff.denominator * (dens[a] // diff.numerator))
    return [np.array([[Fraction(2 * v, space.n * den) for v in row]
                      for row in num], dtype=object)
            for num, den in zip(nums, dens)]
