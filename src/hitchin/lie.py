"""Split Casimirs, sl2 irreducibles and tensor-product site operators.

Provides the split Casimir of sl_n read from the images of the matrix
units, finite-dimensional irreducible representations of sl2 in exact
integer arithmetic, and tensor products of such representations with the
usual embedding X -> 1 x ... x X x ... x 1 at a chosen site, and the
matching action of SU(n) on the tensor product.
"""

import math

import numpy as np


def sl2_irrep(lam):
    """Irreducible sl2 representation of highest weight lam (dimension lam+1).

    Returns a dict with integer matrices 'e', 'f', 'h' acting on the basis
    v_0, ..., v_lam with h v_k = (lam - 2k) v_k, f v_k = (k+1) v_{k+1},
    e v_k = (lam - k + 1) v_{k-1}.  All commutation relations hold exactly.
    'units' holds the images of the 2 x 2 matrix units E_ab: E01 -> e,
    E10 -> f, E00 -> h, E11 -> 0, so that a traceless x acts as
    x01 e + x10 f + x00 h.
    """
    if lam < 0 or lam != int(lam):
        raise ValueError("highest weight must be a nonnegative integer")
    lam = int(lam)
    d = lam + 1
    e = np.zeros((d, d), dtype=np.int64)
    f = np.zeros((d, d), dtype=np.int64)
    h = np.zeros((d, d), dtype=np.int64)
    for k in range(d):
        h[k, k] = lam - 2 * k
        if k + 1 < d:
            f[k + 1, k] = k + 1
            e[k, k + 1] = lam - k
    units = np.array([[h, e], [f, np.zeros_like(h)]])
    return {"e": e, "f": f, "h": h, "dim": d, "weight": lam, "units": units}


def matrix_units(n):
    """The n x n matrix units E_ab stacked with shape (n, n, n, n); they are
    also their own images in the defining representation of gl_n."""
    return np.eye(n * n, dtype=np.int64).reshape(n, n, n, n)


def split_casimir(A, B):
    """n Omega on unit-indexed stacks A, B of shape (n, n, ..., dim, dim).

    Omega = sum_ab E_ab (x) E_ba - (1/n) 1 (x) 1, the split Casimir of sl_n,
    acts as sum_ab A_ab B_ba - (1/n) tr A tr B (tr A = sum_a A_aa) when
    A[a, b], B[a, b] are the images of E_ab on the two factors; times n it
    is an integer on integer images.  It is exact on sl2 sites too, whose
    units map E_11 to 0 and so form no gl2 representation: the formula is
    unchanged when one factor's diagonal images all shift by one operator,
    so it reads only the sl_n part of the action, where Omega lies.
    """
    n = len(A)
    return (n * sum(A[a, b] @ B[b, a] for a, b in np.ndindex(n, n))
            - np.trace(A) @ np.trace(B))


def _sym_power(ks, w):
    """Image of a stack of 2 x 2 matrices on the basis v_j of `sl2_irrep`.

    Column j holds the coefficients of binom(w, j) (k00 x + k10 y)^(w-j)
    (k01 x + k11 y)^j over binom(w, i) x^(w-i) y^i, i = 0..w.
    """
    binom = np.array([math.comb(w, j) for j in range(w + 1)], dtype=float)
    cols = []
    for j in range(w + 1):
        poly = np.ones(ks.shape[:-2] + (1,), dtype=complex)
        for col in [0] * (w - j) + [1] * j:
            zero = np.zeros(poly.shape[:-1] + (1,), dtype=complex)
            poly = (np.concatenate((poly * ks[..., 0, col, None], zero), -1)
                    + np.concatenate((zero, poly * ks[..., 1, col, None]), -1))
        cols.append(poly * (binom[j] / binom))
    return np.stack(cols, axis=-1)


class TensorRepSpace:
    """Tensor product of representations with site-operator embedding.

    One site per entry of weights: an sl2 highest weight, or a
    representation dict with 'dim' and 'units', the images of the n x n
    matrix units E_ab (see `sl2_irrep`).  All sites share one n; the
    `defining` classmethod takes N copies of the defining representation
    of gl_n.  Sites are numbered from 1.  images[i - 1, a, b] is E_ab
    embedded at site i, built once per space.
    """

    def __init__(self, weights):
        self.reps = [w if isinstance(w, dict) else sl2_irrep(w)
                     for w in weights]
        sizes = {r["units"].shape[0] for r in self.reps} or {2}
        if len(sizes) > 1:
            raise ValueError("all sites must share one algebra")
        self.n = n = sizes.pop()
        self.site_dims = [r["dim"] for r in self.reps]
        self.dim = int(np.prod(self.site_dims))
        self.nsites = len(self.site_dims)
        self.images = np.zeros((self.nsites, n, n, self.dim, self.dim),
                               dtype=complex)
        for i, rep in enumerate(self.reps, start=1):
            for a, b in np.ndindex(n, n):
                self.images[i - 1, a, b] = self.site_operator(
                    rep["units"][a, b], i)
        self.images.flags.writeable = False

    @classmethod
    def defining(cls, n, nsites):
        """N copies of the defining representation of gl_n, on which each
        matrix unit E_ab acts as itself."""
        return cls([{"dim": n, "units": matrix_units(n)}] * nsites)

    def site_operator(self, x, i):
        """Embed the matrix x at site i (1-based): 1 x ... x X x ... x 1."""
        if not 1 <= i <= self.nsites:
            raise ValueError("site index out of range")
        x = np.asarray(x)
        if x.shape != (self.site_dims[i - 1],) * 2:
            raise ValueError("operator shape does not match site dimension")
        out = np.eye(1, dtype=x.dtype if x.dtype == complex else complex)
        for j, d in enumerate(self.site_dims, start=1):
            out = np.kron(out, x if j == i else np.eye(d))
        return out

    def site_images(self, ks):
        """The site actions rho_1(k), ..., rho_N(k) of a stack of SU(n)
        elements.

        ks has shape (..., n, n); rho_i(k) has shape (..., d_i, d_i).  A
        defining site acts by k itself.  An sl2 site of weight w acts on
        v_j = f^j v_0 / j!, which is binom(w, j) x^(w-j) y^j among the
        degree-w polynomials in x = e_0, y = e_1 that k maps by
        x -> k00 x + k10 y, y -> k01 x + k11 y.  A site of any other
        representation raises ValueError.
        """
        n = self.n
        ks = np.asarray(ks, dtype=complex)
        if ks.shape[-2:] != (n, n):
            raise ValueError("group elements must be %d x %d" % (n, n))
        defining = matrix_units(n)
        rhos = []
        for i, rep in enumerate(self.reps, start=1):
            if "weight" in rep:
                rhos.append(_sym_power(ks, rep["weight"]))
            elif rep["dim"] == n and np.array_equal(rep["units"], defining):
                rhos.append(ks)
            else:
                raise ValueError("no group action known at site %d" % i)
        return rhos

    def group_image(self, ks):
        """R(k) = rho_1(k) x ... x rho_N(k) for a stack of SU(n) elements.

        ks has shape (..., n, n); the result has shape (..., dim, dim), the
        Kronecker product of the `site_images`.  Then
        rep_embed(k X k^-1, i) = R(k) rep_embed(X, i) R(k)^-1 for traceless
        X.
        """
        ks = np.asarray(ks, dtype=complex)
        lead = ks.shape[:-2]
        out = np.ones(lead + (1, 1), dtype=complex)
        for rho in self.site_images(ks):
            size = out.shape[-1] * rho.shape[-1]
            out = (out[..., :, None, :, None]
                   * rho[..., None, :, None, :]).reshape(lead + (size, size))
        return out

    def generator(self, name, i):
        """Site operator for one of the sl2 generators 'e', 'f', 'h'."""
        if not 1 <= i <= self.nsites:
            raise ValueError("site index out of range")
        if "h" not in self.reps[i - 1]:
            raise ValueError("no sl2 structure on a defining-rep space")
        a, b = {"e": (0, 1), "f": (1, 0), "h": (0, 0)}[name]
        return self.images[i - 1, a, b]

    def weight_zero(self):
        """Mask of the basis states on which the total h vanishes."""
        h = sum(self.generator("h", i) for i in range(1, self.nsites + 1))
        return np.diag(h).real == 0

    def weight_zero_projector(self):
        """Orthogonal projector onto the kernel of the total h."""
        return np.diag(self.weight_zero().astype(float))
