"""Multiplicative theta function on the annulus and its derived kernels.

All functions here work with the multiplicative convention: the elliptic
curve is C^x / q^Z with |q| < 1, and the basic building block is

    theta(z) = prod_{i>=0} (1 - q^i z) * prod_{i>=1} (1 - q^i / z).

Derived objects:

* ``theta_ratio`` -- the logarithmic derivative z theta'(z)/theta(z),
  written u(z) below, and its Euler derivatives D^k u(z), D = z d/dz.
* ``wp`` -- the Weierstrass-type function p(ln z) := -D u(z) + c(q),
  where c(q) is fixed so p(tau) - 1/tau^2 -> 0 as z = e^tau -> 1.
* ``kernel`` -- K_t(x) = theta(t x) / (theta(t) theta(x)), the basic
  two-variable kernel of the elliptic Lax matrices, and its normalised
  variant ``sigma`` = theta'(1) K_t(x) which has residue 1 at x = 1.

Evaluation.  Each ``ThetaContext`` keeps one table of q^1 ... q^(n-1),
built by a running product and grown on demand, shared by every series
of the context.  ``theta`` is one product over the term array, seeded
with 1 - z; ``_logderiv_terms`` evaluates the degree-(k+1) polynomial
D^k(v - 1) in v = 1/(1-y) (cached per order) over all terms
y = q^i z^(+-1) at once and sums them left to right, the order of the
scalar loop it replaced.  Each context also memoises ``theta`` and
``_logderiv_terms`` by argument (and order): a repeated argument returns
the stored value before the series and before the pole guard, which it
already passed.  The same memo holds every argument that passed
``check_regular``, so a repeated guard returns at once.  The memo holds
at most ``_MEMO_CAP`` entries and is cleared when full; a PoleError or
TruncationError is never stored, so a guarded argument raises on every
call.  There is no cache shared between contexts.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class ThetaError(Exception):
    """Base class for theta evaluation failures."""


class PoleError(ThetaError):
    """Argument too close to the lattice q^Z where a denominator vanishes."""


# Draws in a row a random sample may take; a draw is rejected only when it
# lands within the pole guard of the lattice, which continuous draws almost
# never do.
MAX_DRAWS = 1000


def redraw(draw):
    """Call draw() until it returns without a PoleError, and return its
    value; PoleError once MAX_DRAWS draws in a row were rejected."""
    for _ in range(MAX_DRAWS):
        try:
            return draw()
        except PoleError:
            pass
    raise PoleError("pole guard hit in %d draws in a row" % MAX_DRAWS)


class TruncationError(ThetaError):
    """The q-series would need more than max_terms terms to converge."""


# Entries a context's memo holds before it is cleared.  One CLI operation
# meets a few hundred to a few thousand distinct leaf arguments.
_MEMO_CAP = 4096


def _horner(p, x):
    """Polynomial p (highest degree first) at the array x: the operations
    of ``np.polyval`` without its set-up, so bitwise the same values."""
    y = p[0]
    for c in p[1:]:
        y = y * x + c
    return y


class ThetaContext:
    """Evaluation context: nome q, tolerance, truncation and pole guards.

    Series are truncated once the remaining tail is provably below ``tol``;
    if that takes more than ``max_terms`` terms a TruncationError is raised.
    Arguments within relative distance ``pole_guard`` of the lattice q^Z
    raise PoleError from any function that has a pole or zero denominator
    there.
    """

    def __init__(self, q, tol=1e-14, max_terms=10000, pole_guard=1e-8):
        q = complex(q)
        if not abs(q) < 1.0:
            raise ValueError("need |q| < 1, got |q| = %g" % abs(q))
        self.q = q
        self.tol = float(tol)
        self.max_terms = int(max_terms)
        self.pole_guard = float(pole_guard)
        self._theta_prime_one = None
        self._wp_const = None
        self._qpow = np.empty(0, dtype=complex)
        self._euler_polys = {}
        self._memo = {}

    # -- basic guards ------------------------------------------------------

    def _nterms(self, scale):
        """Number of series terms so that |q|^n * scale < tol."""
        aq = abs(self.q)
        if aq == 0.0:
            return 1
        if scale <= 0.0:
            scale = 1.0
        n = int(math.log(self.tol / scale) / math.log(aq)) + 2 if scale > self.tol else 1
        n = max(n, 2)
        if n > self.max_terms:
            raise TruncationError(
                "series needs %d terms (max_terms=%d)" % (n, self.max_terms))
        return n

    def _qpowers(self, n):
        """q^1 ... q^(n-1), from a table grown on demand (running product,
        so a longer table starts with the same values)."""
        if len(self._qpow) < n - 1:
            self._qpow = np.cumprod(np.full(n - 1, self.q))
        return self._qpow[:n - 1]

    def _remember(self, key, value):
        memo = self._memo
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = value
        return value

    def check_regular(self, z):
        """Raise PoleError if z is within pole_guard of the lattice q^Z."""
        z = complex(z)
        key = (z, "regular")
        if key in self._memo:
            return
        if z == 0:
            raise PoleError("argument 0 is on the boundary of the annulus")
        aq = abs(self.q)
        if aq == 0.0:
            if abs(z - 1.0) < self.pole_guard:
                raise PoleError("argument within pole guard of 1")
        else:
            # only lattice points with modulus comparable to |z| can be close
            k0 = math.log(abs(z)) / math.log(aq)
            for k in range(int(math.floor(k0)) - 1, int(math.ceil(k0)) + 2):
                w = self.q ** k
                if abs(z - w) < self.pole_guard * abs(w):
                    raise PoleError("argument within pole guard of q^%d" % k)
        self._remember(key, True)

    def check_ratios(self, values):
        """Raise PoleError if the ratio of any two of the values is within
        pole_guard of the lattice q^Z."""
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    self.check_regular(a / b)

    # -- theta and friends -------------------------------------------------

    def theta(self, z):
        """Multiplicative theta function (zeros on q^Z, no poles)."""
        z = complex(z)
        hit = self._memo.get((z, None))
        if hit is not None:
            return hit
        if z == 0:
            raise PoleError("theta argument must lie in C^x")
        scale = abs(z) + 1.0 / abs(z) + 2.0
        qi = self._qpowers(self._nterms(scale))
        factors = np.empty(len(qi) + 1, dtype=complex)
        factors[0] = 1.0 - z
        factors[1:] = (1.0 - qi * z) * (1.0 - qi / z)
        return self._remember((z, None), complex(np.cumprod(factors)[-1]))

    def theta_prime_one(self):
        """theta'(1) = -prod_{i>=1} (1-q^i)^2 (slope at the zero z=1)."""
        if self._theta_prime_one is None:
            qi = self._qpowers(self._nterms(4.0))
            prod = complex(math.prod(1.0 - qi))
            self._theta_prime_one = -prod * prod
        return self._theta_prime_one

    def _euler_poly(self, k):
        """Coefficients (highest degree first) of D^k (v - 1) as a
        polynomial in v = 1/(1-y), where D v = v^2 - v."""
        p = self._euler_polys.get(k)
        if p is None:
            # p = v - 1 as coefficient array in v, then apply D k times
            c = np.array([-1.0, 1.0], dtype=complex)
            for _ in range(k):
                m = np.arange(len(c))
                nxt = np.zeros(len(c) + 1, dtype=complex)
                nxt[1:] += m * c          # m * v^{m+1}
                nxt[:-1] -= m * c         # -m * v^m
                c = nxt
            p = self._euler_polys[k] = c[::-1]
        return p

    def _logderiv_terms(self, z, k):
        """D^k of z theta'/theta, D = z d/dz, via per-term polynomials.

        Each series term is y/(1-y) up to sign with y = q^i z^{+-1}; writing
        v = 1/(1-y), the Euler derivative acts on polynomials in v through
        D v = v^2 - v, so D^k of a term is a polynomial in v, evaluated
        over all terms at once.
        """
        z = complex(z)
        hit = self._memo.get((z, k))
        if hit is not None:
            return hit
        self.check_regular(z)
        p = self._euler_poly(k)
        scale = abs(z) + 1.0 / abs(z) + 2.0
        qi = self._qpowers(self._nterms(scale))
        v = np.empty(len(qi) + 1, dtype=complex)
        v[0] = 1.0 / (1.0 - z)
        v[1:] = 1.0 / (1.0 - qi * z)
        terms = -_horner(p, v)
        terms[1:] += (-1.0) ** k * _horner(p, 1.0 / (1.0 - qi / z))
        return self._remember((z, k), np.cumsum(terms)[-1])

    def theta_ratio(self, z, k=0):
        """D^k u(z) for u(z) = z theta'(z) / theta(z) and D = z d/dz."""
        return self._logderiv_terms(z, k)

    def wp_const(self):
        """c(q) = 1/12 - 2 sum_{i>=1} q^i/(1-q^i)^2, fixing wp ~ 1/tau^2."""
        if self._wp_const is None:
            qi = self._qpowers(self._nterms(4.0))
            s = complex(sum(qi / (1.0 - qi) ** 2))
            self._wp_const = 1.0 / 12.0 - 2.0 * s
        return self._wp_const

    def wp(self, z):
        """p(ln z) = -D u(z) + c(q); even, elliptic, ~ 1/tau^2 at z=e^tau."""
        return -self._logderiv_terms(z, 1) + self.wp_const()

    def kernel(self, t, x):
        """K_t(x) = theta(t x) / (theta(t) theta(x))."""
        self.check_regular(t)
        self.check_regular(x)
        return self.theta(t * x) / (self.theta(t) * self.theta(x))

    def sigma(self, t, x):
        """Normalised kernel theta'(1) K_t(x); residue 1 at x = 1."""
        return self.theta_prime_one() * self.kernel(t, x)


def wp_const_richardson(ctx, tau0=1e-2, levels=4):
    """Cross-check of wp_const by Richardson extrapolation in tau^2.

    Extrapolates 1/tau^2 + D u(e^tau) as tau -> 0; the limit is c(q).
    """
    vals = []
    for j in range(levels):
        tau = tau0 / 2 ** j
        z = cmath.exp(tau)
        vals.append(1.0 / tau ** 2 + ctx.theta_ratio(z, 1))
    # Richardson for an even function: error series in tau^2
    for step in range(1, levels):
        fac = 4.0 ** step
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
    return vals[0]


# -- identity residuals ----------------------------------------------------
# Each returns |lhs - rhs| for an identity the rest of the library rests on.
# They are exercised by the test suite and by the `theta-check` CLI command.


def functional_equation_residual(ctx, z):
    """theta(q z) = -z^{-1} theta(z)."""
    return abs(ctx.theta(ctx.q * z) + ctx.theta(z) / z)


def inversion_residual(ctx, z):
    """theta(1/z) = -z^{-1} theta(z).

    (Direct consequence of the product; at q=0 both sides are (z-1)/z.)
    """
    return abs(ctx.theta(1.0 / z) + ctx.theta(z) / z)


def shift_residual(ctx, z):
    """u(q z) = u(z) - 1 for u = theta-dot/theta."""
    return abs(ctx.theta_ratio(ctx.q * z) - ctx.theta_ratio(z) + 1.0)


def reflection_residual(ctx, z):
    """u(z) + u(1/z) = 1."""
    return abs(ctx.theta_ratio(z) + ctx.theta_ratio(1.0 / z) - 1.0)


def theta_one_residual(ctx):
    """theta(1) = 0."""
    return abs(ctx.theta(1.0))


def wp_even_residual(ctx, z):
    """wp(ln z) = wp(-ln z)."""
    return abs(ctx.wp(z) - ctx.wp(1.0 / z))


def wp_pair_residual(ctx, t, w):
    """sigma_t(w) sigma_{1/t}(w) = wp(ln w) - wp(ln t).

    Product of opposite kernels; both sides have double pole 1/tau^2 at
    w = 1 and zeros at w = t^{+-1}.
    """
    lhs = ctx.sigma(t, w) * ctx.sigma(1.0 / t, w)
    rhs = ctx.wp(w) - ctx.wp(t)
    return abs(lhs - rhs)


def addition_residual(ctx, z, w, t, tp):
    """Three-term product identity behind the classical r-matrix bracket.

    K_t(z/w) K_{t t'}(w) - K_{1/t'}(z/w) K_{t t'}(z) = K_t(z) K_{t'}(w).
    """
    K = ctx.kernel
    lhs = K(t, z / w) * K(t * tp, w) - K(1.0 / tp, z / w) * K(t * tp, z)
    rhs = K(t, z) * K(tp, w)
    return abs(lhs - rhs)


def mixed_derivative_residual(ctx, z, w, t):
    """Derivative identity behind the dynamical term of the bracket.

    -(1/theta'(1)) t d/dt [K_t(w)] + (1/theta'(1)) u(z) K_t(w)
      = -K_{1/t}(z/w) K_t(z) + (1/theta'(1)) u(z/w) K_t(w).

    (Fixed from the commonly printed form: the derivative term enters with
    a minus sign and the first kernel on the right carries 1/t; with t in
    both places the two sides differ by an elliptic function of z.)
    """
    tp1 = ctx.theta_prime_one()
    u = ctx.theta_ratio
    K = ctx.kernel
    # t d/dt K_t(w) = (u(t w) - u(t)) K_t(w)
    dK = (u(t * w) - u(t)) * K(t, w)
    lhs = -dK / tp1 + u(z) * K(t, w) / tp1
    rhs = -K(1.0 / t, z / w) * K(t, z) + u(z / w) * K(t, w) / tp1
    return abs(lhs - rhs)


def quasi_invariance_residual(ctx, z, w, t, zeta):
    """F(z, w) = F(z zeta, w zeta) for the residue pairing function

    F(z, w) = K_{1/t}(z) K_t(w) + K_{1/t}(z/w) (u(z) - u(w)) / theta'(1).
    """
    tp1 = ctx.theta_prime_one()
    u = ctx.theta_ratio
    K = ctx.kernel

    def F(a, b):
        return K(1.0 / t, a) * K(t, b) + K(1.0 / t, a / b) * (u(a) - u(b)) / tp1

    return abs(F(z, w) - F(z * zeta, w * zeta))


def cross_square_residual(ctx, x, y):
    """Reduction of (u(x)-u(y))^2 to single-argument functions:

    (u(x)-u(y))^2 = wp(ln x) + wp(ln y) + (u(x/y)-u(y/x)) (u(x)-u(y))
                    + wp(ln(x/y)) - u(x/y)^2 + u(x/y) - 1/4.
    """
    u = ctx.theta_ratio
    wp = ctx.wp
    d = u(x) - u(y)
    w = x / y
    lhs = d * d
    rhs = (wp(x) + wp(y) + (u(w) - u(1.0 / w)) * d
           + wp(w) - u(w) ** 2 + u(w) - 0.25)
    return abs(lhs - rhs)
