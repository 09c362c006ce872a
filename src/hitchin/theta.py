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

Evaluation.  With q = e^(2 pi i tau) and |tau| < 1, every series runs at
the nome q' = e^(-2 pi i / tau) of Jacobi's imaginary transformation
tau -> -1/tau (Whittaker-Watson 21.51; Mumford, Tata Lectures on Theta I).
With w = log z / (2 pi i) (principal branch) and z' = e^(2 pi i w / tau),

    theta(z) = i e^(i pi (tau' - tau)/6) e^(i pi (w - (w^2 + w)/tau)) theta(z'; q'),
    u(z) = 1/2 - (w + 1/2)/tau + u'(z')/tau,
    D u(z) = -1/(2 pi i tau) + D' u'(z')/tau^2,
    D^k u(z) = D'^k u'(z')/tau^(k+1) for k >= 2,

where tau' = -1/tau and primes mark the functions at q'.  At q = 0.3,
q' = 5.7e-15 and a point of the unit circle needs 3 terms, against 29 at q.
For q = 0 and for |tau| >= 1 the same series runs at (q, z); for real
q > 0 the nome summed over is at most e^(-2 pi) = 1.9e-3 either way.  Each
term of u is Li_0(y) = y/(1-y), y = q^i z^(+-1), and D^k of it is
(+-1)^k Li_(-k)(y) = (+-1)^k y A_k(y) / (1-y)^(k+1), A_k the Eulerian
polynomials; a term with |y| > 1 is taken at 1/y, and 1 - y is
-expm1(log y) near y = 1.  theta is summed as a logarithm and
exponentiated once, so a large |z'| cannot overflow on the way; a value
that overflows or underflows to zero raises TruncationError.  All of it is
scalar ``cmath`` arithmetic.

Each context also memoises ``theta`` and ``_logderiv_terms`` by argument
(and order): a repeated argument returns the stored value before the
series and before the pole guard, which it already passed.  The same memo
holds every argument that passed ``check_regular``, so a repeated guard
returns at once.  The memo holds at most ``_MEMO_CAP`` entries and is
cleared when full; a PoleError or TruncationError is never stored, so a
guarded argument raises on every call.  There is no cache shared between
contexts.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache


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
    """The q-series would need more than MAX_TERMS terms to converge, or a
    theta value overflows or underflows to zero as a double."""


# Series are truncated once the remaining tail is below TOL, and one that
# needs more than MAX_TERMS terms raises TruncationError; an argument
# within relative distance POLE_GUARD of the lattice q^Z raises PoleError
# from any function with a pole or zero denominator there.
TOL = 1e-14
MAX_TERMS = 10000
POLE_GUARD = 1e-8

# Entries a context's memo holds before it is cleared.  One CLI operation
# meets a few hundred to a few thousand distinct leaf arguments.
_MEMO_CAP = 4096

_TWO_PI_I = 2j * math.pi
# e^x is a nonzero finite double for x strictly between these
_LOG_MIN = math.log(sys.float_info.min * sys.float_info.epsilon)
_LOG_MAX = math.log(sys.float_info.max)


def _exp(log_size, factor):
    """e^log_size * factor for a theta value: e^log_size is its size away
    from its zeros, and factor, at most 4^terms, carries the zeros.
    TruncationError where the value overflows or the size underflows to
    zero (a NaN stays NaN)."""
    if factor == 0:
        return 0j
    if log_size.real <= _LOG_MIN \
            or log_size.real + math.log(abs(factor)) >= _LOG_MAX:
        raise TruncationError("theta value of size e^(%.6g) is outside the "
                              "double range" % log_size.real)
    return cmath.exp(log_size + cmath.log(factor))


def _expm1(x):
    """e^x - 1 for complex x, accurate also where e^x is near 1."""
    half = math.sin(0.5 * x.imag)
    return complex(math.expm1(x.real) * math.cos(x.imag) - 2.0 * half * half,
                   math.exp(x.real) * math.sin(x.imag))


def _one_minus(y, L):
    """1 - y for y = e^L, |y| <= 1, through expm1 where y may be near 1."""
    return 1.0 - y if L.real < -0.7 else -_expm1(L)


@lru_cache(maxsize=None)
def _eulerian(k):
    """Coefficients of the Eulerian polynomial A_k, for which
    Li_(-k)(y) = y A_k(y) / (1 - y)^(k+1); A_k is palindromic."""
    return tuple(sum((-1) ** j * math.comb(k + 1, j) * (m + 1 - j) ** k
                     for j in range(m + 1)) for m in range(max(k, 1)))


def _li(k, L):
    """Li_(-k)(e^L) for k >= 0; where |e^L| > 1, from its value at e^-L:
    Li_0(y) = -1 - Li_0(1/y) and Li_(-k)(y) = (-1)^(k+1) Li_(-k)(1/y)."""
    flip = L.real > 0.0
    if flip:
        L = -L
    y = cmath.exp(L)
    d = _one_minus(y, L)
    a = 0.0
    for c in _eulerian(k):
        a = a * y + c
    v = y * a / d ** (k + 1)
    if flip:
        return -1.0 - v if k == 0 else (v if k % 2 else -v)
    return v


class ThetaContext:
    """Evaluation context for the nome q; a series that needs more than
    MAX_TERMS terms to get its tail below ``tol`` (TOL) raises
    TruncationError.

    ``tau`` is the period ratio of q = e^(2 pi i tau) where the series run
    at the transformed nome e^(-2 pi i/tau), None where they run at q;
    ``log_nome`` is the logarithm of the nome they run at (None for q = 0,
    where the series are their first term).
    """

    tol = TOL

    def __init__(self, q):
        q = complex(q)
        if not abs(q) < 1.0:
            raise ValueError("need |q| < 1, got |q| = %g" % abs(q))
        self.q = q
        self.tau = self.log_nome = None
        if q != 0:
            tau = cmath.log(q) / _TWO_PI_I
            if abs(tau) < 1.0:
                self.tau = tau
                self.log_nome = -_TWO_PI_I / tau
                # theta carries the factor i e^(log_shift) of the transformation
                self._log_shift = -1j * math.pi * (1.0 / tau + tau) / 6.0
            else:
                self.log_nome = cmath.log(q)
        self._theta_prime_one = None
        self._wp_const = None
        self._memo = {}

    # -- basic guards ------------------------------------------------------

    def _nterms(self, ell):
        """Number of series terms so that |p|^n * scale < tol at the
        argument e^ell, p the nome summed over and scale the bound
        |e^ell| + |e^-ell| + 2 on the first terms, taken in logs."""
        if self.log_nome is None:
            return 1
        a = abs(ell.real)
        log_scale = a + 2.0 * math.log1p(math.exp(-a))
        n = max(int((math.log(self.tol) - log_scale) / self.log_nome.real) + 2, 2)
        if n > MAX_TERMS:
            raise TruncationError(
                "series needs %d terms (MAX_TERMS=%d)" % (n, MAX_TERMS))
        return n

    def series_terms(self, z):
        """Terms the series take at the argument z (the telemetry count)."""
        ell = cmath.log(complex(z))
        return self._nterms(ell if self.tau is None else ell / self.tau)

    def _remember(self, key, value):
        memo = self._memo
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = value
        return value

    def check_regular(self, z):
        """Raise PoleError if z is within POLE_GUARD of the lattice q^Z."""
        z = complex(z)
        key = (z, "regular")
        if key in self._memo:
            return
        if z == 0:
            raise PoleError("argument 0 is on the boundary of the annulus")
        aq = abs(self.q)
        if aq == 0.0:
            if abs(z - 1.0) < POLE_GUARD:
                raise PoleError("argument within pole guard of 1")
        else:
            # only lattice points with modulus comparable to |z| can be close
            k0 = math.log(abs(z)) / math.log(aq)
            for k in range(int(math.floor(k0)) - 1, int(math.ceil(k0)) + 2):
                try:
                    w = self.q ** k
                except (OverflowError, ZeroDivisionError):
                    # q^k is beyond the range of doubles, so no finite z
                    # lies near it (tiny |q|, k < 0)
                    continue
                if abs(z - w) < POLE_GUARD * abs(w):
                    raise PoleError("argument within pole guard of q^%d" % k)
        self._remember(key, True)

    def check_ratios(self, values):
        """Raise PoleError if the ratio of any two of the values is within
        POLE_GUARD of the lattice q^Z."""
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    self.check_regular(a / b)

    # -- the series, at the nome p summed over and z = e^ell ---------------

    def _theta_series(self, ell):
        """(s, f) with e^s f = (1 - z) prod_{i>=1} (1 - p^i z)(1 - p^i / z):
        a factor with |y| > 1 is -y (1 - 1/y), its -y summed into s, and f
        is the product of the factors 1 - y with |y| <= 1."""
        lp = self.log_nome
        exponents = [ell]
        for i in range(1, self._nterms(ell)):
            exponents += (i * lp + ell, i * lp - ell)
        shift, prod = 0j, 1.0
        for L in exponents:
            if L.real > 0.0:
                shift += L + 1j * math.pi
                L = -L
            prod *= _one_minus(cmath.exp(L), L)
        return shift, prod

    def _logderiv_series(self, ell, k):
        """D^k u(e^ell) for u = -sum_{i>=0} Li_0(p^i z) + sum_{i>=1}
        Li_0(p^i / z), where D y = +-y on y = p^i z^(+-1)."""
        lp = self.log_nome
        sign = -1.0 if k % 2 else 1.0
        out = -_li(k, ell)
        for i in range(1, self._nterms(ell)):
            out += sign * _li(k, i * lp - ell) - _li(k, i * lp + ell)
        return out

    # -- theta and friends -------------------------------------------------

    def theta(self, z):
        """Multiplicative theta function (zeros on q^Z, no poles)."""
        z = complex(z)
        hit = self._memo.get((z, None))
        if hit is not None:
            return hit
        if z == 0:
            raise PoleError("theta argument must lie in C^x")
        ell = cmath.log(z)
        tau = self.tau
        if tau is None:
            value = _exp(*self._theta_series(ell))
        else:
            log_size, factor = self._theta_series(ell / tau)
            w = ell / _TWO_PI_I
            value = 1j * _exp(log_size + self._log_shift
                              + 1j * math.pi * (w - (w * w + w) / tau), factor)
        return self._remember((z, None), value)

    def theta_prime_one(self):
        """theta'(1) = -prod_{i>=1} (1-q^i)^2 (slope at the zero z=1); at
        the transformed nome p it is -(i/tau) e^(i pi (tau' - tau)/6)
        prod (1-p^i)^2."""
        if self._theta_prime_one is None:
            prod = 1.0
            for i in range(1, self._nterms(0j)):
                L = i * self.log_nome
                prod *= _one_minus(cmath.exp(L), L)
            value = -prod * prod
            if self.tau is not None:
                value = 1j * _exp(self._log_shift, value) / self.tau
            self._theta_prime_one = value
        return self._theta_prime_one

    def _logderiv_terms(self, z, k):
        """D^k of z theta'/theta, D = z d/dz, from the series at the nome
        summed over (see the module docstring for the transformation)."""
        z = complex(z)
        hit = self._memo.get((z, k))
        if hit is not None:
            return hit
        self.check_regular(z)
        ell = cmath.log(z)
        tau = self.tau
        if tau is None:
            value = self._logderiv_series(ell, k)
        else:
            value = self._logderiv_series(ell / tau, k) / tau ** (k + 1)
            if k == 0:
                value += 0.5 - (ell / _TWO_PI_I + 0.5) / tau
            elif k == 1:
                value -= 1.0 / (_TWO_PI_I * tau)
        return self._remember((z, k), value)

    def theta_ratio(self, z, k=0):
        """D^k u(z) for u(z) = z theta'(z) / theta(z) and D = z d/dz."""
        return self._logderiv_terms(z, k)

    def wp_const(self):
        """c(q) = 1/12 - 2 sum_{i>=1} q^i/(1-q^i)^2, fixing wp ~ 1/tau^2;
        at the transformed nome p it is c(p)/tau^2 - 1/(2 pi i tau)."""
        if self._wp_const is None:
            c = 1.0 / 12.0 - 2.0 * sum(_li(1, i * self.log_nome)
                                       for i in range(1, self._nterms(0j)))
            if self.tau is not None:
                c = c / self.tau ** 2 - 1.0 / (_TWO_PI_I * self.tau)
            self._wp_const = c
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
# Each checks an identity the rest of the library rests on, written as terms
# that sum to zero, and returns |sum| / max(1, largest |term|): terms grow
# like 1e12 at q = 0.9, so an absolute residual would measure their size
# rather than the rounding.  They are exercised by the test suite and by
# the `theta-check` CLI command.


def _residual(*terms):
    """|sum of the terms| relative to max(1, largest |term|)."""
    return abs(sum(terms)) / max(1.0, max(abs(t) for t in terms))


def functional_equation_residual(ctx, z):
    """theta(q z) = -z^{-1} theta(z)."""
    return _residual(ctx.theta(ctx.q * z), ctx.theta(z) / z)


def inversion_residual(ctx, z):
    """theta(1/z) = -z^{-1} theta(z).

    (Direct consequence of the product; at q=0 both sides are (z-1)/z.)
    """
    return _residual(ctx.theta(1.0 / z), ctx.theta(z) / z)


def shift_residual(ctx, z):
    """u(q z) = u(z) - 1 for u = theta-dot/theta."""
    return _residual(ctx.theta_ratio(ctx.q * z), -ctx.theta_ratio(z), 1.0)


def reflection_residual(ctx, z):
    """u(z) + u(1/z) = 1."""
    return _residual(ctx.theta_ratio(z), ctx.theta_ratio(1.0 / z), -1.0)


def theta_one_residual(ctx):
    """theta(1) = 0."""
    return _residual(ctx.theta(1.0))


def wp_even_residual(ctx, z):
    """wp(ln z) = wp(-ln z)."""
    return _residual(ctx.wp(z), -ctx.wp(1.0 / z))


def wp_pair_residual(ctx, t, w):
    """sigma_t(w) sigma_{1/t}(w) = wp(ln w) - wp(ln t).

    Product of opposite kernels; both sides have double pole 1/tau^2 at
    w = 1 and zeros at w = t^{+-1}.
    """
    return _residual(ctx.sigma(t, w) * ctx.sigma(1.0 / t, w),
                     -ctx.wp(w), ctx.wp(t))


def addition_residual(ctx, z, w, t, tp):
    """Three-term product identity behind the classical r-matrix bracket.

    K_t(z/w) K_{t t'}(w) - K_{1/t'}(z/w) K_{t t'}(z) = K_t(z) K_{t'}(w).
    """
    K = ctx.kernel
    return _residual(K(t, z / w) * K(t * tp, w),
                     -K(1.0 / tp, z / w) * K(t * tp, z),
                     -K(t, z) * K(tp, w))


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
    return _residual(-dK / tp1, u(z) * K(t, w) / tp1,
                     K(1.0 / t, z / w) * K(t, z), -u(z / w) * K(t, w) / tp1)


def quasi_invariance_residual(ctx, z, w, t, zeta):
    """F(z, w) = F(z zeta, w zeta) for the residue pairing function

    F(z, w) = K_{1/t}(z) K_t(w) + K_{1/t}(z/w) (u(z) - u(w)) / theta'(1).
    """
    tp1 = ctx.theta_prime_one()
    u = ctx.theta_ratio
    K = ctx.kernel

    def F(a, b, sign):
        return (sign * K(1.0 / t, a) * K(t, b),
                sign * K(1.0 / t, a / b) * (u(a) - u(b)) / tp1)

    return _residual(*F(z, w, 1.0), *F(z * zeta, w * zeta, -1.0))


def cross_square_residual(ctx, x, y):
    """Reduction of (u(x)-u(y))^2 to single-argument functions:

    (u(x)-u(y))^2 = wp(ln x) + wp(ln y) + (u(x/y)-u(y/x)) (u(x)-u(y))
                    + wp(ln(x/y)) - u(x/y)^2 + u(x/y) - 1/4.
    """
    u = ctx.theta_ratio
    wp = ctx.wp
    d = u(x) - u(y)
    w = x / y
    return _residual(d * d, -wp(x), -wp(y), -(u(w) - u(1.0 / w)) * d,
                     -wp(w), u(w) ** 2, -u(w), 0.25)
