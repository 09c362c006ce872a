"""Independent reference values for the benchmark's correctness checks.

* Theta leaf: the multiplicative theta function, its logarithmic Euler
  derivative u = z theta'/theta, the Euler derivatives D^k u and the
  Weierstrass function wp = -D u + c(q), evaluated in mpmath at 30 digits
  directly from the product and from the termwise-differentiated series.
  Nothing here calls ``hitchin``.
* Haar second moment over SU(n): for traceless H,
  E_k[(Ad_k H) (x) (Ad_k H)] = tr(H^2)/(n^2 - 1) * sum_a e_a (x) e_a
  over a basis of sl_n orthonormal for tr(XY) (Collins-Sniady 2006, the
  l = 2 Weingarten formula), so the group average of the squared current
  at zeta equals tr(H^2)/(n^2 - 1) times the quadratic Gaudin operator.
"""

import mpmath as mp

DPS = 30


def _terms(q, z):
    """Number of q-series terms for a 10^-(DPS+5) tail at argument z."""
    scale = abs(z) + 1 / abs(z) + 2
    n = 2
    while abs(q) ** n * scale > mp.mpf(10) ** -(DPS + 5):
        n += 1
    return n


def theta(q, z):
    """prod_{i>=0} (1 - q^i z) prod_{i>=1} (1 - q^i / z)."""
    with mp.workdps(DPS):
        q, z = mp.mpc(q), mp.mpc(z)
        out = 1 - z
        for i in range(1, _terms(q, z)):
            out *= (1 - q ** i * z) * (1 - q ** i / z)
        return complex(out)


def _u_series(q, z):
    """u(z) = -z/(1-z) - sum_i q^i z/(1-q^i z) + sum_i (q^i/z)/(1-q^i/z)."""
    out = -z / (1 - z)
    for i in range(1, _terms(q, z)):
        a, b = q ** i * z, q ** i / z
        out += -a / (1 - a) + b / (1 - b)
    return out


def _du_series(q, z):
    """D u(z), with D = z d/dz, differentiated term by term."""
    out = -z / (1 - z) ** 2
    for i in range(1, _terms(q, z)):
        a, b = q ** i * z, q ** i / z
        out += -a / (1 - a) ** 2 - b / (1 - b) ** 2
    return out


def logderiv(q, z, k):
    """D^k u(z); orders above one by numerical differentiation of D u in
    s = ln z at working precision."""
    with mp.workdps(DPS):
        q, z = mp.mpc(q), mp.mpc(z)
        if k == 0:
            return complex(_u_series(q, z))
        if k == 1:
            return complex(_du_series(q, z))
        s0 = mp.log(z)
        return complex(mp.diff(lambda s: _du_series(q, mp.exp(s)), s0, k - 1))


def wp_const(q):
    """c(q) = 1/12 - 2 sum_{i>=1} q^i/(1-q^i)^2."""
    with mp.workdps(DPS):
        q = mp.mpc(q)
        s = mp.mpf(0)
        for i in range(1, _terms(q, 1)):
            s += q ** i / (1 - q ** i) ** 2
        return mp.mpf(1) / 12 - 2 * s


def wp(q, z):
    """wp(ln z) = -D u(z) + c(q)."""
    with mp.workdps(DPS):
        return complex(-_du_series(mp.mpc(q), mp.mpc(z)) + wp_const(q))


def relative_error(value, reference):
    return abs(value - reference) / max(abs(reference), 1.0)


def second_moment_factor(H):
    """tr(H^2)/(n^2 - 1): the SU(n) average of (Ad_k H)^(x)2 in units of
    the sl_n split Casimir, for traceless H."""
    n = H.shape[0]
    return complex((H @ H).trace()) / (n * n - 1)
