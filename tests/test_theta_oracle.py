"""The theta leaf against a 30-digit mpmath reference.

The reference evaluates the product for theta and, for D^k u, the series
of Euler derivatives of the terms y/(1-y), y = q^i z^(+-1): D^k of such a
term is (+-1)^k Li_{-k}(y), written out with the Eulerian polynomials.
It shares no code with ``hitchin.theta``.
"""

import cmath

import pytest

from hitchin import theta as th

mp = pytest.importorskip("mpmath")

DPS = 30
RTOL = 1e-10

# Li_{-k}(y) = y A_k(y) / (1 - y)^(k+1), A_k the Eulerian polynomials
EULERIAN = {0: [1], 1: [1], 2: [1, 1], 3: [1, 4, 1]}


def _li(k, y):
    a = sum(c * y ** j for j, c in enumerate(EULERIAN[k]))
    return y * a / (1 - y) ** (k + 1)


def _powers(q, z):
    """q^1, q^2, ... until the tail is below 10^-(dps+5) at argument z,
    dps the working precision."""
    scale = abs(z) + 1 / abs(z) + 2
    eps = mp.mpf(10) ** -(mp.mp.dps + 5)
    out = [q]
    while abs(out[-1]) * scale > eps:
        out.append(out[-1] * q)
    return out


def ref_theta(q, z):
    out = 1 - z
    for qi in _powers(q, z):
        out *= (1 - qi * z) * (1 - qi / z)
    return out


def ref_logderiv(q, z, k):
    """D^k u(z), u = -sum_{i>=0} Li_0(q^i z) + sum_{i>=1} Li_0(q^i / z)."""
    out = -_li(k, z)
    for qi in _powers(q, z):
        out += -_li(k, qi * z) + (-1) ** k * _li(k, qi / z)
    return out


def ref_wp(q, z):
    c = mp.mpf(1) / 12
    for qi in _powers(q, 1):
        c -= 2 * qi / (1 - qi) ** 2
    return -ref_logderiv(q, z, 1) + c


def oracle_points(q):
    """Generic annulus points, points 1e-6 from the zero at 1 and 1e-5
    from the zero at q."""
    r = abs(q)
    pts = [r ** 0.7 * cmath.exp(0.4j), r ** -0.55 * cmath.exp(2.1j),
           r ** 0.2 * cmath.exp(-2.6j), 1.3 * cmath.exp(1.2j)]
    for phi in (0.3, 2.5):
        pts.append(1.0 + 1e-6 * cmath.exp(1j * phi))
        pts.append(q + 1e-5 * cmath.exp(1j * phi))
    return pts


def rel_error(got, ref, floor):
    return abs(mp.mpc(got) - ref) / max(floor, abs(ref))


@pytest.mark.parametrize("q", [0.3, 0.5 + 0.1j, 0.9],
                         ids=["q0.3", "q0.5+0.1i", "q0.9"])
def test_leaf_matches_mpmath(q):
    ctx = th.ThetaContext(q)
    worst = {}
    with mp.workdps(DPS):
        mq = mp.mpc(q)
        for z in oracle_points(q):
            mz = mp.mpc(z)
            pairs = [("theta", ctx.theta(z), ref_theta(mq, mz)),
                     ("wp", ctx.wp(z), ref_wp(mq, mz))]
            pairs += [("D^%d u" % k, ctx.theta_ratio(z, k),
                       ref_logderiv(mq, mz, k)) for k in range(4)]
            for name, got, ref in pairs:
                # theta is a product, accurate relative to its own size even
                # next to its zeros; the series for D^k u cancel (D^2 u is
                # ~1e-30 at generic points for q = 0.9), so they are
                # measured relative to max(1, |reference|)
                err = rel_error(got, ref, 0.0 if name == "theta" else 1.0)
                worst[name] = max(worst.get(name, 0.0), float(err))
    assert all(err <= RTOL for err in worst.values()), worst


def _near_one_references(q, z):
    """theta(z) and D^k u(z), k = 0..3, in one pass over the terms: with
    v = 1/(1-y), Li_0 = y v, Li_-1 = y v^2, Li_-2 = y (1+y) v^3 and
    Li_-3 = y (1+4y+y^2) v^4."""

    def lis(y):
        v = 1 / (1 - y)
        yv = y * v
        return (yv, yv * v, yv * (1 + y) * v * v,
                yv * (1 + 4 * y + y * y) * v * v * v)

    theta = 1 - z
    u = [-t for t in lis(z)]
    for qi in _powers(q, z):
        theta *= (1 - qi * z) * (1 - qi / z)
        for k, (a, b) in enumerate(zip(lis(qi * z), lis(qi / z))):
            u[k] += -a + (-1) ** k * b
    return theta, u


def test_leaf_near_the_unit_circle():
    # q = 0.99: theta is 1e-92 and 4e-146 on the points and the series
    # take about 5,000 terms.  theta is judged relative to |reference|; a floor
    # of 1 would pass any value there.  So are D u and u.  D^2 u and D^3 u
    # cancel to about 1e-18 at generic points, far below the rounding of
    # their O(100) terms, so there they are judged against max(1, |ref|),
    # and relative to |reference| next to the zero at 1, where they are
    # about 1e18 and 1e24.
    q = 0.99
    ctx = th.ThetaContext(q)
    worst = {}
    with mp.workdps(16):
        mq = mp.mpc(q)
        for z, near_zero in [(q ** 0.5 * cmath.exp(0.4j), False),
                             (1.0 + 1e-6 * cmath.exp(0.3j), True)]:
            theta, u = _near_one_references(mq, mp.mpc(z))
            pairs = [("theta", ctx.theta(z), theta, 0.0)]
            pairs += [("D^%d u" % k, ctx.theta_ratio(z, k), u[k],
                       0.0 if k < 2 or near_zero else 1.0) for k in range(4)]
            for name, got, ref, floor in pairs:
                err = float(rel_error(got, ref, floor))
                worst[name] = max(worst.get(name, 0.0), err)
    assert all(err <= RTOL for err in worst.values()), worst
