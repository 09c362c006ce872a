"""The theta leaf against a 30-digit mpmath reference.

The reference evaluates the product for theta and, for D^k u, the series
of Euler derivatives of the terms y/(1-y), y = q^i z^(+-1): D^k of such a
term is (+-1)^k Li_{-k}(y), written out with the Eulerian polynomials.
Where the product would need too many terms or digits, mpmath's Jacobi
theta_1 is the second route (``theta1``).  Neither shares code with
``hitchin.theta``.
"""

import cmath

import pytest

from hitchin import theta as th
from test_theta import annulus_points

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


def half_period_points(q):
    """Points at relative distance 1e-2 from the half-periods -1 and
    +-q^(1/2), where D^2 u vanishes (and u too, at +-q^(1/2))."""
    r = q ** 0.5
    return [h * cmath.exp(1e-2 * cmath.exp(1j * phi))
            for h in (-1.0, r, -r) for phi in (0.7, 2.3)]


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5 + 0.1j],
                         ids=["q0.1", "q0.3", "q0.5+0.1i"])
def test_logderiv_relative_to_reference(q):
    # D^k u judged relative to |reference| alone, also next to its zeros at
    # the half-periods: a series whose terms are O(1) and cancel there (a
    # sum at q itself) reads 1e-9 to 1e-5 on D^2 u at these points
    ctx = th.ThetaContext(q)
    worst = {}
    with mp.workdps(DPS):
        mq = mp.mpc(q)
        for z in oracle_points(q)[:4] + half_period_points(q):
            for k in range(4):
                err = rel_error(ctx.theta_ratio(z, k),
                                ref_logderiv(mq, mp.mpc(z), k), 0.0)
                worst[k] = max(worst.get(k, 0.0), float(err))
    assert all(err <= 1e-13 for err in worst.values()), worst


def theta1(q, z, j=0):
    """The j-th derivative of mpmath's Jacobi theta_1 at nu = log(z)/(2i)
    and the nome q^(1/2): theta(z) is e^(i nu) theta_1(nu) times a factor
    free of z, and D = (1/2i) d/dnu.  The theta_1 series converges in about
    the square root of the terms the product needs."""
    return mp.jtheta(1, mp.log(z) / 2j, mp.sqrt(q), j)


def jtheta_logderiv(q, z):
    """D^k u(z), k = 0..3, from the Euler derivatives of log theta_1,
    written with the ratios r_j = theta_1^(j)/theta_1."""
    t = [theta1(q, z, j) for j in range(5)]
    r = [x / t[0] for x in t]
    logs = [r[1], r[2] - r[1] ** 2, r[3] - 3 * r[1] * r[2] + 2 * r[1] ** 3,
            r[4] - 4 * r[1] * r[3] - 3 * r[2] ** 2 + 12 * r[1] ** 2 * r[2]
            - 6 * r[1] ** 4]
    return [g / (2j) ** (k + 1) + (mp.mpf(1) / 2 if k == 0 else 0)
            for k, g in enumerate(logs)]


def test_logderiv_near_the_unit_circle_relative_to_reference():
    # at q = 0.99 and 0.97 e^(0.4i), D^2 u = 1.166e-101 + 5.976e-101i and
    # D^3 u = -3.7e-98 + 7.3e-99i, below terms of about 100 at q: a product
    # reference would need 140 digits and 33,000 terms (20 s), so the
    # reference is theta_1, which is about 1e-150 there and so runs at 300
    # digits; it is first checked against the product reference at q = 0.3
    with mp.workdps(DPS):
        q, z = mp.mpf(0.3), mp.mpc(1.3 * cmath.exp(1.2j))
        for k, ref in enumerate(jtheta_logderiv(q, z)):
            assert rel_error(ref, ref_logderiv(q, z, k), 0.0) < 1e-25
    q, z = 0.99, 0.97 * cmath.exp(0.4j)
    ctx = th.ThetaContext(q)
    with mp.workdps(300):
        refs = jtheta_logderiv(mp.mpf(q), mp.mpc(z))
        errs = [float(rel_error(ctx.theta_ratio(z, k), ref, 0.0))
                for k, ref in enumerate(refs)]
    assert max(errs) <= 1e-13, errs


def test_kernel_matches_reference_at_the_identity_points():
    # the theta-check identities are judged relative to their largest term,
    # so the kernels inside them are gated here on their own: K_t(x) and
    # t d/dt K_t(w) = (u(t w) - u(t)) K_t(w) at the sample points of
    # test_theta.py::test_kernel_identities[q0.5+0.1i-B], whose terms reach
    # 2.5e4, relative to |reference|.  The reference is theta_1, scaled to
    # theta by the product reference at one point.
    q = 0.5 + 0.1j
    ctx = th.ThetaContext(q)
    pts = annulus_points(q, 400, seed=11)
    worst = {}
    with mp.workdps(20):
        mq = mp.mpc(q)
        memo = {}

        def d(z, j=0):
            z = mp.mpc(z)
            if (z, j) not in memo:
                memo[z, j] = theta1(mq, z, j)
            return memo[z, j]

        def f(z):
            return mp.sqrt(z) * d(z)

        scale = ref_theta(mq, mp.mpc(1.3)) / f(1.3)

        def kernel(t, x):
            return f(mp.mpc(t) * x) / (scale * f(t) * f(x))

        def u(z):
            return 0.5 + d(z, 1) / (2j * d(z))

        for i in range(100):
            z, w, t, _ = pts[4 * i:4 * i + 4]
            try:
                pairs = [("K", ctx.kernel(a, b), kernel(a, b))
                         for a, b in ((t, w), (1.0 / t, z / w), (t, z))]
                dK = (ctx.theta_ratio(t * w) - ctx.theta_ratio(t)) \
                    * ctx.kernel(t, w)
            except th.PoleError:
                continue
            ref_dK = (u(mp.mpc(t) * w) - u(t)) * pairs[0][2]
            for name, got, ref in pairs + [("t dK/dt", dK, ref_dK)]:
                err = float(rel_error(got, ref, 0.0))
                worst[name] = max(worst.get(name, 0.0), err)
    assert all(err <= 1e-12 for err in worst.values()), worst
