"""Tests for the multiplicative theta function and its identities."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchin import theta as th


Q_VALUES = [0.1, 0.3, 0.5 + 0.1j]


def annulus_points(q, count, seed=0):
    """Random points in the annulus |q| < |z| < 1/|q|, away from q^Z."""
    rng = np.random.default_rng(seed)
    qa = abs(q)
    pts = []
    while len(pts) < count:
        r = np.exp(rng.uniform(np.log(qa) * 0.9, -np.log(qa) * 0.9))
        phi = rng.uniform(0, 2 * np.pi)
        z = r * np.exp(1j * phi)
        # keep a margin from the real-positive lattice q^Z
        if min(abs(z - qa ** k) for k in range(-3, 4)) > 0.05:
            pts.append(z)
    return pts


@pytest.fixture(params=Q_VALUES, ids=["q0.1", "q0.3", "q0.5+0.1i"])
def ctx(request):
    return th.ThetaContext(request.param)


def test_theta_zero_at_one(ctx):
    assert ctx.theta(1.0) == 0.0


def test_theta_q_zero_is_linear():
    c0 = th.ThetaContext(0.0)
    z = 2.0 + 1.0j
    assert c0.theta(z) == pytest.approx(1.0 - z)
    # u(z) = -z/(1-z) when q = 0
    assert c0.theta_ratio(z) == pytest.approx(-z / (1.0 - z))


def test_theta_rejects_bad_modulus():
    with pytest.raises(ValueError):
        th.ThetaContext(1.0)
    with pytest.raises(ValueError):
        th.ThetaContext(1.2j)


def test_theta_rejects_zero_argument(ctx):
    with pytest.raises(th.ThetaError):
        ctx.theta(0.0)


def test_pole_guard(ctx):
    q = ctx.q
    for k in (0, 1, -1, 2):
        with pytest.raises(th.PoleError):
            ctx.theta_ratio(q ** k * (1.0 + 1e-12))


def test_functional_equation(ctx):
    for z in annulus_points(ctx.q, 100, seed=1):
        assert th.functional_equation_residual(ctx, z) < 10 * ctx.tol * 100


def test_inversion(ctx):
    # theta(1/z) = -z^{-1} theta(z)
    for z in annulus_points(ctx.q, 100, seed=2):
        assert th.inversion_residual(ctx, z) < 1e-12


def test_reflection_of_logderiv(ctx):
    # u(z) + u(1/z) = 1
    for z in annulus_points(ctx.q, 50, seed=3):
        assert th.reflection_residual(ctx, z) < 1e-12


def test_logderiv_shift(ctx):
    # u(qz) = u(z) - 1
    for z in annulus_points(ctx.q, 50, seed=4):
        assert th.shift_residual(ctx, z) < 1e-12


def test_theta_prime_one(ctx):
    assert th.theta_one_residual(ctx) < 1e-12


def test_logderiv_simple_pole_at_one(ctx):
    # (z - 1) u(z) -> 1 as z -> 1, checked on a shrinking sequence
    vals = []
    for h in (1e-2, 1e-3, 1e-4):
        z = 1.0 + h
        vals.append((z - 1.0) * ctx.theta_ratio(z))
    errs = [abs(v - 1.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_wp_even(ctx):
    for z in annulus_points(ctx.q, 50, seed=5):
        assert th.wp_even_residual(ctx, z) < 1e-11


def test_wp_double_pole(ctx):
    # tau^2 wp(e^tau) -> 1 as tau -> 0
    for tau in (1e-2, 1e-3):
        val = tau ** 2 * ctx.wp(cmath.exp(tau))
        assert abs(val - 1.0) < 10 * tau ** 2


def test_wp_constant_matches_richardson(ctx):
    # independent determination of the additive constant c(q)
    c_series = ctx.wp_const()
    c_rich = th.wp_const_richardson(ctx)
    assert abs(c_series - c_rich) < 1e-6


def test_wp_pair_factorization(ctx):
    # sigma_t(w) sigma_{1/t}(w) = wp(ln w) - wp(ln t)
    for z in annulus_points(ctx.q, 20, seed=6):
        t = 1.7 + 0.2j
        assert th.wp_pair_residual(ctx, t, z) < 1e-10


def test_cross_square_reduction(ctx):
    pts = annulus_points(ctx.q, 40, seed=7)
    for x, y in zip(pts[:20], pts[20:]):
        if min(abs(x / y - abs(ctx.q) ** k) for k in range(-3, 4)) < 0.05:
            continue
        assert th.cross_square_residual(ctx, x, y) < 1e-10


def test_kernel_shift(ctx):
    # sigma_t(q x) = t^{-1} sigma_t(x)
    t = 0.6 + 0.4j
    for x in annulus_points(ctx.q, 20, seed=8):
        lhs = ctx.sigma(t, ctx.q * x)
        rhs = ctx.sigma(t, x) / t
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_kernel_antisymmetry(ctx):
    # K_{1/t}(1/x) = -K_t(x)
    t = 1.3 - 0.2j
    for x in annulus_points(ctx.q, 20, seed=9):
        lhs = ctx.kernel(1.0 / t, 1.0 / x)
        rhs = -ctx.kernel(t, x)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("ident", ["A", "B", "C"])
def test_kernel_identities(ctx, ident):
    rng = np.random.default_rng(10)
    pts = annulus_points(ctx.q, 400, seed=11)
    for k in range(100):
        z, w, t, s = pts[4 * k:4 * k + 4]
        try:
            if ident == "A":
                r = th.addition_residual(ctx, z, w, t, s)
            elif ident == "B":
                r = th.mixed_derivative_residual(ctx, z, w, t)
            else:
                r = th.quasi_invariance_residual(ctx, z, w, t, s)
        except th.PoleError:
            continue
        assert r < 1e-10


def test_identity_a_spec_point():
    ctx = th.ThetaContext(0.2)
    r = th.addition_residual(ctx, 1.3 + 0.2j, 0.7, 1.9, 0.4j)
    assert r < 1e-10


@pytest.mark.parametrize("fname", ["theta", "logderiv", "wp"])
def test_euler_derivative_consistency(ctx, fname):
    """D f agrees with centered differences at observed order >= 1.9."""
    if fname == "theta":
        f = ctx.theta
        df = lambda z: ctx.theta_ratio(z) * ctx.theta(z)
    elif fname == "logderiv":
        f = ctx.theta_ratio
        df = lambda z: ctx.theta_ratio(z, 1)
    else:
        f = ctx.wp
        df = lambda z: -ctx.theta_ratio(z, 2)
    z = 1.37 + 0.41j
    errs = []
    for h in (1e-2, 1e-3):
        fd = (f(z * cmath.exp(h)) - f(z * cmath.exp(-h))) / (2 * h)
        errs.append(abs(fd - df(z)))
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.9


def test_truncation_error_near_unit_modulus():
    # at q = 0.9999 the transformed nome is small, but theta is far below
    # the smallest double
    ctx = th.ThetaContext(0.9999)
    with pytest.raises(th.TruncationError, match="outside the double range"):
        ctx.theta(1.5)


def test_truncation_error_past_max_terms():
    # at q = -0.9999 tau lies near 1/2, so the transformed nome is as
    # close to the unit circle (|q'| = 0.9996) and the series would need
    # more than MAX_TERMS terms
    ctx = th.ThetaContext(-0.9999)
    with pytest.raises(th.TruncationError, match="series needs 84454 terms"):
        ctx.theta_ratio(1.5)


@given(
    x=st.floats(min_value=-0.9, max_value=0.9),
    y=st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_functional_equation_property(x, y):
    ctx = th.ThetaContext(0.3)
    z = (1.0 + x) + 1j * y
    if abs(z) < 0.35 or abs(z) > 2.8:
        return
    assert th.functional_equation_residual(ctx, z) < 1e-11


@given(
    x=st.floats(min_value=-0.9, max_value=0.9),
    y=st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_wp_even_property(x, y):
    ctx = th.ThetaContext(0.3)
    z = (1.0 + x) + 1j * y
    if abs(z) < 0.35 or abs(z) > 2.8:
        return
    if min(abs(z - 0.3 ** k) for k in range(-2, 3)) < 0.03:
        return
    assert th.wp_even_residual(ctx, z) < 1e-10


# -- per-context memo --------------------------------------------------------

def test_memo_repeat_returns_first_value(ctx):
    z = 1.37 + 0.41j
    first = (ctx.theta(z), [ctx.theta_ratio(z, k) for k in range(3)])
    again = (ctx.theta(z), [ctx.theta_ratio(z, k) for k in range(3)])
    assert again == first
    fresh = th.ThetaContext(ctx.q)
    ref = (fresh.theta(z), [fresh.theta_ratio(z, k) for k in range(3)])
    for got, want in zip([first[0]] + first[1], [ref[0]] + ref[1]):
        assert abs(got - want) <= 1e-15 * abs(want)


def test_memo_does_not_store_pole_errors(ctx):
    z = ctx.q * (1.0 + 1e-12)
    for _ in range(2):
        with pytest.raises(th.PoleError):
            ctx.theta_ratio(z)
        with pytest.raises(th.PoleError):
            ctx.theta(0.0)


def test_memo_is_per_context():
    a, b = th.ThetaContext(0.3), th.ThetaContext(0.5 + 0.1j)
    z = 1.1 + 0.7j
    va, vb = a.theta(z), b.theta(z)
    ua, ub = a.theta_ratio(z), b.theta_ratio(z)
    assert va != vb and ua != ub
    fresh = th.ThetaContext(0.5 + 0.1j)
    assert (vb, ub) == (fresh.theta(z), fresh.theta_ratio(z))


def test_memo_size_is_capped():
    c = th.ThetaContext(0.3)
    cap = th._MEMO_CAP
    assert cap < 10000
    for j in range(10000):
        c.theta(1.0 + 1e-3 * (j + 1) * 1j)
        assert len(c._memo) <= cap


def test_pole_guard_memo_keeps_raising(ctx):
    z = ctx.q ** 2 * (1.0 - 3e-9j)
    for _ in range(2):
        with pytest.raises(th.PoleError):
            ctx.check_regular(z)
    with pytest.raises(th.PoleError):
        ctx.kernel(1.3 + 0.2j, z)


def test_pole_guard_memo_is_per_context():
    a, b = th.ThetaContext(0.3), th.ThetaContext(0.5)
    a.check_regular(0.5)
    a.check_regular(0.5)
    with pytest.raises(th.PoleError):
        b.check_regular(0.5)
