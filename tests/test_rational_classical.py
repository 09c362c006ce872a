"""Tests for the rational classical system: Lax matrix, coefficients,
Poisson brackets and isospectral flows."""

import numpy as np
import pytest

from hitchin import rational_classical as rc


E2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
F2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        rc.RationalPhasePoint([E2, F2], [0.0, 1e-14])
    with pytest.raises(ValueError):
        rc.RationalPhasePoint([E2, np.eye(3)], [0.0, 1.0])
    with pytest.raises(ValueError):
        rc.RationalPhasePoint(np.zeros((0, 2, 2)), [])
    with pytest.raises(ValueError):
        rc.RationalPhasePoint([np.eye(2)], [0.0], check_nilpotent=True)
    with pytest.raises(ValueError):
        rc.RationalPhasePoint([E2, E2], [0.0, 1.0], check_moment=True)
    rc.RationalPhasePoint([E2, -E2], [0.0, 1.0],
                          check_nilpotent=True, check_moment=True)


def test_lax_single_site():
    pt = rc.RationalPhasePoint([E2], [0.0])
    assert np.allclose(rc.lax_rational(pt, 2.0), E2 / 2.0)


def test_lax_pole_error():
    pt = rc.RationalPhasePoint([E2], [0.0])
    with pytest.raises(rc.PoleError):
        rc.lax_rational(pt, 0.0)


def test_lax_stacked_equals_single_calls():
    rng = np.random.default_rng(4)
    pt = rc.random_nilpotent_point(3, 3, rng)
    nodes = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    stacked = rc.lax_rational(pt, nodes)
    single = np.array([[rc.lax_rational(pt, z) for z in row] for row in nodes])
    assert stacked.shape == (4, 5, 3, 3)
    assert stacked.tobytes() == single.tobytes()
    nodes[2, 3] = pt.sites[1]
    with pytest.raises(rc.PoleError):
        rc.lax_rational(pt, nodes)


def test_lax_batched_point_equals_single_points():
    # leading axes of a batched eta come out ahead of the node axes, and
    # every (point, node) entry has the bytes of a call on that point alone
    rng = np.random.default_rng(19)
    pt = rc.random_nilpotent_point(3, 3, rng)
    etas = np.array([rc.random_nilpotent_point(3, 3, rng).eta
                     for _ in range(2)])
    nodes = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    stacked = rc.lax_rational(pt.copy_with_eta(etas), nodes)
    single = np.array([[[rc.lax_rational(pt.copy_with_eta(e), z)
                         for z in row] for row in nodes] for e in etas])
    assert stacked.shape == (2, 4, 5, 3, 3)
    assert stacked.tobytes() == single.tobytes()


def test_lax_residue():
    rng = np.random.default_rng(2)
    pt = rc.random_nilpotent_point(2, 3, rng)
    for i, zi in enumerate(pt.sites):
        eps = 1e-7
        approx = eps * rc.lax_rational(pt, zi + eps)
        assert np.linalg.norm(approx - pt.eta[i]) < 1e-5


def test_lax_decay_at_infinity():
    rng = np.random.default_rng(3)
    pt = rc.random_nilpotent_point(2, 3, rng)
    total = sum(pt.eta)
    big = 1e6
    assert np.linalg.norm(big * rc.lax_rational(pt, big) - total) < 1e-4
    pt0 = rc.random_nilpotent_point(2, 3, rng, moment=True)
    assert np.linalg.norm(big * rc.lax_rational(pt0, big)) < 1e-4


def test_hitchin_coeffs_spec_example():
    # trace(eta(z)^2) = 2/(z(z-1)) = -2/z + 2/(z-1)
    pt = rc.RationalPhasePoint([E2, F2], [0.0, 1.0])
    hc = rc.HitchinCoefficients(pt, [2])
    assert abs(hc[(2, (1, 0))] - (-2.0)) < 1e-10
    assert abs(hc[(2, (0, 1))] - 2.0) < 1e-10


def test_hitchin_coeffs_single_site():
    # a single nilpotent site: the unique degree-2 coefficient is trace(m^2).
    # (For non-nilpotent m, trace(eta(z)^2) has a double pole outside the
    # simple-pole basis, so the single-site identity only holds on the
    # nilpotent locus.)
    rng = np.random.default_rng(4)
    pt = rc.random_nilpotent_point(3, 1, rng)
    m = pt.eta[0]
    hc = rc.HitchinCoefficients(pt, [2])
    assert abs(hc[(2, (1,))] - np.trace(m @ m)) < 1e-10


def test_hitchin_coeffs_no_double_poles_nilpotent():
    # nilpotent rank-1 sl2 data has trace(eta_i^2) = 0: no double poles
    rng = np.random.default_rng(5)
    pt = rc.random_nilpotent_point(2, 3, rng)
    hc = rc.HitchinCoefficients(pt, [2])
    scale = max(abs(v) for v in hc.values.values())
    for i in range(3):
        a = tuple(2 if j == i else 0 for j in range(3))
        # degree-2 basis has total exponent 1, so no key with a_i = 2 exists
        assert (2, a) not in hc.values
        assert abs(np.trace(pt.eta[i] @ pt.eta[i])) < 1e-12 * scale


@pytest.mark.parametrize("n,N", [(2, 3), (3, 4), (4, 2), (2, 5)])
def test_hitchin_d2_coefficients_closed_form(n, N):
    # tr eta_i^2 = 0 at nilpotent sites, so tr L^2 has simple poles only,
    # with residue c_i = 2 sum_{j != i} tr(eta_i eta_j) / (z_i - z_j) at z_i
    pt = rc.random_nilpotent_point(n, N, np.random.default_rng(30 + n + N))
    hc = rc.HitchinCoefficients(pt, [2])
    eta, z = pt.eta, pt.sites
    scale = max(abs(v) for v in hc.values.values())
    for i in range(N):
        want = 2 * sum(np.trace(eta[i] @ eta[j]) / (z[i] - z[j])
                       for j in range(N) if j != i)
        key = tuple(int(j == i) for j in range(N))
        assert abs(hc[(2, key)] - want) <= 1e-11 * scale


def test_reconstruction_random_points():
    rng = np.random.default_rng(6)
    for n, N in [(2, 3), (3, 3)]:
        pt = rc.random_nilpotent_point(n, N, rng)
        hc = rc.HitchinCoefficients(pt, list(range(2, n + 1)))
        scale = max(1.0, max(abs(v) for v in hc.values.values()))
        for _ in range(20):
            z = rng.normal(scale=3) + 1j * rng.normal(scale=3)
            if min(abs(z - s) for s in pt.sites) < 0.3:
                continue
            # sum_a H_{d,a} basis_a(z) against trace(eta(z)^d)
            lax = rc.lax_rational(pt, z)
            for d in hc.degrees:
                plan = rc._hitchin_plan(pt.sites, d)
                total = plan.evaluate([hc[(d, a)] for a in plan.keys], z)
                want = np.trace(np.linalg.matrix_power(lax, d))
                assert abs(total - want) < 1e-10 * scale


def test_bracket_trivial_cases():
    rng = np.random.default_rng(7)
    pt = rc.random_nilpotent_point(2, 2, rng)
    f = rc.entry_observable(0, 0, 1)
    g = rc.entry_observable(1, 1, 0)
    assert abs(rc.kk_bracket(f, g, pt)) == 0.0
    assert abs(rc.kk_bracket(f, f, pt)) == 0.0


def test_coordinate_bracket_matches_lax_form():
    # {eta(z) (x) eta(w)} = [P/(z-w), eta(z) (x) 1 + 1 (x) eta(w)]
    rng = np.random.default_rng(8)
    for n in (2, 3):
        pt = rc.random_nilpotent_point(n, 2, rng)
        z, w = 2.1 + 0.3j, -1.4 + 0.9j
        lhs = rc.coordinate_bracket_tensor(pt, z, w)
        P = np.zeros((n * n, n * n))
        for a in range(n):
            for b in range(n):
                P[a * n + b, b * n + a] = 1.0
        M = (np.kron(rc.lax_rational(pt, z), np.eye(n))
             + np.kron(np.eye(n), rc.lax_rational(pt, w)))
        rhs = (P @ M - M @ P) / (z - w)
        assert np.linalg.norm(lhs - rhs) < 1e-9


@pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (3, 3)])
def test_involutivity(n, N):
    rng = np.random.default_rng(9)
    for trial in range(3):
        pt = rc.random_nilpotent_point(n, N, rng)
        coeffs = rc.HitchinCoefficients(pt, list(range(2, n + 1)))
        obs = [rc.HitchinObservable(pt, d, a) for d, a in coeffs.keys()]
        scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
        for i, f in enumerate(obs):
            for g in obs[i + 1:]:
                assert abs(rc.kk_bracket(f, g, pt)) < 1e-8 * scale


def test_bracket_fd_oracle():
    # analytic-gradient bracket agrees with the Cauchy-ring route, at d = 2
    # on gl2 and at d = 3 (paired with d = 3 and with d = 2) on gl3
    rng = np.random.default_rng(10)
    for n, degrees in [(2, [2]), (3, [2, 3])]:
        pt = rc.random_nilpotent_point(n, 3, rng)
        coeffs = rc.HitchinCoefficients(pt, degrees)
        keys = coeffs.keys()
        pairs = [(keys[0], keys[1])]
        if n == 3:
            pairs = [((3, (1, 1, 0)), (3, (0, 1, 1))),
                     ((2, (1, 0, 0)), (3, (1, 0, 1)))]
        for kf, kg in pairs:
            f = rc.HitchinObservable(pt, *kf)
            g = rc.HitchinObservable(pt, *kg)
            analytic = rc.kk_bracket(f, g, pt)
            fd = rc.kk_bracket(lambda p: f.value(p), lambda p: g.value(p), pt)
            assert abs(analytic - fd) < 1e-6


def test_gradients_equal_per_node_sum():
    # the site-weight gradient equals the per-node definition
    # sum_k w_a[k] d eta(zeta_k)^(d-1) / (zeta_k - z_i) up to rounding
    # relative to the largest node term, and the Cauchy-ring partials of
    # the value, which do not go through either
    rng = np.random.default_rng(15)
    pt = rc.random_nilpotent_point(3, 3, rng)
    coeffs = rc.HitchinCoefficients(pt, [2, 3])
    for d, a in coeffs.keys():
        obs = rc.HitchinObservable(pt, d, a)
        ref = np.zeros((pt.nsites, pt.n, pt.n), dtype=complex)
        largest = 0.0
        for lam, z in zip(obs.row, obs.nodes):
            power = np.linalg.matrix_power(rc.lax_rational(pt, z), d - 1)
            for i, zi in enumerate(pt.sites):
                term = lam * d * power / (z - zi)
                ref[i] += term
                largest = max(largest, np.abs(term).max())
        grads = obs.gradients(pt)
        assert np.abs(grads - ref).max() <= 1e-13 * largest
        ring = rc._numerical_gradients(obs.value, pt)
        assert np.abs(grads - ring).max() < 1e-11 * np.abs(grads).max()


def test_flow_field_eq4_exact():
    rng = np.random.default_rng(11)
    pt = rc.random_nilpotent_point(2, 2, rng)
    field = rc.flow_field(pt, 2, (1, 0))
    e1, e2 = pt.eta
    z1, z2 = pt.sites
    comm = e1 @ e2 - e2 @ e1
    assert np.linalg.norm(field[1] + comm / (z1 - z2)) < 1e-12
    assert np.linalg.norm(field[0] - comm / (z1 - z2)) < 1e-12
    # total residue is conserved
    assert np.linalg.norm(field[0] + field[1]) < 1e-12


def test_flow_field_matches_hamiltonian_field():
    rng = np.random.default_rng(12)
    pt = rc.random_nilpotent_point(2, 3, rng)
    coeffs = rc.HitchinCoefficients(pt, [2])
    for d, a in coeffs.keys():
        obs = rc.HitchinObservable(pt, d, a)
        ham = rc.hamiltonian_field(obs, pt)
        field = rc.flow_field(pt, d, a)
        for u, v in zip(field, ham):
            assert np.linalg.norm(u - v / d) < 1e-8


def test_integrate_flow_conservation():
    rng = np.random.default_rng(13)
    pt = rc.random_nilpotent_point(2, 3, rng)
    coeffs = rc.HitchinCoefficients(pt, [2])
    scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
    _, drift = rc.integrate_flow(pt, (2, (1, 0, 0)), T=1.0, dt=1e-2)
    assert drift < 1e-8 * scale


def _per_site_rk4(pt, key, dt, steps):
    """RK4 with one list entry per site, as the flow was first written."""
    d, a = key

    def rhs(eta):
        return list(rc.flow_field(pt.copy_with_eta(np.array(eta)), d, a))

    eta = list(pt.eta)
    out = [np.array(eta)]
    for _ in range(steps):
        k1 = rhs(eta)
        k2 = rhs([m + 0.5 * dt * v for m, v in zip(eta, k1)])
        k3 = rhs([m + 0.5 * dt * v for m, v in zip(eta, k2)])
        k4 = rhs([m + dt * v for m, v in zip(eta, k3)])
        eta = [m + dt / 6.0 * (v1 + 2 * v2 + 2 * v3 + v4)
               for m, v1, v2, v3, v4 in zip(eta, k1, k2, k3, k4)]
        out.append(np.array(eta))
    return np.array(out)


@pytest.mark.parametrize("n,key", [(2, (2, (0, 1, 0))),
                                   (3, (2, (1, 0, 0))),
                                   (3, (3, (0, 1, 1)))])
def test_integrate_flow_equals_per_site_rk4(n, key):
    pt = rc.random_nilpotent_point(n, 3, np.random.default_rng(20 + n))
    dt = 1e-3
    traj, _ = rc.integrate_flow(pt, key, T=100 * dt, dt=dt)
    assert len(traj) == 101
    assert np.array_equal(np.array([p.eta for _, p in traj]),
                          _per_site_rk4(pt, key, dt, 100))


def test_integrate_flow_drift_is_per_step_drift():
    # the batched drift check equals the largest drift of per-step
    # coefficient extractions; on this trajectory the largest drift is
    # reached mid-way, so the whole trajectory is checked, not its end
    pt = rc.random_nilpotent_point(2, 3, np.random.default_rng(29))
    traj, drift = rc.integrate_flow(pt, (2, (0, 1, 0)), T=0.3, dt=1e-2)
    ref = rc.HitchinCoefficients(pt, [2])
    per_step = [max(abs(rc.HitchinCoefficients(p, [2])[k] - ref[k])
                    for k in ref.keys()) for _, p in traj[1:]]
    assert per_step[-1] < 0.5 * max(per_step)
    # both are differences of coefficients of this size
    scale = max(abs(v) for v in ref.values.values())
    assert abs(drift - max(per_step)) < 1e-13 * scale


def test_integrate_flow_short_time_limit():
    rng = np.random.default_rng(14)
    pt = rc.random_nilpotent_point(2, 3, rng)
    _, drift = rc.integrate_flow(pt, (2, (1, 0, 0)), T=1e-3, dt=1e-3)
    assert drift < 1e-10


def test_rk4_order():
    # integrate with dt and dt/2 against a fine reference; observed order >= 3.7
    rng = np.random.default_rng(15)
    pt = rc.random_nilpotent_point(2, 2, rng)
    key = (2, (1, 0))
    T = 0.5

    def endpoint(dt):
        traj, _ = rc.integrate_flow(pt, key, T=T, dt=dt)
        return traj[-1][1]

    ref = endpoint(T / 256)
    errs = []
    for steps in (8, 16):
        end = endpoint(T / steps)
        errs.append(max(np.linalg.norm(a - b)
                        for a, b in zip(end.eta, ref.eta)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.7


def test_isospectrality():
    rng = np.random.default_rng(16)
    pt = rc.random_nilpotent_point(2, 3, rng)
    zstar = 4.0 + 1.5j
    before = np.sort_complex(np.linalg.eigvals(rc.lax_rational(pt, zstar)))
    traj, _ = rc.integrate_flow(pt, (2, (1, 0, 0)), T=1.0, dt=1e-2)
    after = np.sort_complex(np.linalg.eigvals(rc.lax_rational(traj[-1][1], zstar)))
    assert np.max(np.abs(before - after)) < 1e-7


def test_integrate_flow_overflow():
    rng = np.random.default_rng(17)
    pt = rc.random_nilpotent_point(2, 2, rng)
    with pytest.raises(OverflowError):
        rc.integrate_flow(pt, (2, (1, 0)), T=1.0, dt=0.1, overflow=1e-9)


def test_pole_error_is_shared():
    import hitchin
    assert rc.PoleError is hitchin.PoleError


def test_numerical_gradient_keeps_pole_error():
    rng = np.random.default_rng(18)
    pt = rc.random_nilpotent_point(2, 2, rng)
    f = rc.entry_observable(0, 0, 1)
    at_site = lambda p: rc.lax_rational(p, p.sites[0])[0, 1]
    with pytest.raises(rc.PoleError):
        rc.kk_bracket(at_site, f, pt)


# H_{d,a} at a fixed point as computed before the extraction plan was shared
HITCHIN_REFERENCE = {
    (2, (0, 0, 1)): 20.10029442247075 - 1.9670703943781298j,
    (2, (0, 1, 0)): 7.039124232766643 + 24.34188520417012j,
    (2, (1, 0, 0)): -27.139418655237392 - 22.374814809791985j,
    (3, (0, 0, 2)): -4.858335955759685e-13 - 3.0569990983053685e-13j,
    (3, (0, 1, 1)): -41.23073002989612 - 37.52888868502909j,
    (3, (0, 2, 0)): 1.616484723854228e-13 + 4.606870440682087e-13j,
    (3, (1, 0, 1)): 53.85155280844744 + 4.0534894794186656j,
    (3, (1, 1, 0)): -12.620822778550963 + 33.47539920561126j,
    (3, (2, 0, 0)): 2.840505608503463e-13 - 6.384337503106963e-13j,
}


def test_hitchin_coeffs_reference_values():
    pt = rc.random_nilpotent_point(3, 3, np.random.default_rng(2905))
    hc = rc.HitchinCoefficients(pt, [2, 3])
    assert sorted(hc.keys()) == sorted(HITCHIN_REFERENCE)
    for key, ref in HITCHIN_REFERENCE.items():
        assert abs(hc[key] - ref) < 1e-13
