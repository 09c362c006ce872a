"""Tests for the classical elliptic system."""

import numpy as np
import pytest

from hitchin.theta import ThetaContext, PoleError
from hitchin.elliptic_classical import (
    MAX_DRAWS,
    EllipticPhasePoint,
    _gradients,
    bracket_tensor,
    hamiltonian_family,
    hamiltonians_elliptic,
    lax_elliptic,
    poisson_bracket,
    r_matrix,
    random_elliptic_point,
    rho_matrix,
    trace_expansion,
    verify_dynamical_rmatrix,
)


def entry_fun(i, a, b):
    return lambda pt: pt.eta[i][a, b]


def close_twist_point():
    """The moment-surface point of `hitchin elliptic-classical --seed 2`."""
    return EllipticPhasePoint(
        ThetaContext(0.3),
        [-0.20492283237128975 + 1.53523552801949j,
         -0.2744140048099273 - 0.879199624943892j],
        [0.36216627117776967 + 1.0150085839941907j,
         0.21927410108898418 + 1.0103993109874327j],
        [[[-0.19844399372639826 + 0.5042926208885647j,
           0.24877306484494816 - 0.3285952928118986j],
          [0.49666592427248046 - 0.23968584601866358j,
           -0.01530219139754038 + 0.13966924849409257j]],
         [[0.19844399372639826 - 0.5042926208885646j,
           0.5949331717168096 - 0.16388774069135176j],
          [2.3053651490300506 - 0.34406318100956246j,
           0.01530219139754041 - 0.13966924849409246j]]],
        [0.690330848435955 - 0.8470060910353424j,
         0.9918167721345003 - 0.8245030337844207j])


class TestPhasePoint:
    def test_shape_validation(self):
        ctx = ThetaContext(0.3)
        with pytest.raises(ValueError):
            EllipticPhasePoint(ctx, [1.0], [1.0, 2.0], [np.eye(1)], [1.0])
        with pytest.raises(ValueError):
            EllipticPhasePoint(ctx, [1.0, 2.0], [1.0, 2.0],
                               [np.eye(3)], [1.0])
        with pytest.raises(ValueError):
            EllipticPhasePoint(ctx, [1.0, 2.0], [1.0, 2.0],
                               [np.eye(2)], [1.0, 2.0])

    def test_zero_twist_rejected(self):
        ctx = ThetaContext(0.3)
        with pytest.raises(ValueError):
            EllipticPhasePoint(ctx, [1.0], [0.0], [np.eye(1)], [1.0])

    def test_lattice_twist_ratio_rejected(self):
        ctx = ThetaContext(0.3)
        with pytest.raises(PoleError):
            EllipticPhasePoint(ctx, [1.0, 1.0], [2.0, 2.0 * 0.3],
                               [np.zeros((2, 2))], [1.0])

    def test_lattice_site_ratio_rejected(self):
        ctx = ThetaContext(0.3)
        with pytest.raises(PoleError):
            EllipticPhasePoint(ctx, [1.0], [2.0],
                               [np.eye(1), np.eye(1)], [1.0, 0.3])

    def test_moment_point_has_zero_charges(self):
        rng = np.random.default_rng(6)
        pt = random_elliptic_point(3, 2, 0.3, rng, moment=True)
        assert np.abs(pt.charges()).max() < 1e-13


class TestLax:
    def test_single_index_is_scalar_formula(self):
        rng = np.random.default_rng(7)
        pt = random_elliptic_point(1, 2, 0.3, rng)
        z = 1.17 + 0.21j
        ctx = pt.ctx
        expected = pt.p[0]
        for i in range(2):
            expected += pt.eta[i][0, 0] \
                * (ctx.theta_ratio(z / pt.sites[i]) - 0.5)
        expected /= ctx.theta_prime_one()
        assert abs(lax_elliptic(pt, z)[0, 0] - expected) < 1e-13

    def test_pole_guard_at_site(self):
        rng = np.random.default_rng(8)
        pt = random_elliptic_point(2, 1, 0.3, rng)
        with pytest.raises(PoleError):
            lax_elliptic(pt, pt.sites[0])

    def test_residue_at_site(self):
        # (z - z_i) xbar(z) -> eta^(i) z_i / theta'(1) via Richardson
        rng = np.random.default_rng(9)
        pt = random_elliptic_point(2, 2, 0.3, rng)
        zi = pt.sites[0]
        h = 1e-3 * abs(zi)

        def probe(eps):
            z = zi * (1.0 + eps)
            return (z - zi) * lax_elliptic(pt, z)

        rich = 2.0 * probe(h / 2) - probe(h)
        target = pt.eta[0] * zi / pt.ctx.theta_prime_one()
        assert np.abs(rich - target).max() < 1e-4 * np.abs(target).max()

    @pytest.mark.parametrize("q,n,N", [(0.1, 2, 1), (0.3, 2, 2),
                                       (0.3, 3, 2), (0.1, 3, 3)])
    def test_quasi_periodicity(self, q, n, N):
        rng = np.random.default_rng(hash((n, N)) % 2 ** 32)
        pt = random_elliptic_point(n, N, q, rng)
        z = 1.07 + 0.23j
        lhs = lax_elliptic(pt, pt.ctx.q * z)
        tw = np.diag(pt.t)
        rhs = tw @ lax_elliptic(pt, z) @ np.linalg.inv(tw) \
            - np.diag(pt.charges()) / pt.ctx.theta_prime_one()
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() < 1e-10 * scale


class TestRMatrices:
    def setup_method(self):
        self.ctx = ThetaContext(0.3)
        rng = np.random.default_rng(11)
        self.t = np.exp(1j * rng.uniform(0, 2 * np.pi, 3)) \
            * rng.uniform(0.85, 1.2, 3)
        self.z = 1.21 + 0.33j
        self.w = 0.78 - 0.41j

    def test_coincident_index_entries_vanish(self):
        n = 3
        for mat in (r_matrix(self.ctx, self.z, self.w, self.t),
                    rho_matrix(self.ctx, self.z, self.w, self.t)):
            for a in range(n):
                assert abs(mat[a * n + a, a * n + a]) == 0.0
                # coefficient of e_aa (x) e_aa and of e_ab (x) e_ab blocks
                for b in range(n):
                    if b != a:
                        assert abs(mat[a * n + a, b * n + b]) == 0.0

    def test_translation_invariance(self):
        c = 0.83 * np.exp(0.9j)
        base = r_matrix(self.ctx, self.z, self.w, self.t)
        moved = r_matrix(self.ctx, self.z * c, self.w * c, self.t)
        assert np.abs(base - moved).max() < 1e-12 * np.abs(base).max()
        base = rho_matrix(self.ctx, self.z, self.w, self.t)
        moved = rho_matrix(self.ctx, self.z * c, self.w * c, self.t)
        assert np.abs(base - moved).max() < 1e-12 * np.abs(base).max()

    def test_rho_matches_coincidence_limit(self):
        # each rho entry is minus the value at coinciding spectral points
        # of F(zz, ww) = K_{1/T}(zz) K_T(ww)
        #               + K_{1/T}(zz/ww) (u(zz) - u(ww)) / theta'(1),
        # the translation-invariant combination with T = t_b^-1 t_a.
        ctx, t = self.ctx, self.t
        u, K = ctx.theta_ratio, ctx.kernel
        tp1 = ctx.theta_prime_one()
        n = len(t)
        x = self.z / self.w
        rho = rho_matrix(ctx, self.z, self.w, t)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                T = t[b] ** (-1) * t[a]

                def F(s):
                    return K(1.0 / T, x * s) * K(T, s) \
                        + K(1.0 / T, x) * (u(x * s) - u(s)) / tp1

                h = 1e-3
                lim = 2.0 * F(1.0 + h / 2) - F(1.0 + h)
                entry = rho[a * n + b, b * n + a]
                assert abs(entry + lim) < 1e-5 * max(abs(entry), 1.0)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            r_matrix(self.ctx, self.z, self.z, self.t)


class TestBracketTensor:
    def test_coordinate_bracket_oracle(self):
        # poisson_bracket reproduces the defining coordinate brackets
        rng = np.random.default_rng(12)
        pt = random_elliptic_point(2, 2, 0.3, rng)
        val = poisson_bracket(lambda q: q.p[0], lambda q: q.t[0], pt)
        assert abs(val - pt.t[0]) < 1e-10 * abs(pt.t[0])
        val = poisson_bracket(lambda q: q.p[0], lambda q: q.t[1], pt)
        assert abs(val) < 1e-10
        # {eta_ab, eta_cd} = delta_cb eta_ad - delta_ad eta_cb per matrix
        val = poisson_bracket(entry_fun(0, 0, 1), entry_fun(0, 1, 1), pt)
        assert abs(val - pt.eta[0][0, 1]) < 1e-9
        val = poisson_bracket(entry_fun(0, 0, 1), entry_fun(1, 1, 1), pt)
        assert abs(val) < 1e-9

    def test_tensor_antisymmetry(self):
        rng = np.random.default_rng(13)
        pt = random_elliptic_point(2, 2, 0.3, rng)
        z, w = 1.1 + 0.28j, 0.9 - 0.35j
        n = pt.n
        L = bracket_tensor(pt, z, w)
        M = bracket_tensor(pt, w, z)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        lhs = L[a * n + c, b * n + d]
                        rhs = -M[c * n + a, d * n + b]
                        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_tensor_matches_spectral_bracket_engine(self):
        # dual route: the analytic tensor against the generic
        # circle-derivative bracket engine on a few entries
        rng = np.random.default_rng(14)
        pt = random_elliptic_point(2, 1, 0.3, rng)
        z, w = 1.13 + 0.19j, 0.84 - 0.3j
        n = pt.n
        L = bracket_tensor(pt, z, w)
        for (a, b, c, d) in [(0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1)]:
            val = poisson_bracket(
                lambda q, a=a, b=b: lax_elliptic(q, z)[a, b],
                lambda q, c=c, d=d: lax_elliptic(q, w)[c, d], pt)
            assert abs(val - L[a * n + c, b * n + d]) < 1e-8

    def test_array_observables_give_bracket_matrix(self):
        # {xbar_ab(z), xbar_cd(w)} for all entries from one gradient pass
        # per side, against the analytic tensor
        rng = np.random.default_rng(15)
        pt = random_elliptic_point(2, 2, 0.3, rng)
        z, w = 1.13 + 0.19j, 0.84 - 0.3j
        n = pt.n
        L = bracket_tensor(pt, z, w)
        val = poisson_bracket(lambda q: lax_elliptic(q, z).ravel(),
                              lambda q: lax_elliptic(q, w).ravel(), pt)
        want = L.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n,
                                                                    n * n)
        assert np.abs(val - want).max() < 1e-8 * max(np.abs(L).max(), 1.0)


    def test_tensor_matches_ring_brackets_n3_N3(self):
        # every pair of Lax entries at n = N = 3 against the ring engine
        rng = np.random.default_rng(24)
        pt = random_elliptic_point(3, 3, 0.3, rng)
        z, w = 1.07 - 0.31j, 0.88 + 0.42j
        n = pt.n
        L = bracket_tensor(pt, z, w)
        val = poisson_bracket(lambda q: lax_elliptic(q, z).ravel(),
                              lambda q: lax_elliptic(q, w).ravel(), pt)
        want = L.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n,
                                                                    n * n)
        assert np.abs(val - want).max() < 1e-9 * max(np.abs(L).max(), 1.0)


class TestDynamicalRMatrixIdentity:
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_identity_sweep(self, q, n, N):
        rng = np.random.default_rng(hash((q, n, N)) % 2 ** 32)
        for trial in range(4):
            pt = random_elliptic_point(n, N, q, rng,
                                       moment=(trial % 2 == 1))
            z = np.exp(1j * rng.uniform(0, 2 * np.pi)) \
                * rng.uniform(0.8, 1.3)
            w = np.exp(1j * rng.uniform(0, 2 * np.pi)) \
                * rng.uniform(0.8, 1.3)
            if abs(z / w - 1.0) < 0.05:
                w *= 1.2
            # relative to max(1, max |bracket tensor entry|)
            assert verify_dynamical_rmatrix(pt, z, w) < 1e-9

    def test_moment_surface_drops_rho(self):
        # with vanishing diagonal charges the commutator alone closes
        rng = np.random.default_rng(15)
        pt = random_elliptic_point(2, 2, 0.3, rng, moment=True)
        z, w = 1.19 + 0.31j, 0.82 - 0.27j
        n = pt.n
        L = bracket_tensor(pt, z, w)
        X = np.kron(lax_elliptic(pt, z), np.eye(n)) \
            + np.kron(np.eye(n), lax_elliptic(pt, w))
        r = r_matrix(pt.ctx, z, w, pt.t)
        resid = np.abs(L - (r @ X - X @ r)).max()
        assert resid < 1e-9 * np.abs(L).max()

    def test_single_index_trivial(self):
        rng = np.random.default_rng(16)
        pt = random_elliptic_point(1, 2, 0.3, rng)
        z, w = 1.1 + 0.2j, 0.8 - 0.3j
        assert np.abs(bracket_tensor(pt, z, w)).max() < 1e-13
        assert verify_dynamical_rmatrix(pt, z, w) < 1e-13


class TestHamiltonians:
    def test_free_system(self):
        ctx = ThetaContext(0.3)
        p = np.array([0.3 + 0.1j, -1.2j])
        pt = EllipticPhasePoint(ctx, p, [1.1, 0.7j],
                                [np.zeros((2, 2))], [1.0])
        hams = hamiltonians_elliptic(pt)
        assert abs(hams.h0 - np.sum(p ** 2)) < 1e-13
        assert np.abs(hams.h).max() == 0.0
        assert np.abs(hams.k).max() == 0.0
        assert np.abs(hams.m).max() == 0.0

    def test_single_site_formulas(self):
        rng = np.random.default_rng(17)
        pt = random_elliptic_point(2, 1, 0.3, rng)
        hams = hamiltonians_elliptic(pt)
        eta = pt.eta[0]
        shifted = pt.p - 0.5 * pt.charges()
        h1 = 2.0 * sum(shifted[a] * eta[a, a] for a in range(2))
        assert abs(hams.h[0] - h1) < 1e-12 * max(abs(h1), 1.0)
        h0 = np.sum(shifted ** 2) - 2.0 * eta[0, 1] * eta[1, 0] \
            * pt.ctx.wp(pt.t[0] / pt.t[1])
        assert abs(hams.h0 - h0) < 1e-12 * max(abs(h0), 1.0)

    def test_zero_charges_kill_quadratic_term(self):
        rng = np.random.default_rng(18)
        pt = random_elliptic_point(2, 2, 0.3, rng, moment=True)
        hams = hamiltonians_elliptic(pt)
        assert np.abs(hams.k).max() < 1e-12

    @pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (2, 3)])
    def test_trace_expansion_residual(self, n, N):
        rng = np.random.default_rng(hash((19, n, N)) % 2 ** 32)
        pt = random_elliptic_point(n, N, 0.3, rng)
        hams = hamiltonians_elliptic(pt)
        scale = max(abs(hams.h0), np.abs(hams.h).max(), 1.0)
        for _ in range(20):
            z = np.exp(1j * rng.uniform(0, 2 * np.pi)) \
                * rng.uniform(0.75, 1.35)
            assert trace_expansion(pt, z, hams) < 1e-9 * scale

    def test_trace_coefficients_against_least_squares(self):
        # dual route: fit tr xbar(z)^2 on the basis
        # {1, u_i, u_i^2, wp_i} over many z and compare coefficients
        rng = np.random.default_rng(20)
        pt = random_elliptic_point(2, 2, 0.3, rng)
        ctx = pt.ctx
        N = pt.nsites
        tp1sq = ctx.theta_prime_one() ** 2
        zvals = [np.exp(1j * rng.uniform(0, 2 * np.pi))
                 * rng.uniform(0.7, 1.4) for _ in range(40)]
        rows, vals = [], []
        for z in zvals:
            row = [1.0]
            for i in range(N):
                row.append(ctx.theta_ratio(z / pt.sites[i]))
            for i in range(N):
                row.append(ctx.theta_ratio(z / pt.sites[i]) ** 2)
            for i in range(N):
                row.append(ctx.wp(z / pt.sites[i]))
            rows.append(row)
            xi = lax_elliptic(pt, z)
            vals.append(tp1sq * np.trace(xi @ xi))
        coeffs, *_ = np.linalg.lstsq(np.array(rows), np.array(vals),
                                     rcond=None)
        hams = hamiltonians_elliptic(pt)
        packed = np.concatenate([[hams.h0], hams.h, hams.k, hams.m])
        assert np.abs(coeffs - packed).max() < 1e-8 * np.abs(packed).max()

    def test_involutivity_on_moment_surface(self):
        rng = np.random.default_rng(21)
        for (n, N) in [(2, 2), (3, 2)]:
            pt = random_elliptic_point(n, N, 0.3, rng, moment=True)

            def h0(q):
                return hamiltonians_elliptic(q).h0

            funs = [h0] + [
                (lambda q, i=i: hamiltonians_elliptic(q).h[i])
                for i in range(N)]
            scale = max(abs(f(pt)) for f in funs)
            for i in range(len(funs)):
                for j in range(i + 1, len(funs)):
                    val = poisson_bracket(funs[i], funs[j], pt)
                    assert abs(val) < 1e-8 * scale ** 2 + 1e-8


    def test_brackets_at_close_twists(self):
        # t_1/t_2 lies 0.14 from 1, where wp(t_a/t_b) has its double pole;
        # an 8-node Cauchy ring left {h0, h_i} at 6.8e-8 of the scale here
        pt = close_twist_point()
        hams = hamiltonians_elliptic(pt)
        scale = max(abs(hams.h0), max(abs(h) for h in hams.h), 1.0)
        for i in range(pt.nsites):
            val = poisson_bracket(lambda q: hamiltonians_elliptic(q).h0,
                                  lambda q: hamiltonians_elliptic(q).h[i], pt)
            assert abs(val) / scale < 1e-8


class TestFamilyGradients:
    @staticmethod
    def assert_matches_ring(pt):
        exact = hamiltonian_family.gradients(pt)
        ring = _gradients(hamiltonian_family, pt)
        for got, want in zip(exact, ring):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-9 * max(np.abs(want).max(),
                                                          1.0)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5 + 0.1j])
    def test_closed_form_matches_ring(self, q):
        rng = np.random.default_rng(25)
        for n in (2, 3):
            for N in (1, 2, 3):
                for moment in (False, True):
                    self.assert_matches_ring(
                        random_elliptic_point(n, N, q, rng, moment=moment))

    def test_closed_form_at_close_twists(self):
        self.assert_matches_ring(close_twist_point())

    def test_family_is_homogeneous_quadratic(self):
        rng = np.random.default_rng(26)
        pt = random_elliptic_point(3, 2, 0.3, rng)
        s = 0.7 - 1.3j
        scaled = pt.copy_with(p=s * pt.p, eta=[s * m for m in pt.eta])
        fam = hamiltonian_family(pt)
        assert np.abs(hamiltonian_family(scaled) - s * s * fam).max() \
            < 1e-14 * np.abs(s * s * fam).max()


class TestDegeneration:
    def test_lax_approaches_rational_kernels(self):
        # at q -> 0 the kernels become K_t(x) = (1-tx)/((1-t)(1-x)) and
        # u(x) = -x/(1-x); the Lax entries converge at rate O(q)
        rng = np.random.default_rng(22)
        n, N = 2, 2
        t = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        sites = np.exp(1j * rng.uniform(0, 2 * np.pi, N)) \
            * np.array([0.8, 1.25])
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
               for _ in range(N)]
        z = 1.43 + 0.2j

        def limit_entry(a, b):
            if a == b:
                val = p[a]
                for i in range(N):
                    x = z / sites[i]
                    val += eta[i][a, a] * (-x / (1.0 - x) - 0.5)
                return -val  # theta'(1) -> -1 as q -> 0
            val = 0.0
            for i in range(N):
                T = t[a] ** (-1) * t[b]
                x = z / sites[i]
                val += eta[i][a, b] * (1 - T * x) / ((1 - T) * (1 - x))
            return val

        target = np.array([[limit_entry(a, b) for b in range(n)]
                           for a in range(n)])
        prev = None
        for q in [0.1, 0.05, 0.025, 0.0125]:
            pt = EllipticPhasePoint(ThetaContext(q), p, t, eta, sites)
            err = np.abs(lax_elliptic(pt, z) - target).max()
            if prev is not None:
                assert err < 0.7 * prev
            prev = err
        assert prev < 0.15

    def test_bracket_smallness_along_family(self):
        rng = np.random.default_rng(23)
        n, N = 2, 2
        t = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        sites = np.exp(1j * rng.uniform(0, 2 * np.pi, N)) \
            * np.array([0.85, 1.2])
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
               for _ in range(N)]
        total = sum(eta)
        for a in range(n):
            eta[-1][a, a] -= total[a, a]
        for q in [0.3, 0.1, 0.03]:
            pt = EllipticPhasePoint(ThetaContext(q), p, t, eta, sites)

            def h0(pp):
                return hamiltonians_elliptic(pp).h0

            def h1(pp):
                return hamiltonians_elliptic(pp).h[0]

            scale = max(abs(h0(pt)), abs(h1(pt)))
            assert abs(poisson_bracket(h0, h1, pt)) < 1e-8 * scale ** 2


def test_random_point_gives_up_after_max_draws(lattice_rng):
    with pytest.raises(PoleError, match="in %d draws" % MAX_DRAWS):
        random_elliptic_point(2, 2, 0.3, lattice_rng)
    # four uniform calls per draw
    assert lattice_rng.draws == 4 * MAX_DRAWS
