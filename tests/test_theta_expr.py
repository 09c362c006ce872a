"""Tests for the symbolic theta-expression layer."""

import numpy as np
import pytest

from hitchin.theta import ThetaContext
from hitchin.theta_expr import (
    ThetaExpr,
    euler_fd_residual,
    kernel_expr,
    sigma_expr,
)

CTX = ThetaContext(0.3)
POINTS = [1.13 + 0.21j, 0.77 - 0.35j, 1.9 + 0.1j]


def sample_exprs():
    return [
        ThetaExpr.const(2.5 - 1.0j),
        ThetaExpr.theta(0.9 + 0.1j, 1),
        ThetaExpr.theta(2.0, -2),
        ThetaExpr.u(1.0, 1),
        ThetaExpr.u(0.7j, 3),
        ThetaExpr.wp(1.2, 1),
        -ThetaExpr.u(1.2, 2, 2),
        ThetaExpr.wp_const(),
        ThetaExpr.theta_prime_one(),
        kernel_expr(1.0, 2, 0.8 + 0.3j),
        sigma_expr(0.5, 1, 1.4 - 0.2j),
        (ThetaExpr.u(1.0, 2) - ThetaExpr.u(1.3, 0))
        * ThetaExpr.theta(1.1, 1),
        ThetaExpr.theta(1.3, 1) / ThetaExpr.theta(0.8, 2),
    ]


class TestEvaluation:
    def test_generators_match_context(self):
        t = 1.13 + 0.21j
        assert ThetaExpr.theta(2.0, 1)(CTX, t) == CTX.theta(2.0 * t)
        assert ThetaExpr.u(1.0, 2)(CTX, t) == CTX.theta_ratio(t * t)
        assert ThetaExpr.wp(1.0, 1)(CTX, t) == CTX.wp(t)
        assert ThetaExpr.wp_const()(CTX, t) == CTX.wp_const()
        assert ThetaExpr.theta_prime_one()(CTX, t) == CTX.theta_prime_one()

    @pytest.mark.parametrize("k", range(4))
    def test_u_ladder_matches_context(self, k):
        for c, m in ((1.0, 1), (0.7j, 3), (1.3, -2)):
            for t in POINTS:
                assert ThetaExpr.u(c, m, k)(CTX, t) \
                    == CTX.theta_ratio(c * t ** m, k)

    def test_arithmetic(self):
        t = 0.9 - 0.4j
        a = ThetaExpr.theta(1.0, 1)
        b = ThetaExpr.u(1.3, 2)
        av, bv = a(CTX, t), b(CTX, t)
        assert np.isclose((a + b)(CTX, t), av + bv)
        assert np.isclose((a - b)(CTX, t), av - bv)
        assert np.isclose((a * b)(CTX, t), av * bv)
        assert np.isclose((a / b)(CTX, t), av / bv)
        assert np.isclose((2.0 * a)(CTX, t), 2.0 * av)
        assert np.isclose((1.0 - a)(CTX, t), 1.0 - av)
        assert np.isclose((1.0 / a)(CTX, t), 1.0 / av)
        assert np.isclose((-a)(CTX, t), -av)

    def test_scalar_wrapping_rejects_garbage(self):
        with pytest.raises(TypeError):
            ThetaExpr.const(1.0) + "nope"

    def test_kernel_expr_value(self):
        t, x = 1.2 + 0.3j, 0.8 - 0.1j
        expect = CTX.theta(t * x) / (CTX.theta(t) * CTX.theta(x))
        assert np.isclose(kernel_expr(1.0, 1, x)(CTX, t), expect)

    def test_sigma_expr_value(self):
        t, x = 1.2 + 0.3j, 0.8 - 0.1j
        assert np.isclose(sigma_expr(1.0, 2, x)(CTX, t),
                          CTX.sigma(t * t, x))


class TestEulerDerivative:
    @pytest.mark.parametrize("idx", range(len(sample_exprs())))
    def test_finite_difference(self, idx):
        expr = sample_exprs()[idx]
        for t in POINTS:
            scale = max(abs(expr.euler()(CTX, t)), 1.0)
            assert euler_fd_residual(expr, CTX, t) < 1e-7 * scale

    def test_second_derivative(self):
        expr = kernel_expr(1.0, 1, 0.8 + 0.3j) * ThetaExpr.u(1.0, 1)
        d1 = expr.euler()
        for t in POINTS:
            scale = max(abs(d1.euler()(CTX, t)), 1.0)
            assert euler_fd_residual(d1, CTX, t) < 1e-6 * scale

    def test_theta_log_derivative(self):
        # D theta(t) = u(t) theta(t)
        t = 1.13 + 0.21j
        lhs = ThetaExpr.theta(1.0, 1).euler()(CTX, t)
        rhs = CTX.theta_ratio(t) * CTX.theta(t)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("k", range(4))
    def test_u_ladder_is_one_step(self, k):
        # D u^(k)(c t^m) = m u^(k+1)(c t^m), one term
        for c, m in ((1.0, 1), (0.7j, 3), (1.3, -2)):
            assert ThetaExpr.u(c, m, k).euler().terms \
                == (m * ThetaExpr.u(c, m, k + 1)).terms

    def test_constants_have_zero_derivative(self):
        for expr in (ThetaExpr.const(3.0), ThetaExpr.wp_const(),
                     ThetaExpr.theta_prime_one()):
            assert expr.euler()(CTX, 1.1 + 0.2j) == 0.0


class TestKernelIdentities:
    def test_sigma_derivative_identity(self):
        # D sigma_{t^2}(x) = 2 (u(t^2 x) - u(t^2)) sigma_{t^2}(x)
        x = 0.8 + 0.3j
        expr = sigma_expr(1.0, 2, x)
        for t in POINTS:
            lhs = expr.euler()(CTX, t)
            t2 = t * t
            rhs = 2.0 * (CTX.theta_ratio(t2 * x) - CTX.theta_ratio(t2)) \
                * CTX.sigma(t2, x)
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_kernel_quasi_periodicity(self):
        # K(q t, x) = x^-1 K(t, x)
        x = 1.4 - 0.2j
        for t in POINTS:
            lhs = kernel_expr(CTX.q, 1, x)(CTX, t)
            rhs = kernel_expr(1.0, 1, x)(CTX, t) / x
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestCanonicalForm:
    def test_difference_with_itself_has_no_terms(self):
        a = kernel_expr(1.0, 2, 0.8 + 0.3j) * ThetaExpr.u(1.0, 1) \
            + ThetaExpr.wp(1.2, 1) - 2.5
        assert (a - a).terms == {}

    def test_quotient_by_itself_is_one(self):
        th = ThetaExpr.theta(0.9 + 0.1j, 2)
        assert (th / th).terms == {(): 1.0}

    def test_like_terms_merge(self):
        u = ThetaExpr.u(1.0, 2)
        assert len((u + u).terms) == 1
        assert (u + u).terms == (2.0 * u).terms

    def test_division_by_a_sum_rejected(self):
        th = ThetaExpr.theta(1.0, 1)
        with pytest.raises(ValueError):
            th / (th + 1.0)

    @pytest.mark.parametrize("f", [
        ThetaExpr.theta(1.2, 1),
        sigma_expr(1.0, 2, 0.8 + 0.3j),
        kernel_expr(1.0, -2, 0.7 - 0.2j) * ThetaExpr.u(1.0, 2),
    ], ids=["theta", "sigma", "kernel_u"])
    def test_commutator_with_derivative_is_euler_termwise(self, f):
        # [D, f] = (D f): the same monomials with the same coefficients
        from hitchin.elliptic_quantum import EulerDiffOp, commutator
        mat = np.array([[1.0, 2.0], [0.5, -1.0]])
        comm = commutator(EulerDiffOp.derivative(2),
                          EulerDiffOp.function(f, mat))
        target = EulerDiffOp.function(f.euler(), mat)
        assert list(comm.coeffs) == [0]
        got, want = comm.coeffs[0].terms, target.coeffs[0].terms
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[mono], want[mono]) for mono in want)

    def test_two_site_commutator_term_count(self):
        # [H0 + Q, H_1] for two spin-1/2 sites at twist level 2: 582
        # unmerged (expression, matrix) terms before like terms were
        # collected
        from hitchin.elliptic_quantum import (
            QuantumEllipticParams, commutator, ordering_counterterm,
            quantum_hamiltonians)
        par = QuantumEllipticParams(CTX, 2, [1, 1],
                                    np.array([1.0, 1.7 + 0.3j]))
        h0, his, _, _ = quantum_hamiltonians(par)
        comm = commutator(h0 + ordering_counterterm(par), his[0])
        assert sum(len(cs.terms) for cs in comm.coeffs.values()) <= 100
