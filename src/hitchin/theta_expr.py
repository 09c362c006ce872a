"""Symbolic expressions in one multiplicative variable t, closed under the
Euler derivative D = t d/dt, in a canonical sparse-polynomial form.

A generator is a tuple (kind, c, m, order): ("t", 1, 1, 0) is t itself,
("theta", c, m, 0) is theta(c t^m), ("u", c, m, 0) the logarithmic
derivative u(c t^m) = theta_dot/theta, ("wp", c, m, k) the k-th Euler
derivative of the normalized Weierstrass function wp(ln(c t^m)), and
("wpconst", 1, 0, 0) and ("tp1", 1, 0, 0) the q-dependent constants
c(q) of wp and theta'(1).  A monomial is a tuple of (generator, nonzero
integer power) pairs sorted by their text, so products are taken in one
fixed order whatever the interpreter's string hash seed.  An expression
is a dict {monomial: coefficient}, like monomials merged and zero
coefficients dropped; coefficients are numbers, or constant matrices in
elliptic_quantum.  D acts by the product rule over the generators of a
monomial, with

    D t = t,   D theta(c t^m) = m u(c t^m) theta(c t^m),
    D u(c t^m) = m (wp_const - wp(ln c t^m)),   D wp^(k) = m wp^(k+1).

Expressions are evaluated against a ThetaContext at a numeric point, with
one context call per distinct generator.
"""

import math
import numbers
import operator

import numpy as np

_T = ("t", 1 + 0j, 1, 0)


def _mono_mul(a, b):
    """Product of two monomials: the powers of shared generators add."""
    powers = dict(a)
    for g, p in b:
        powers[g] = powers.get(g, 0) + p
    return tuple(sorted(((g, p) for g, p in powers.items() if p), key=str))


def _accumulate(terms, pairs):
    """Add (monomial, coefficient) pairs into the dict terms, dropping
    every monomial whose coefficient ends up zero."""
    for mono, c in pairs:
        if mono in terms:
            c = terms[mono] + c
        if np.any(c):
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return terms


def _generator_euler(g):
    """D g as (monomial, coefficient) pairs; the factors of a monomial
    need not be sorted here."""
    kind, c, m, order = g
    if m == 0:
        return ()
    if kind == "t":
        return [(((g, 1),), m)]
    if kind == "theta":
        return [(((("u", c, m, 0), 1), (g, 1)), m)]
    if kind == "u":
        return [(((("wpconst", 1 + 0j, 0, 0), 1),), m),
                (((("wp", c, m, 0), 1),), -m)]
    return [(((("wp", c, m, order + 1), 1),), m)]


def _generator_value(g, ctx, t):
    kind, c, m, order = g
    if kind == "wpconst":
        return ctx.wp_const()
    if kind == "tp1":
        return ctx.theta_prime_one()
    arg = c * t ** m
    if kind == "t":
        return arg
    if kind == "theta":
        return ctx.theta(arg)
    if kind == "u":
        return ctx.theta_ratio(arg)
    return ctx.wp(arg) if order == 0 else ctx.wp_deriv(arg, order)


def _wrap(v):
    if isinstance(v, ThetaExpr):
        return v
    if isinstance(v, numbers.Number):
        return ThetaExpr.const(v)
    raise TypeError("cannot interpret %r as a theta expression" % (v,))


class ThetaExpr:
    """Sparse polynomial in theta generators, stored as terms =
    {monomial: coefficient} (see the module docstring).  Sums and
    products merge like monomials; division is only by a single-term
    expression, which is a Laurent monomial."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(v):
        return ThetaExpr({(): complex(v)} if v else {})

    @staticmethod
    def _generator(kind, c=1.0, m=0, order=0):
        return ThetaExpr({(((kind, complex(c), int(m), int(order)), 1),): 1.0})

    @staticmethod
    def monomial(c=1.0, m=1):
        """c t^m."""
        return ThetaExpr.const(c) * ThetaExpr({((_T, m),) if m else (): 1.0})

    @staticmethod
    def theta(c=1.0, m=1):
        return ThetaExpr._generator("theta", c, m)

    @staticmethod
    def u(c=1.0, m=1):
        return ThetaExpr._generator("u", c, m)

    @staticmethod
    def wp(c=1.0, m=1, order=0):
        return ThetaExpr._generator("wp", c, m, order)

    @staticmethod
    def wp_const():
        return ThetaExpr._generator("wpconst")

    @staticmethod
    def theta_prime_one():
        return ThetaExpr._generator("tp1")

    # -- algebra -------------------------------------------------------
    def __add__(self, other):
        return type(self)(_accumulate(dict(self.terms),
                                      _wrap(other).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def _product(self, other, mul):
        """Product of two expressions, the coefficients multiplied by mul."""
        other = _wrap(other)
        return type(self)(_accumulate({}, (
            (_mono_mul(ma, mb), mul(ca, cb))
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items())))

    def __mul__(self, other):
        return self._product(other, operator.mul)

    __rmul__ = __mul__

    def _reciprocal(self):
        if len(self.terms) != 1:
            raise ValueError("can only divide by a single-term expression")
        (mono, c), = self.terms.items()
        return ThetaExpr({tuple((g, -p) for g, p in mono): 1.0 / c})

    def __truediv__(self, other):
        return self * _wrap(other)._reciprocal()

    def __rtruediv__(self, other):
        return _wrap(other) * self._reciprocal()

    # -- Euler derivative ----------------------------------------------
    def euler(self):
        """Derivative t d/dt as a new expression: the product rule over
        the generators of each monomial."""
        return type(self)(_accumulate({}, (
            (_mono_mul(mono, dmono + ((g, -1),)), c * (p * dc))
            for mono, c in self.terms.items()
            for g, p in mono
            for dmono, dc in _generator_euler(g))))

    # -- evaluation ----------------------------------------------------
    def __call__(self, ctx, t):
        """Value at t, with one context call per distinct generator."""
        gens = dict.fromkeys(g for mono in self.terms for g, _ in mono)
        vals = {g: _generator_value(g, ctx, t) for g in gens}
        total = 0
        for mono, c in self.terms.items():
            total = total + c * math.prod(vals[g] ** p for g, p in mono)
        return total


def kernel_expr(c_t=1.0, m_t=1, x=1.0):
    """Theta kernel K(c t^m, x) = theta(c t^m x)/(theta(c t^m) theta(x))
    as an expression in t, with x a numeric parameter."""
    num = ThetaExpr.theta(c_t * x, m_t)
    den = ThetaExpr.theta(c_t, m_t) * ThetaExpr.theta(x, 0)
    return num / den


def sigma_expr(c_t=1.0, m_t=1, x=1.0):
    """theta'(1) K(c t^m, x) as an expression in t."""
    return ThetaExpr.theta_prime_one() * kernel_expr(c_t, m_t, x)


def euler_fd_residual(expr, ctx, t, h=1e-5):
    """O(h^2) check of the symbolic Euler derivative at a point."""
    exact = expr.euler()(ctx, t)
    plus = expr(ctx, t * (1.0 + h))
    minus = expr(ctx, t * (1.0 - h))
    approx = (plus - minus) / (2.0 * h)
    return abs(exact - approx)
