"""Acceptance suite: the ten headline guarantees, one pass/fail line each.

Each test prints a single summary line with the measured residual and its
bound, then asserts.  Run with `pytest -s tests/test_acceptance.py` to see
the lines for passing criteria too.
"""

import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from hitchin import cli
from hitchin import elliptic_classical as ec
from hitchin import elliptic_quantum as eq
from hitchin import rational_classical as rc
from hitchin import rational_quantum as rq
from hitchin import theta as th
from hitchin.lie import TensorRepSpace, matrix_units
from hitchin.theta import PoleError, ThetaContext


def report(num, name, value, bound):
    ok = value < bound
    print("criterion %2d  %-42s %11.3e < %8.1e  %s"
          % (num, name, value, bound, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s): %.3e not < %.1e" % (num, name, value,
                                                       bound)


def annulus(rng, lo=0.8, hi=1.3):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(lo, hi)


def _away_from_lattice(q, values, margin=0.05):
    """True when every value keeps a relative margin from the lattice q^Z,
    so that no theta factor in an identity is artificially small."""
    for v in values:
        k0 = np.log(abs(v)) / np.log(abs(q))
        for k in range(int(np.floor(k0)) - 1, int(np.ceil(k0)) + 2):
            if abs(v - q ** k) < margin * abs(q) ** k:
                return False
    return True


def test_01_theta_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for q in (0.1, 0.3, 0.5 + 0.1j):
        ctx = ThetaContext(q)
        done = 0
        while done < 100:
            z, w, t, tp = (annulus(rng) for _ in range(4))
            zeta = annulus(rng)
            combos = (z, w, t, tp, zeta, z / w, z * t, w * t, z / t,
                      w / t, t * tp, z * t * tp, w * t * tp, z / (w * t),
                      t * z / w, z * zeta, w * zeta, z * zeta / (w * t),
                      t * zeta * z / w)
            if not _away_from_lattice(q, combos):
                continue
            try:
                worst = max(
                    worst,
                    th.functional_equation_residual(ctx, z),
                    th.inversion_residual(ctx, z),
                    th.shift_residual(ctx, z),
                    th.addition_residual(ctx, z, w, t, tp),
                    th.mixed_derivative_residual(ctx, z, w, t),
                    th.quasi_invariance_residual(ctx, z, w, t, zeta),
                )
            except PoleError:
                continue
            done += 1
    report(1, "theta identities, 100 pts x 3 moduli", worst, 1e-10)
    assert time.time() - start < 5.0


def test_02_rational_involutivity(ring_observable):
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    oracle = 0.0
    oracle_pts = 0
    for n, N in ((2, 3), (2, 4), (3, 3)):
        for trial in range(20):
            pt = rc.random_nilpotent_point(n, N, rng)
            coeffs = rc.HitchinCoefficients(pt, list(range(2, n + 1)))
            obs = [rc.HitchinObservable(pt, d, a)
                   for d, a in coeffs.keys()]
            scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
            for i, f in enumerate(obs):
                for g in obs[i + 1:]:
                    worst = max(worst,
                                abs(rc.kk_bracket(f, g, pt)) / scale)
            if oracle_pts < 3:
                f, g = obs[0], obs[-1]
                fd = rc.kk_bracket(
                    ring_observable(f.value, rc._numerical_gradients),
                    ring_observable(g.value, rc._numerical_gradients), pt)
                oracle = max(oracle, abs(rc.kk_bracket(f, g, pt) - fd))
                oracle_pts += 1
    report(2, "rational involutivity, 20 pts x 3 shapes",
           max(worst / 1e-8, oracle / 1e-6), 1.0)
    assert time.time() - start < 30.0


def test_03_flow_conservation():
    start = time.time()
    rng = np.random.default_rng(113)
    pt = rc.random_nilpotent_point(2, 3, rng)
    coeffs = rc.HitchinCoefficients(pt, [2])
    scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
    zstar = 4.0 + 1.5j
    before = np.sort_complex(np.linalg.eigvals(rc.lax_rational(pt, zstar)))
    drift = 0.0
    eig = 0.0
    for key in coeffs.keys():
        traj, dmax = rc.integrate_flow(pt, key, T=1.0, dt=1e-3)
        drift = max(drift, dmax / scale)
        after = np.sort_complex(
            np.linalg.eigvals(rc.lax_rational(traj[-1][1], zstar)))
        eig = max(eig, np.max(np.abs(after - before)))
    # observed convergence order from halving the step
    key = (2, (1, 0, 0))
    ref = rc.integrate_flow(pt, key, T=0.5, dt=0.5 / 256)[0][-1][1]
    errs = []
    for steps in (8, 16):
        end = rc.integrate_flow(pt, key, T=0.5, dt=0.5 / steps)[0][-1][1]
        errs.append(max(np.linalg.norm(a - b)
                        for a, b in zip(end.eta, ref.eta)))
    order = np.log2(errs[0] / errs[1])
    report(3, "flow conservation + order %.2f" % order,
           max(drift / 1e-8, eig / 1e-7, 3.7 / max(order, 1e-9)), 1.0)
    assert time.time() - start < 60.0


def test_04_quantum_gaudin():
    start = time.time()
    worst = 0.0
    for weights in ((1, 1, 1), (2, 1, 1), (1, 1, 1, 1)):
        sites = [Fraction(2 * i + 1) for i in range(len(weights))]
        hams = rq.gaudin_residues_exact(weights, sites)
        total = sum(hams)
        assert all(v == 0 for v in total.ravel())        # exact sum rule
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                comm = hams[i] @ hams[j] - hams[j] @ hams[i]
                assert all(v == 0 for v in comm.ravel())  # exact commutators
        # global invariance on the floating-point path
        system = rq.GaudinSystem(TensorRepSpace(list(weights)),
                                 [complex(s) for s in sites])
        fhams, _ = rq.gaudin_residues(system)
        for e in matrix_units(2).reshape(4, 2, 2):
            tot = sum(system.rep_embed(e, i)
                      for i in range(1, len(weights) + 1))
            for h in fhams:
                worst = max(worst, rq.commutator_norm(h, tot)
                            / max(np.linalg.norm(h), 1.0))
    report(4, "Gaudin commutators exact + invariance", worst, 1e-12)
    assert time.time() - start < 10.0


def test_05_s_polynomial_table():
    bad = 0
    for n in range(1, 7):
        s = rq.s_polynomials(n, 20)
        if s[1] != Fraction(n, 2) or s[2] != Fraction(-2 * n, 3) \
                or s[3] != Fraction(n * (n + 6), 8):
            bad += 1
        for p in range(2, 19):
            lhs = (p + 2) * s[p + 1]
            rhs = (n - p) * s[p - 1] - 2 * (p + 1) * s[p]
            if lhs != rhs:
                bad += 1
    report(5, "s_p recursion exact, p<=20, n<=6", float(bad), 0.5)


def test_06_higher_gaudin_average():
    start = time.time()
    sys3 = rq.GaudinSystem(TensorRepSpace([1, 1, 1]), [0.0, 1.0, -1.0])
    H = rq.eigen_h(2)
    c0 = np.trace(H @ H) / 3.0
    zeta = 3.1 - 0.8j
    quad = np.asarray(rq.gaudin_quadratic(sys3, zeta))
    sampler = rq.HaarSampler(2, seed=106)
    means, ses = rq.haar_average_power(sys3, H, 2, [zeta], sampler,
                                       nsamples=20000, batches=10)
    qnorm = np.linalg.norm(quad)
    c_hat = np.vdot(quad, means[0]) / qnorm ** 2
    dev2 = abs(c_hat - c0) / max(3.0 * ses[0] / qnorm, 1e-15)
    # l = 3 pencil commutes with the quadratic family within 3 SE
    pencil = rq.higher_gaudin(sys3, H, 3, rq.HaarSampler(2, seed=107),
                              nsamples=100000, batches=10)
    hams, _ = rq.gaudin_residues(sys3)
    dev3 = 0.0
    for a, op in pencil.coeffs.items():
        for h in hams:
            bound = 3.0 * pencil.se[a] * 2.0 * np.linalg.norm(h) + 1e-12
            dev3 = max(dev3, rq.commutator_norm(op, h) / bound)
    # the exact (Weingarten) pencil reproduces MC within 3 SE
    exact = rq.higher_gaudin(sys3, H, 3)
    devq = 0.0
    for a, op in pencil.coeffs.items():
        bound = 3.0 * pencil.se[a] + 1e-12
        devq = max(devq, np.linalg.norm(op - exact.coeffs[a]) / bound)
    report(6, "higher Gaudin l=2/l=3 within 3 SE", max(dev2, dev3, devq),
           1.0)
    assert time.time() - start < 300.0


def test_07_elliptic_rmatrix_identity():
    start = time.time()
    rng = np.random.default_rng(107)
    worst = 0.0
    done = 0
    combos = [(q, n, N) for q in (0.1, 0.3) for n in (2, 3)
              for N in (1, 2, 3)]
    while done < 50:
        q, n, N = combos[done % len(combos)]
        try:
            pt = ec.random_elliptic_point(n, N, q, rng,
                                          moment=(done % 2 == 1))
            z, w = annulus(rng), annulus(rng)
            if abs(z / w - 1.0) < 0.05:
                w *= 1.2
            worst = max(worst, ec.verify_dynamical_rmatrix(pt, z, w))
        except PoleError:
            continue
        done += 1
    report(7, "dynamical r-matrix identity, 50 pts", worst, 1e-9)
    assert time.time() - start < 60.0


def test_08_elliptic_hamiltonians():
    start = time.time()
    rng = np.random.default_rng(108)
    trace_worst = 0.0
    for _ in range(10):
        pt = ec.random_elliptic_point(2, 2, 0.3, rng)
        hams = ec.hamiltonians_elliptic(pt)
        z = annulus(rng)
        hscale = max(abs(hams.h0), 1.0)
        trace_worst = max(trace_worst,
                          ec.trace_expansion(pt, z, hams) / hscale)
    bracket_worst = 0.0
    for trial in range(2):
        pt = ec.random_elliptic_point(2, 2, 0.3, rng, moment=True)
        hams = ec.hamiltonians_elliptic(pt)
        hscale = max(abs(hams.h0), max(abs(h) for h in hams.h), 1.0)
        fam = ec.hamiltonian_family
        brackets = ec.poisson_bracket(fam, fam, pt)
        pairs = np.triu_indices(pt.nsites + 1, 1)
        bracket_worst = max(bracket_worst,
                            np.abs(brackets[pairs]).max() / hscale)
    report(8, "trace expansion + involutive brackets",
           max(trace_worst / 1e-9, bracket_worst / 1e-8), 1.0)
    assert time.time() - start < 60.0


def test_09_quantum_elliptic_gl2():
    start = time.time()
    rng = np.random.default_rng(109)
    ctx = ThetaContext(0.3)
    comm_worst = 0.0
    sym_worst = 0.0
    inv_worst = 0.0
    for weights, sites in (([2], np.array([1.0])),
                           ([1, 1], np.array([1.0, 1.7 + 0.3j]))):
        for k in (0, 2):
            params = eq.QuantumEllipticParams(ctx, k, weights, sites)
            ts = [annulus(rng, 0.85, 1.2) for _ in range(10)]
            comm_worst = max(comm_worst, eq.check_reduced_commutativity(
                params, ts, [-2, -1, 0, 1, 2]))
            sym_worst = max(sym_worst,
                            eq.symbol_residual(params, rng, samples=20))
            z, t = annulus(rng), annulus(rng, 0.85, 1.2)
            inv_worst = max(inv_worst,
                            eq.check_s2_invariance(params, z, t),
                            eq.check_lattice_invariance(params, z, t))
    report(9, "quantum gl2: commute/symbol/invariance",
           max(comm_worst / 1e-8, sym_worst / 1e-9, inv_worst / 1e-10), 1.0)
    assert time.time() - start < 120.0


def test_10_csv_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = Path(tmp) / "a", Path(tmp) / "b"
        for out in (out1, out2):
            code = cli.main(["theta-check", "--seed", "42", "--points",
                             "25", "--out", str(out)])
            assert code == 0
        same = (out1 / "theta-check.csv").read_bytes() == \
            (out2 / "theta-check.csv").read_bytes()
    report(10, "byte-identical CSV for equal seeds", 0.0 if same else 1.0,
           0.5)
