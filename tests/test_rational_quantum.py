"""Tests for quantum Gaudin operators and group-averaged higher operators."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hitchin import rational_quantum as rq
from hitchin.lie import TensorRepSpace, matrix_units
from hitchin.theta import PoleError


def make_system(weights, sites):
    return rq.GaudinSystem(TensorRepSpace(weights), sites)


def test_system_validation():
    with pytest.raises(ValueError):
        make_system([1, 1], [0.0, 1e-14])
    with pytest.raises(ValueError):
        make_system([1, 1], [0.0])


def test_two_site_antisymmetry():
    sys2 = make_system([1, 1], [0.0, 1.0])
    hams, _ = rq.gaudin_residues(sys2)
    assert np.linalg.norm(hams[0] + hams[1]) == 0.0


def test_omega_eigenvalues():
    # Omega on V1 (x) V1 has eigenvalues 1/2 (triplet), -3/2 (singlet)
    sys2 = make_system([1, 1], [0.0, 1.0])
    hams, _ = rq.gaudin_residues(sys2)
    omega = hams[0] * (0.0 - 1.0) / 2.0
    eigs = np.sort(np.linalg.eigvalsh(omega.real))
    assert np.allclose(eigs, [-1.5, 0.5, 0.5, 0.5])


def test_residues_sum_to_zero():
    rng = np.random.default_rng(0)
    sites = rng.normal(size=4) + 1j * rng.normal(size=4)
    hams, _ = rq.gaudin_residues(make_system([1, 1, 1, 1], sites))
    assert np.linalg.norm(sum(hams)) < 1e-12 * max(np.linalg.norm(h) for h in hams)


def test_residues_form_each_pair_once(monkeypatch):
    # Omega_ij = Omega_ji: six pairs at four sites, plus the four C_i
    calls = []
    casimir = rq.split_casimir

    def counted(a, b):
        calls.append(1)
        return casimir(a, b)

    monkeypatch.setattr(rq, "split_casimir", counted)
    rq.gaudin_residues(make_system([1, 1, 2, 1], [0.0, 1.0, -1.0, 2.0j]))
    assert len(calls) == 6 + 4
    rq.gaudin_residues_exact([1, 1, 2, 1], [0, 1, -1, Fraction(1, 2)])
    assert len(calls) == 10 + 6


def test_casimir_central():
    sys3 = make_system([2, 1, 1], [0.0, 1.0, -1.0])
    hams, cas = rq.gaudin_residues(sys3)
    for c in cas:
        for h in hams:
            assert rq.commutator_norm(c, h) < 1e-12


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_quadratic_commutativity(weights):
    rng = np.random.default_rng(1)
    # random rational sites
    sites = [Fraction(int(rng.integers(-9, 9)), int(rng.integers(1, 7)))
             for _ in range(len(weights))]
    while len(set(sites)) < len(weights):
        sites = [Fraction(int(rng.integers(-20, 20)), int(rng.integers(1, 7)))
                 for _ in range(len(weights))]
    hams, _ = rq.gaudin_residues(make_system(weights, [float(s) for s in sites]))
    scale = max(np.linalg.norm(h) for h in hams)
    for i, a in enumerate(hams):
        for b in hams[i + 1:]:
            assert rq.commutator_norm(a, b) < 1e-12 * scale ** 2


def test_exact_residues_match_float():
    sites = [Fraction(-3, 2), Fraction(1, 3), Fraction(4)]
    for weights in ([1, 2, 1], TensorRepSpace.defining(3, 3).reps):
        exact = rq.gaudin_residues_exact(weights, sites)
        hams, _ = rq.gaudin_residues(make_system(weights,
                                                 [float(s) for s in sites]))
        for ex, h in zip(exact, hams):
            assert all(type(v) is Fraction for v in ex.flat)
            assert np.abs(ex.astype(complex) - h).max() < 1e-12
        assert any(v != 0 for v in exact[0].flat)


def test_exact_residues_equal_per_entry_fraction_sum():
    # negative sites whose differences share factors: the common
    # denominator gives the same Fractions as adding 2 Omega_ij / (z_i - z_j)
    # entry by entry
    weights = [1, 2, 1]
    sites = [Fraction(-3, 4), Fraction(5, 6), Fraction(7, 2)]
    space = TensorRepSpace(weights)
    e, f, h = ([space.generator(g, i).real.astype(np.int64)
                for i in range(1, 4)] for g in "efh")
    exact = rq.gaudin_residues_exact(weights, sites)
    for i, ham in enumerate(exact):
        ref = np.full(ham.shape, Fraction(0), dtype=object)
        for j in range(3):
            if j != i:
                two_omega = h[i] @ h[j] + 2 * (e[i] @ f[j] + f[i] @ e[j])
                for idx, v in np.ndenumerate(two_omega):
                    ref[idx] += Fraction(int(v)) / (sites[i] - sites[j])
        assert all(type(v) is Fraction for v in ham.flat)
        assert all(a == b for a, b in zip(ham.flat, ref.flat))
    assert any(v.denominator > 1 for v in exact[0].flat)


@pytest.mark.parametrize("weights,sites", [([1, 1, 1], [0, 1]),
                                           ([1, 1], [0, 1, 2])])
def test_exact_residues_need_one_site_per_weight(weights, sites):
    with pytest.raises(ValueError):
        rq.gaudin_residues_exact(weights, sites)


def test_exact_residues_reject_repeated_sites():
    with pytest.raises(ValueError, match="distinct"):
        rq.gaudin_residues_exact([1, 1, 1], [Fraction(1, 2), Fraction(2, 4), 3])


def test_exact_commutativity():
    hams = rq.gaudin_residues_exact([1, 1, 1],
                                    [Fraction(0), Fraction(1), Fraction(1, 3)])
    for i, a in enumerate(hams):
        for b in hams[i + 1:]:
            c = a @ b - b @ a
            assert all(v == 0 for v in c.flat)
    total = hams[0] + hams[1] + hams[2]
    assert all(v == 0 for v in total.flat)


def test_global_invariance():
    sys3 = make_system([1, 1, 1], [0.0, 1.0, 0.5j])
    hams, _ = rq.gaudin_residues(sys3)
    for e in matrix_units(2).reshape(4, 2, 2):
        tot = sum(sys3.rep_embed(e, i) for i in range(1, 4))
        for h in hams:
            assert rq.commutator_norm(h, tot) < 1e-12 * np.linalg.norm(h)


def test_quadratic_pencil_matches_residues():
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -2.0])
    hams, cas = rq.gaudin_residues(sys3)
    zeta = 1.7 + 0.9j
    direct = rq.gaudin_quadratic(sys3, zeta)
    recon = sum(h / (zeta - z) for h, z in zip(hams, sys3.sites))
    recon += sum(c / (zeta - z) ** 2 for c, z in zip(cas, sys3.sites))
    assert np.linalg.norm(direct - recon) < 1e-12


def _kron_at(space, x, i):
    """x at site i (1-based) by an explicit Kronecker chain."""
    out = np.eye(1)
    for j, d in enumerate(space.site_dims, start=1):
        out = np.kron(out, x if j == i else np.eye(d))
    return out


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2, 1]),
                                   TensorRepSpace.defining(3, 2)],
                         ids=["sl2", "defining"])
def test_rep_embed_matches_kron(space):
    system = rq.GaudinSystem(space, list(range(space.nsites)))
    rng = np.random.default_rng(4)
    n = space.n
    for i, rep in enumerate(space.reps, start=1):
        for _ in range(20):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if "h" in rep:
                want = (x[0, 1] * _kron_at(space, rep["e"], i)
                        + x[1, 0] * _kron_at(space, rep["f"], i)
                        + x[0, 0] * _kron_at(space, rep["h"], i))
            else:
                want = _kron_at(space, x, i)
            assert np.array_equal(system.rep_embed(x, i), want)
    with pytest.raises(ValueError):
        system.rep_embed(np.eye(n + 1), 1)
    with pytest.raises(ValueError):
        system.rep_embed(np.eye(n), 0)
    with pytest.raises(ValueError):
        system.rep_embed(np.eye(n), space.nsites + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_s_recursion_exact(n):
    s = rq.s_polynomials(n, 20)
    assert s[0] == 0
    assert s[1] == Fraction(n, 2)
    assert s[2] == Fraction(-2 * n, 3)
    assert s[3] == Fraction(n * (n + 6), 8)
    for p in range(2, 19):
        lhs = (p + 2) * s[p + 1]
        rhs = (n - p) * s[p - 1] - 2 * (p + 1) * s[p]
        assert lhs == rhs


def test_eigen_h_n2():
    H = rq.eigen_h(2)
    assert np.allclose(np.diag(H), [1j, -1j])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eigen_h_roots(n):
    H = rq.eigen_h(n)
    roots = np.diag(H)
    assert abs(np.sum(roots)) < 1e-10  # trace = s_1 = 0
    s = rq.s_polynomials(n, max(n, 3))
    coeffs = [1.0] + [(-1) ** k * float(s[k - 1]) for k in range(1, n + 1)]
    for r in roots:
        assert abs(np.polyval(coeffs, r)) < 1e-12


def test_haar_sampler_moments():
    sam = rq.HaarSampler(3, seed=2)
    nsamples = 4000
    acc = np.zeros((3, 3, 3, 3), dtype=complex)
    kmean = np.zeros((3, 3), dtype=complex)
    for _ in range(nsamples):
        k = sam.sample()
        assert abs(np.linalg.det(k) - 1.0) < 1e-10
        assert np.linalg.norm(k @ k.conj().T - np.eye(3)) < 1e-10
        acc += np.einsum("ab,cd->abcd", k, k.conj())
        kmean += k
    acc /= nsamples
    want = np.einsum("ac,bd->abcd", np.eye(3), np.eye(3)) / 3.0
    se = 1.0 / np.sqrt(nsamples)
    assert np.abs(acc - want).max() < 3 * se


@pytest.mark.parametrize("space", [TensorRepSpace([1, 1, 1]),
                                   TensorRepSpace.defining(3, 3)],
                         ids=["sl2", "defining"])
def test_exact_average_l2_closed_form(space):
    # at l = 2 the average is tr(H^2)/(n^2 - 1) times the quadratic pencil
    system = rq.GaudinSystem(space, [0.0, 1.0, -1.0])
    H = rq.eigen_h(space.n)
    zetas = [2.7 + 0.6j, 3.1 - 0.8j]
    c = np.trace(H @ H) / (space.n ** 2 - 1)
    means = rq.exact_average_power(system, H, 2, zetas)
    assert means.shape == (2, space.dim, space.dim)
    for zeta, mean in zip(zetas, means):
        target = c * rq.gaudin_quadratic(system, zeta)
        assert np.linalg.norm(mean - target) < 1e-12


@pytest.mark.parametrize("space,l", [(TensorRepSpace([1, 2]), 1),
                                     (TensorRepSpace([1, 2]), 2),
                                     (TensorRepSpace([1, 2]), 3),
                                     (TensorRepSpace.defining(3, 2), 3)],
                         ids=["sl2-l1", "sl2-l2", "sl2-l3", "defining-l3"])
def test_exact_average_equals_direct_sum(space, l):
    # the contraction, one value of the first index at a time, is
    # sum over (k_1..k_l) of avg[k] J_k1 ... J_kl, for a general H (with
    # eigen_h the odd sl2 averages vanish)
    system = rq.GaudinSystem(space, [0.0, 1.0 + 0.5j])
    rng = np.random.default_rng(5)
    H = rng.normal(size=(space.n, space.n)) + 1j * rng.normal(
        size=(space.n, space.n))
    zetas = [2.7 + 0.6j, -3.0 + 0.4j]
    avg = rq._permutation_average(H, l)
    units = np.eye(space.n ** 2).reshape(space.n ** 2, space.n, space.n)
    J = system.current(units, zetas)
    got = rq.exact_average_power(system, H, l, zetas)
    for node, mean in enumerate(got):
        ref = np.zeros_like(mean)
        for ks in itertools.product(range(space.n ** 2), repeat=l):
            term = avg[ks] * np.eye(space.dim)
            for k in ks:
                term = term @ J[k, node]
            ref += term
        assert np.linalg.norm(mean - ref) < 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("space,l", [(TensorRepSpace.defining(3, 3), 2),
                                     (TensorRepSpace.defining(3, 3), 3),
                                     (TensorRepSpace([1, 1, 1]), 4)],
                         ids=["defining-l2", "defining-l3", "sl2-l4"])
def test_exact_average_matches_monte_carlo(space, l):
    # l = 4 > n = 2 is the case where the permutation operators are
    # dependent and the Gram matrix is singular
    system = rq.GaudinSystem(space, [0.0, 1.0, -1.0 + 0.5j])
    H = rq.eigen_h(space.n)
    zetas = [2.7 + 0.6j, -3.0 + 0.4j, 2.0 + 1.5j]
    exact = rq.exact_average_power(system, H, l, zetas)
    means, ses = rq.haar_average_power(system, H, l, zetas,
                                       rq.HaarSampler(space.n, seed=0), 2000)
    for e, m, se in zip(exact, means, ses):
        assert np.linalg.norm(m - e) < 4.0 * se


@pytest.mark.parametrize("weights", [[1, 1, 1], [2, 1], [1, 2, 1]])
def test_exact_l3_pencil_vanishes_for_sl2(weights):
    system = make_system(weights, [0.0, 1.0, -1.0][:len(weights)])
    pencil = rq.higher_gaudin(system, rq.eigen_h(2), 3)
    for op in pencil.coeffs.values():
        assert np.linalg.norm(op) < 1e-13


def test_pencil_se_matches_stream_spread():
    # the standard error of one stream estimates the scatter between
    # independent streams
    system = rq.GaudinSystem(TensorRepSpace.defining(3, 3), [0.0, 1.0, -1.0])
    H = rq.eigen_h(3)
    pencils = [rq.higher_gaudin(system, H, 3, rq.HaarSampler(3, seed=[9, k]),
                                nsamples=500) for k in range(6)]
    for a in pencils[0].coeffs:
        coeffs = [p.coeffs[a] for p in pencils]
        mean = sum(coeffs) / len(coeffs)
        spread = np.sqrt(sum(np.linalg.norm(c - mean) ** 2 for c in coeffs)
                         / (len(coeffs) - 1))
        for p in pencils:
            assert 0.5 * spread < p.se[a] < 2.0 * spread


def test_higher_gaudin_l1_vanishes():
    sys2 = make_system([1, 1], [0.0, 1.0])
    H = rq.eigen_h(2)
    pencil = rq.higher_gaudin(sys2, H, 1)
    for op in pencil.coeffs.values():
        assert np.linalg.norm(op) < 1e-10


def test_higher_gaudin_l2_proportional():
    # the l=2 group average equals trace(H^2)/(n^2-1) times the quadratic
    # pencil operator-to-operator (including the central double poles); the
    # multi-index coefficients agree after projecting both sides onto the
    # same simple-pole basis.
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -1.0])
    H = rq.eigen_h(2)
    c = np.trace(H @ H) / 3.0
    zeta = 3.1 - 0.8j
    means = rq.exact_average_power(sys3, H, 2, [zeta])
    assert np.linalg.norm(means[0] - c * rq.gaudin_quadratic(sys3, zeta)) < 1e-10

    pencil = rq.higher_gaudin(sys3, H, 2)
    nodes = pencil.plan.nodes
    keys = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    basis = np.array([[1.0 / (z - zi) for zi in sys3.sites] for z in nodes])
    weights = np.linalg.pinv(basis)
    vals = np.array([c * rq.gaudin_quadratic(sys3, z) for z in nodes])
    proj = np.tensordot(weights, vals, axes=(1, 0))
    for i, a in enumerate(keys):
        assert np.linalg.norm(pencil.coeffs[a] - proj[i]) < 1e-9


def test_higher_gaudin_l3_commutes_mc():
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -1.0])
    H = rq.eigen_h(2)
    sampler = rq.HaarSampler(2, seed=3)
    pencil = rq.higher_gaudin(sys3, H, 3, sampler, nsamples=4000, batches=10)
    hams, _ = rq.gaudin_residues(sys3)
    for a, op in pencil.coeffs.items():
        for i, h in enumerate(hams):
            norm = rq.commutator_norm(op, h)
            bound = 3 * pencil.se[a] * 2 * np.linalg.norm(h) + 1e-12
            assert norm < max(bound, 1e-3)


def test_commutator_norm_trivial():
    a = np.diag([1.0, 2.0])
    assert rq.commutator_norm(a, a) == 0.0
    assert rq.commutator_norm(np.eye(2), a) == 0.0
    with pytest.raises(ValueError):
        rq.commutator_norm(np.eye(2), np.eye(3))


# tr(P c_a) for the probe matrix P below and the coefficients c_a of the
# exact (Weingarten) pencil.  At l = 3 the pencil vanishes: sl2 has no cubic
# invariant, and tr H = tr H^3 = 0 make every moment of the average zero.
HIGHER_GAUDIN_REFERENCE = {
    2: {(0, 0, 1): -7.507226309427966 - 7.497535140433344j,
        (0, 1, 0): 7.507226309427949 - 5.835798192899974j,
        (1, 0, 0): 7.105427357601002e-15 + 13.333333333333316j},
    3: {(0, 0, 2): 0j, (0, 1, 1): 0j, (0, 2, 0): 0j,
        (1, 0, 1): 0j, (1, 1, 0): 0j, (2, 0, 0): 0j},
}


@pytest.mark.parametrize("l", [2, 3])
def test_higher_gaudin_reference_values(l):
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -1.0])
    dim = sys3.space.dim
    idx = np.arange(dim * dim).reshape(dim, dim)
    probe = (idx % 7 - 3) + 1j * (idx % 5 - 2)
    pencil = rq.higher_gaudin(sys3, rq.eigen_h(2), l)
    assert sorted(pencil.coeffs) == sorted(HIGHER_GAUDIN_REFERENCE[l])
    for a, ref in HIGHER_GAUDIN_REFERENCE[l].items():
        assert abs(np.trace(probe @ pencil.coeffs[a]) - ref) < 1e-13


def test_higher_gaudin_l3_vanishes_for_sl2():
    # sl2 has no cubic invariant, so the exact l = 3 pencil is zero
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -1.0])
    pencil = rq.higher_gaudin(sys3, rq.eigen_h(2), 3)
    assert pencil.nsamples == 0
    for op in pencil.coeffs.values():
        assert np.linalg.norm(op) < 1e-12


@pytest.mark.parametrize("nsamples,batches", [(100, 1), (3, 10), (0, 10)])
def test_haar_average_rejects_bad_batches(nsamples, batches):
    sys2 = make_system([1, 1], [0.0, 1.0])
    with pytest.raises(ValueError):
        rq.haar_average_power(sys2, rq.eigen_h(2), 2, [2.0],
                              rq.HaarSampler(2, seed=0), nsamples, batches)


def test_pencil_records_samples_drawn():
    sys2 = make_system([1, 1], [0.0, 1.0])
    sampler = rq.HaarSampler(2, seed=0)
    draws = []
    sample = sampler.sample

    def counted(count=None):
        k = sample(count)
        draws.append(1 if count is None else len(k))
        return k

    sampler.sample = counted
    pencil = rq.higher_gaudin(sys2, rq.eigen_h(2), 2, sampler,
                              nsamples=25, batches=4)
    assert pencil.nsamples == sum(draws) == 24
    # one sampler call per batch
    assert draws == [6] * 4


def _haar_reference(n, seed, count):
    """count draws of the one-matrix recipe: QR of a complex Gaussian, the
    phases of diag(R) moved into Q, the determinant divided out."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = (rng.normal(size=(n, n))
             + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diag(r)
        q = q * (d / np.abs(d))
        out.append(q / np.linalg.det(q) ** (1.0 / n))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
def test_haar_batch_equals_single_draws(n):
    batch = rq.HaarSampler(n, seed=11).sample(25)
    sampler = rq.HaarSampler(n, seed=11)
    single = np.array([sampler.sample() for _ in range(25)])
    assert batch.shape == (25, n, n)
    assert batch.tobytes() == single.tobytes()
    assert np.array_equal(single, _haar_reference(n, 11, 25))


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2]),
                                   TensorRepSpace.defining(3, 3)],
                         ids=["sl2", "defining"])
def test_current_stacked_equals_single_calls(space):
    sites = [0.0, 1.0, -0.5 + 0.7j][:space.nsites]
    system = rq.GaudinSystem(space, sites)
    rng = np.random.default_rng(12)
    n = space.n
    xs = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    us = np.array([[2.5 + 0.5j, -1.7], [3.1 - 0.8j, 0.4j]])
    stacked = system.current(xs, us)
    assert stacked.shape == (2, 3, 2, 2, space.dim, space.dim)
    single = np.array([[[[system.current(x, u) for u in row]
                         for row in us] for x in xs_row] for xs_row in xs])
    assert stacked.tobytes() == single.tobytes()
    # one element against the sum over sites with scalar denominators
    x, u = xs[1, 2], complex(us[1, 0])
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i, zi in enumerate(sites, start=1):
        ref += system.rep_embed(x, i) / (u - zi)
    assert np.array_equal(single[1, 2, 1, 0], ref)
    with pytest.raises(PoleError):
        system.current(xs, np.array([2.0, sites[1]]))


def _per_draw_batch_means(system, H, l, zetas, seed, nsamples, batches):
    """Batch means of matrix_power(current(k H k^+, zeta), l), one draw of
    HaarSampler(n, seed) and one node at a time."""
    sampler = rq.HaarSampler(system.space.n, seed=seed)
    dim = system.space.dim
    per_batch = nsamples // batches
    out = []
    for _ in range(batches):
        sums = np.zeros((len(zetas), dim, dim), dtype=complex)
        for _ in range(per_batch):
            k = sampler.sample()
            kh = k @ H @ k.conj().T
            for idx, zeta in enumerate(zetas):
                sums[idx] += np.linalg.matrix_power(system.current(kh, zeta), l)
        out.append(sums / per_batch)
    return out


def _assert_matches_per_draw(system, H, l, zetas, seed, nsamples, batches,
                             rtol):
    means, ses = rq.haar_average_power(system, H, l, zetas,
                                       rq.HaarSampler(system.space.n, seed=seed),
                                       nsamples, batches)
    batch_means = _per_draw_batch_means(system, H, l, zetas, seed, nsamples,
                                        batches)
    ref = np.mean(batch_means, axis=0)
    for idx in range(len(zetas)):
        assert (np.linalg.norm(means[idx] - ref[idx])
                <= rtol * np.linalg.norm(ref[idx]))
        dev = sum(np.linalg.norm(b[idx] - ref[idx]) ** 2 for b in batch_means)
        ref_se = np.sqrt(dev / (batches * (batches - 1)))
        assert abs(ses[idx] - ref_se) <= 1e-10 * ref_se


def test_haar_average_chunked_matches_single_draws():
    sys3 = make_system([1, 1, 1], [0.0, 1.0, -1.0])
    nsamples, batches = 1200, 4
    # the stream of each batch is split over more than one chunk, whose
    # per-draw products of the first two sites hold (2^3)^2 numbers
    assert rq.CHUNK_BYTES // (16 * (2 * 2) ** 3) < nsamples // batches
    _assert_matches_per_draw(sys3, rq.eigen_h(2), 3,
                             [2.7 + 0.6j, -3.0, 1.5j], 8, nsamples, batches,
                             1e-14)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("space", [TensorRepSpace([1, 2, 1]),
                                   TensorRepSpace.defining(3, 3)],
                         ids=["121", "defining"])
def test_haar_average_matches_per_draw_powers(space, l):
    # group images of a weight-2 site and of SU(3) on (C^3)^(x)3; on the
    # defining space each batch spans two chunks, whose per-draw products
    # of the first two sites hold (3^3)^2 numbers
    system = rq.GaudinSystem(space, [0.0, 1.0, -1.0 + 0.5j])
    nsamples, batches = 90, 3
    assert rq.CHUNK_BYTES // (16 * (3 * 3) ** 3) < nsamples // batches
    _assert_matches_per_draw(system, rq.eigen_h(space.n), l,
                             [2.7 + 0.6j, -3.0 + 0.4j], 21, nsamples, batches,
                             1e-13)


def test_haar_average_four_mixed_sites_matches_per_draw_powers():
    # site dimensions 2, 3, 2, 2: the per-draw products of the first three
    # sites hold (2 * 3 * 2)^3 numbers, and each batch spans three chunks
    system = rq.GaudinSystem(TensorRepSpace([1, 2, 1, 1]),
                             [0.0, 1.0, -1.0 + 0.5j, 0.4 - 1.2j])
    nsamples, batches = 60, 3
    assert 2 * (rq.CHUNK_BYTES // (16 * (2 * 3 * 2) ** 3)) < nsamples // batches
    _assert_matches_per_draw(system, rq.eigen_h(2), 3,
                             [2.7 + 0.6j, -3.0 + 0.4j], 23, nsamples, batches,
                             1e-13)


@pytest.mark.parametrize("H", [np.array([[0.0, 1.0], [1.0, 0.0]]),
                               np.diag([1.0, 0.5])],
                         ids=["off_diagonal", "trace"])
def test_monte_carlo_needs_diagonal_traceless_h(H):
    sys2 = make_system([1, 2], [0.0, 1.0])
    with pytest.raises(ValueError, match="diagonal traceless"):
        rq.haar_average_power(sys2, H, 2, [2.0], rq.HaarSampler(2, seed=0), 20)
    with pytest.raises(ValueError, match="diagonal traceless"):
        rq.higher_gaudin(sys2, H, 2, rq.HaarSampler(2, seed=0), nsamples=20)
    # the exact average takes any H
    assert rq.higher_gaudin(sys2, H, 2).nsamples == 0


def _dense_permutation_average(H, l):
    """The average from the dense l! x n^(2l) matrix of the permutation
    operators P_s, with G = P P^T."""
    n = H.shape[0]
    b = np.indices((n,) * l).reshape(l, -1)
    P = np.zeros((math.factorial(l), n ** (2 * l)))
    moments = []
    for row, s in zip(P, itertools.permutations(range(l))):
        row.reshape((n,) * 2 * l)[
            tuple(x for j in range(l) for x in (b[s[j]], b[j]))] = 1.0
        moments.append(np.prod(H[b[list(s)], b], axis=0).sum())
    coeffs = np.linalg.pinv(P @ P.T, rcond=1e-10, hermitian=True) @ moments
    return (coeffs @ P).reshape((n * n,) * l)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_permutation_average_matches_dense_construction(n, l):
    rng = np.random.default_rng(n + 10 * l)
    general = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for H in (rq.eigen_h(n), general):
        want = _dense_permutation_average(H, l)
        got = rq._permutation_average(H, l)
        assert got.shape == (n * n,) * l
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
