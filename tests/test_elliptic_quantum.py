"""Tests for the quantum elliptic gl(2) system."""

from itertools import permutations

import numpy as np
import pytest

from hitchin.elliptic_classical import MAX_DRAWS
from hitchin.theta import PoleError, ThetaContext
from hitchin.theta_expr import ThetaExpr
from hitchin.elliptic_quantum import (
    EulerDiffOp,
    QuantumEllipticParams,
    _block_products,
    _lattice_conjugator,
    _max_diff,
    check_lattice_invariance,
    check_reduced_commutativity,
    check_s2_invariance,
    commutator,
    commuting_hamiltonians,
    lax_quantum,
    ordering_counterterm,
    quantum_hamiltonians,
    reduced_momentum,
    symbol_data,
    symbol_residual,
    trace_expansion_residual,
)

CTX = ThetaContext(0.3)
T_SAMPLES = [1.13 + 0.21j, 0.82 - 0.45j, 1.6 + 0.05j]


def two_site_params(k=0, q=0.3):
    return QuantumEllipticParams(ThetaContext(q), k, [1, 1],
                                 np.array([1.0, 1.7 + 0.3j]))


class TestEulerDiffOp:
    def test_composition_associative(self):
        rng = np.random.default_rng(3)
        d = 3
        a = EulerDiffOp.derivative(d) \
            + EulerDiffOp.function(ThetaExpr.u(1.0, 2),
                                   rng.normal(size=(d, d)))
        b = (EulerDiffOp.derivative(d, 2)
             + EulerDiffOp.function(ThetaExpr.theta(1.1, 1),
                                    rng.normal(size=(d, d))))
        abb1 = (a @ b) @ b
        abb2 = a @ (b @ b)
        for t in T_SAMPLES:
            for m in (-2, 0, 1, 3):
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                r1 = abb1.apply_power(CTX, t, m, v)
                r2 = abb2.apply_power(CTX, t, m, v)
                assert np.abs(r1 - r2).max() < 1e-10 * max(
                    np.abs(r1).max(), 1.0)

    def test_leibniz_on_function_coefficients(self):
        # [D, f] = (D f) as operators
        d = 2
        mat = np.array([[1.0, 2.0], [0.5, -1.0]])
        f = EulerDiffOp.function(ThetaExpr.theta(1.2, 1), mat)
        comm = commutator(EulerDiffOp.derivative(d), f)
        target = EulerDiffOp.function(ThetaExpr.theta(1.2, 1).euler(), mat)
        rng = np.random.default_rng(0)
        for t in T_SAMPLES:
            v = rng.normal(size=d)
            r1 = comm.apply_power(CTX, t, 1, v)
            r2 = target.apply_power(CTX, t, 1, v)
            assert np.abs(r1 - r2).max() < 1e-12 * max(np.abs(r2).max(), 1.0)

    def test_degree(self):
        d = 2
        op = EulerDiffOp.derivative(d, 2) + EulerDiffOp.derivative(d)
        assert op.degree() == 2
        assert (op @ op).degree() == 4


class TestLaxStructure:
    def test_empty_system_is_free_momentum(self):
        # no sites: L = diag(p_hat, -p_hat) / (2 theta'(1))
        par = QuantumEllipticParams(CTX, 1, [], np.array([]))
        L = lax_quantum(par, 0.9 + 0.2j)
        phat = reduced_momentum(par)
        t = 1.13 + 0.21j
        tp1 = CTX.theta_prime_one()
        for m, mat in L[0, 0].evaluate(CTX, t).items():
            ref = phat.evaluate(CTX, t).get(m, 0.0) / (2.0 * tp1)
            assert np.abs(mat - ref).max() < 1e-13
        assert not L[0, 1].evaluate(CTX, t)
        assert not L[1, 0].evaluate(CTX, t)

    def test_pole_at_site_rejected(self):
        from hitchin.theta import PoleError
        par = two_site_params()
        with pytest.raises(PoleError):
            lax_quantum(par, par.sites[1])

    def test_trace_expansion_exact(self):
        for k in (0, 2):
            par = two_site_params(k=k)
            for t in T_SAMPLES[:2]:
                res = trace_expansion_residual(par, 0.83 + 0.4j, t)
                assert res < 1e-10

    def test_trace_expansion_three_sites(self):
        par = QuantumEllipticParams(CTX, 1, [1, 2, 1],
                                    np.array([1.0, 1.7 + 0.3j, 0.6 - 0.9j]))
        res = trace_expansion_residual(par, 0.83 + 0.4j, 1.13 + 0.21j)
        assert res < 1e-10


class TestCommutativity:
    def test_single_site_weight_two(self):
        par = QuantumEllipticParams(CTX, 0, [2], np.array([1.0]))
        res = check_reduced_commutativity(par, T_SAMPLES, [-2, -1, 0, 1, 2])
        assert res < 1e-9

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("q", [0.1, 0.3])
    def test_two_spin_half_sites(self, k, q):
        rng = np.random.default_rng(11 + k)
        ts = [np.exp(1j * rng.uniform(0, 2 * np.pi))
              * rng.uniform(0.85, 1.2) for _ in range(10)]
        par = two_site_params(k=k, q=q)
        res = check_reduced_commutativity(par, ts, [-2, -1, 0, 1, 2])
        assert res < 1e-8

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("weights", [[2, 2], [1, 2, 1], [1, 1, 1, 1]],
                             ids=["22", "121", "1111"])
    def test_larger_systems(self, weights, k, q):
        par = QuantumEllipticParams(ThetaContext(q), k, weights,
                                    FOUR_SITES[:len(weights)])
        res = check_reduced_commutativity(par, T_SAMPLES, [-1, 0, 1])
        assert res < 1e-12

    @pytest.mark.parametrize("weights,k", [([1, 1], 2), ([1, 2, 1], 1),
                                           ([2, 2], 0)],
                             ids=["11-2", "121-1", "22-0"])
    def test_block_products_match_the_symbolic_product(self, weights, k):
        # the numeric Leibniz product on the weight-zero block equals the
        # symbolic product there, and the symbolic product's rows outside
        # the block vanish exactly on weight-zero columns
        par = QuantumEllipticParams(CTX, k, weights, SITES[:len(weights)])
        fam = commuting_hamiltonians(par)
        mask = par.space.weight_zero()
        idx = np.flatnonzero(mask)
        prods = {(a, b): fam[a] @ fam[b]
                 for a, b in permutations(range(len(fam)), 2)}
        numeric = _block_products(fam, idx, CTX, T_SAMPLES)
        for t, got in zip(T_SAMPLES, numeric):
            assert set(got) == set(prods)
            for pair, prod in prods.items():
                full = prod.evaluate(CTX, t)
                block = {m: mat[np.ix_(idx, idx)] for m, mat in full.items()}
                scale = max(np.abs(mat).max() for mat in block.values())
                assert _max_diff(got[pair], block) <= 1e-13 * scale
                for mat in full.values():
                    assert not mat[np.ix_(~mask, idx)].any()

    def test_counterterm_is_commutator_with_derivative(self):
        # Q = [D, B] with B = sum_{i!=j} sigma_{t^2}(z_i/z_j) e_i f_j
        from hitchin.theta_expr import sigma_expr
        par = two_site_params()
        e = [par.space.generator("e", i + 1) for i in range(2)]
        f = [par.space.generator("f", i + 1) for i in range(2)]
        b = EulerDiffOp(par.dim)
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                b = b + EulerDiffOp.function(
                    sigma_expr(1.0, 2, par.sites[i] / par.sites[j]),
                    e[i] @ f[j])
        q_direct = ordering_counterterm(par)
        q_comm = commutator(EulerDiffOp.derivative(par.dim), b)
        rng = np.random.default_rng(2)
        for t in T_SAMPLES:
            v = rng.normal(size=par.dim)
            r1 = q_direct.apply_power(CTX, t, 1, v)
            r2 = q_comm.apply_power(CTX, t, 1, v)
            assert np.abs(r1 - r2).max() < 1e-11 * max(np.abs(r2).max(), 1.0)

    def test_family_sizes(self):
        par = two_site_params()
        fam = commuting_hamiltonians(par)
        assert len(fam) == 3
        h0, his, kis, mis = quantum_hamiltonians(par)
        assert len(his) == len(kis) == len(mis) == 2


SYMBOL_CASES = [pytest.param([1, 1], k, id=str(k)) for k in (0, 2)] + [
    pytest.param(w, k, id="%s-%d" % ("".join(map(str, w)), k))
    for w in ([2, 2], [1, 2, 1], [3, 1]) for k in (0, 1, 2)]


class TestSymbols:
    @pytest.mark.parametrize("weights,k", SYMBOL_CASES)
    def test_symbols_match_classical_coefficients(self, weights, k):
        par = QuantumEllipticParams(ThetaContext(0.3), k, weights,
                                    SITES[:len(weights)])
        res = symbol_residual(par, np.random.default_rng(7), samples=20)
        assert res < 1e-9

    def test_symbols_read_the_operator_terms(self, monkeypatch):
        # a wrong sigma term in the operators must show in the symbol check
        import hitchin.elliptic_quantum as eq
        sigma = eq.sigma_expr
        monkeypatch.setattr(eq, "sigma_expr",
                            lambda *args: 2.0 * sigma(*args))
        res = symbol_residual(two_site_params(), np.random.default_rng(7),
                              samples=5)
        assert res > 1e-6


SITES = np.array([1.0, 1.7 + 0.3j, 0.6 - 0.9j])
FOUR_SITES = np.append(SITES, -0.8 + 0.5j)
WEYL = np.array([[0.0, -1.0], [1.0, 0.0]])


def nilpotent_exp(x):
    """exp(x) for a nilpotent matrix x, as its finite power series."""
    out = term = np.eye(len(x))
    k = 0
    while term.any():
        k += 1
        term = term @ x / k
        out = out + term
    return out


@pytest.mark.parametrize("weights", [[2, 2], [1, 2, 1], [3, 1]])
def test_weyl_element_from_group_action(weights):
    space = QuantumEllipticParams(CTX, 0, weights,
                                  SITES[:len(weights)]).space
    weyl = space.group_image(WEYL)
    inv = np.linalg.inv(weyl)
    series = np.eye(space.dim)
    for i in range(1, len(weights) + 1):
        e, f, h = (space.generator(g, i) for g in "efh")
        assert np.abs(weyl @ e @ inv + f).max() < 1e-12
        assert np.abs(weyl @ f @ inv + e).max() < 1e-12
        assert np.abs(weyl @ h @ inv + h).max() < 1e-12
        series = series @ nilpotent_exp(-e) @ nilpotent_exp(f) \
            @ nilpotent_exp(-e)
    assert np.abs(weyl - series).max() < 1e-12


@pytest.mark.parametrize("weights", [[1, 1], [2, 2], [1, 2, 1], [3, 1]])
def test_lattice_conjugator_is_diagonal_power(weights):
    par = QuantumEllipticParams(CTX, 0, weights, SITES[:len(weights)])
    ref = np.eye(par.dim)
    for i, zi in enumerate(par.sites, start=1):
        vals, vecs = np.linalg.eig(par.space.generator("h", i))
        ref = ref @ vecs @ np.diag(zi ** (-vals / 2)) @ np.linalg.inv(vecs)
    assert np.abs(_lattice_conjugator(par) - ref).max() < 1e-13


class TestInvariances:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_twist_swap(self, k):
        par = two_site_params(k=k)
        assert check_s2_invariance(par, 0.83 + 0.4j, 1.13 + 0.21j) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_lattice_shift(self, k):
        par = two_site_params(k=k)
        assert check_lattice_invariance(par, 0.83 + 0.4j,
                                        1.13 + 0.21j) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("weights", [[2, 2], [1, 2, 1], [3, 1]])
    def test_larger_systems(self, weights, k):
        par = QuantumEllipticParams(CTX, k, weights, SITES[:len(weights)])
        assert check_s2_invariance(par, 0.83 + 0.4j, 1.13 + 0.21j) < 1e-10
        assert check_lattice_invariance(par, 0.83 + 0.4j,
                                        1.13 + 0.21j) < 1e-10

    def test_lattice_shift_at_q_zero_is_not_a_pass(self):
        # the lattice image twist t/sqrt(q) is infinite at q = 0, so the
        # Lax matrix there has NaN entries, which the residual must keep
        par = two_site_params(q=0)
        with np.errstate(all="ignore"):
            res = check_lattice_invariance(par, 0.83 + 0.4j, 1.13 + 0.21j)
        assert not (np.isfinite(res) and res < 1e-10)
        # a NaN after a finite degree is kept too
        assert np.isnan(_max_diff({0: np.zeros((2, 2)),
                                   1: np.full((2, 2), np.nan)}, {}))

    def test_higher_weight_invariances(self):
        par = QuantumEllipticParams(CTX, 2, [2, 1],
                                    np.array([1.0, 1.7 + 0.3j]))
        assert check_s2_invariance(par, 0.9 - 0.3j, 0.8 + 0.5j) < 1e-10
        assert check_lattice_invariance(par, 0.9 - 0.3j, 0.8 + 0.5j) < 1e-10


# w . apply_power(t, m, v) of H0, H_1, [H0 + Q, H_1] and the Lax entries at
# z = REF_Z, with v and w from reference_vectors, twists T_SAMPLES and
# exponents REF_EXPONENTS (twist-major), captured from the tree-based
# expression engine that preceded the canonical sparse-polynomial form.
REF_Z = 0.83 + 0.4j
REF_EXPONENTS = (-1, 0, 2)
REFERENCE = {
    ((1, 1), 2): {
        'H0': [
            (-92.07570438758505-221.03344916049974j), (97.12043860572574-154.872344565014j), (498.75422459230634+91.92903176725632j),
            (-8.989894131235566-146.66367909133743j), (-148.57918207917675-103.67799697804091j), (-404.5162579751001+96.77253438985092j),
            (116.10759846513365-1185.9240680222633j), (154.68202351757202-1344.075685193669j), (255.0723736224076-1545.899752395182j),
        ],
        'H1': [
            (-35.61660042317668-62.50097574747852j), (-30.763735465809525-70.77411145013329j), (-21.05800555107521-87.32038285544283j),
            (16.835112776322482+17.424138739128644j), (21.687977733689635+9.15100303647387j), (31.393707648423945-7.395268368835659j),
            (-65.38505043126185+27.881308988689682j), (-60.532185473894685+19.608173286034912j), (-50.82645555916038+3.061901880725376j),
        ],
        'comm': [
            (571.1174756831367-291.1630479543084j), (571.1174756831373-291.1630479543081j), (571.1174756831384-291.16304795430796j),
            (5.054875673217257+21.88190750034893j), (5.054875673217296+21.88190750034876j), (5.054875673217378+21.88190750034847j),
            (2864.012701824776-646.8526509981123j), (2864.012701824775-646.8526509981093j), (2864.012701824773-646.8526509981048j),
        ],
        'L00': [
            (-105.98574622636302-17.83569045701692j), (-111.14587629753102-43.25261246674631j), (-121.466136439867-94.0864564862051j),
            (113.0072949927766-2.3993122805766713j), (107.8471649216086-27.816234290306063j), (97.5269047792726-78.65007830976484j),
            (-5.661629092909648+131.57155360256453j), (-10.821759164077642+106.15463159283514j), (-21.14201930641364+55.32078757337635j),
        ],
        'L01': [
            (42.54926116819155+14.018300913985833j), (42.54926116819155+14.018300913985833j), (42.54926116819155+14.018300913985833j),
            (-29.16352374408882+114.01189752250262j), (-29.16352374408882+114.01189752250262j), (-29.16352374408882+114.01189752250262j),
            (-117.36999050967113+11.29969200229656j), (-117.36999050967113+11.29969200229656j), (-117.36999050967113+11.29969200229656j),
        ],
        'L10': [
            (-65.76446585088037-47.52701627940141j), (-65.76446585088037-47.52701627940141j), (-65.76446585088037-47.52701627940141j),
            (5.645551995790299+8.005484454389551j), (5.645551995790299+8.005484454389551j), (5.645551995790299+8.005484454389551j),
            (-65.70229995295323-6.493177872430472j), (-65.70229995295323-6.493177872430472j), (-65.70229995295323-6.493177872430472j),
        ],
        'L11': [
            (105.98574622636302+17.83569045701692j), (111.14587629753102+43.25261246674631j), (121.466136439867+94.0864564862051j),
            (-113.0072949927766+2.3993122805766713j), (-107.8471649216086+27.816234290306063j), (-97.5269047792726+78.65007830976484j),
            (5.661629092909648-131.57155360256453j), (10.821759164077642-106.15463159283514j), (21.14201930641364-55.32078757337635j),
        ],
    },
    ((2, 1), 1): {
        'H0': [
            (-378.39121105751957-150.4098389211311j), (-351.760419027695-47.23524365629861j), (-395.3939552402884+272.63889389322316j),
            (25.51840163831425+99.8817814940926j), (-65.62950638028899+28.51195616018559j), (-344.82044268973823-0.7027474877717736j),
            (1576.0201472963627-828.2764683835039j), (1656.2105728776733-889.1928069617604j), (1719.696303768052-897.5005370984163j),
        ],
        'H1': [
            (81.48625751727128-184.36912211603308j), (130.25824589869885-173.2443232546574j), (227.80222266155394-150.99472553190597j),
            (-47.49725202700704+80.83920652983232j), (1.2747363544205115+91.96400539120802j), (98.81871311727565+114.21360311395945j),
            (-212.5774239433589-110.64678961136288j), (-163.80543556193132-99.52199074998715j), (-66.2614587990762-77.27239302723574j),
        ],
        'comm': [
            (8277.26192011412+4361.485862172064j), (8277.261920114119+4361.485862172063j), (8277.261920114119+4361.485862172064j),
            (-121.25820270256587+211.29025467344093j), (-121.25820270256577+211.29025467344093j), (-121.25820270256551+211.29025467344064j),
            (33942.120597339526+31085.620460672275j), (33942.12059733952+31085.620460672275j), (33942.120597339504+31085.620460672282j),
        ],
        'L00': [
            (-60.2971059273083+36.091790957339796j), (-38.7842335280603+10.886727043825164j), (4.24151127043568-39.52340078320409j),
            (18.151369239618237+152.35002474015164j), (39.66424163886623+127.14496082663699j), (82.6899864373622+76.73483299960773j),
            (-95.97139661727019+145.3873048610796j), (-74.45852421802219+120.18224094756496j), (-31.43277941952621+69.77211312053572j),
        ],
        'L01': [
            (33.81567296576853+79.27990387187248j), (33.81567296576853+79.27990387187248j), (33.81567296576853+79.27990387187248j),
            (-177.70752760077679+135.39417627184986j), (-177.70752760077679+135.39417627184986j), (-177.70752760077679+135.39417627184986j),
            (-173.00954956895006-60.09228148244411j), (-173.00954956895006-60.09228148244411j), (-173.00954956895006-60.09228148244411j),
        ],
        'L10': [
            (-45.58867751872798-269.14334490121837j), (-45.58867751872798-269.14334490121837j), (-45.58867751872798-269.14334490121837j),
            (-22.421840279058646-0.16681078352069534j), (-22.421840279058646-0.16681078352069534j), (-22.421840279058646-0.16681078352069534j),
            (-155.45534732657313-192.2079744192961j), (-155.45534732657313-192.2079744192961j), (-155.45534732657313-192.2079744192961j),
        ],
        'L11': [
            (60.2971059273083-36.091790957339796j), (38.7842335280603-10.886727043825164j), (-4.24151127043568+39.52340078320409j),
            (-18.151369239618237-152.35002474015164j), (-39.66424163886623-127.14496082663699j), (-82.6899864373622-76.73483299960773j),
            (95.97139661727019-145.3873048610796j), (74.45852421802219-120.18224094756496j), (31.43277941952621-69.77211312053572j),
        ],
    },
}


def reference_vectors(d):
    return (np.arange(1, d + 1) + 1j * np.cos(np.arange(d)),
            np.exp(0.7j * np.arange(d)))


def doubled_momentum(params):
    """p_hat = 2D + 2k u(t^2), the momentum REFERENCE was computed with."""
    return EulerDiffOp.derivative(params.dim).scale(2.0) \
        + EulerDiffOp.function(2.0 * params.k * ThetaExpr.u(1.0, 2),
                               np.eye(params.dim))


class TestReferenceValues:
    @pytest.mark.parametrize("weights,k", sorted(REFERENCE))
    def test_apply_power_matches_reference(self, weights, k, monkeypatch):
        # the references pin the expression engine, not the momentum
        # convention: build the operators with the momentum they used
        import hitchin.elliptic_quantum as eq
        monkeypatch.setattr(eq, "reduced_momentum", doubled_momentum)
        par = QuantumEllipticParams(ThetaContext(0.3), k, list(weights),
                                    np.array([1.0, 1.7 + 0.3j]))
        h0, his, _, _ = quantum_hamiltonians(par)
        lax = lax_quantum(par, REF_Z)
        ops = {"H0": h0, "H1": his[0],
               "comm": commutator(h0 + ordering_counterterm(par), his[0])}
        ops.update({"L%d%d" % (a, b): lax[a, b]
                    for a in range(2) for b in range(2)})
        v, w = reference_vectors(par.dim)
        for name, ref in REFERENCE[(weights, k)].items():
            got = [w @ ops[name].apply_power(par.ctx, t, m, v)
                   for t in T_SAMPLES for m in REF_EXPONENTS]
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0,
                                       err_msg=name)


def test_symbol_data_gives_up_after_max_draws(lattice_rng):
    with pytest.raises(PoleError, match="in %d draws" % MAX_DRAWS):
        symbol_data(two_site_params(), lattice_rng)
    # two uniform calls per draw
    assert lattice_rng.draws == 2 * MAX_DRAWS
