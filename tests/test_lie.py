"""Tests for split Casimirs, sl2 irreducibles and tensor site operators."""

import functools

import numpy as np
import pytest

from hitchin.lie import TensorRepSpace, split_casimir, sl2_irrep


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_casimir_completeness(n):
    # on two defining sites Omega_12 is the flip P minus 1/n
    space = TensorRepSpace.defining(n, 2)
    flip = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            flip[a * n + b, b * n + a] = 1.0
    want = n * flip - np.eye(n * n)
    assert np.array_equal(split_casimir(*space.images), want)
    assert np.array_equal(split_casimir(*space.images[::-1]), want)


@pytest.mark.parametrize("lam", [0, 1, 2, 3, 4, 5, 6])
def test_sl2_relations_exact(lam):
    r = sl2_irrep(lam)
    e, f, h = r["e"], r["f"], r["h"]
    assert np.array_equal(e @ f - f @ e, h)
    assert np.array_equal(h @ e - e @ h, 2 * e)
    assert np.array_equal(h @ f - f @ h, -2 * f)


def test_sl2_trivial():
    r = sl2_irrep(0)
    assert r["dim"] == 1
    assert r["e"].shape == (1, 1)
    assert not r["e"].any() and not r["f"].any() and not r["h"].any()


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
def test_sl2_casimir(lam):
    # the units of an sl2 site map E_11 to 0, yet Omega at one site is
    # the Casimir lam (lam + 2) / 2, here times n = 2, in integers
    units = sl2_irrep(lam)["units"]
    assert not units[1, 1].any()
    c = split_casimir(units, units)
    assert c.dtype == np.int64
    assert np.array_equal(c, lam * (lam + 2) * np.eye(lam + 1, dtype=int))


def test_site_operator_example():
    # h at site 1 on V_1 (x) V_1 is diag(1, 1, -1, -1)
    space = TensorRepSpace([1, 1])
    h1 = space.generator("h", 1)
    assert np.allclose(h1, np.diag([1.0, 1.0, -1.0, -1.0]))
    h2 = space.generator("h", 2)
    assert np.allclose(h2, np.diag([1.0, -1.0, 1.0, -1.0]))


def test_site_operators_commute_across_sites():
    space = TensorRepSpace([1, 2, 1])
    a = space.generator("e", 1)
    b = space.generator("f", 2)
    assert np.linalg.norm(a @ b - b @ a) < 1e-14


def test_site_operator_validation():
    space = TensorRepSpace([1, 1])
    with pytest.raises(ValueError):
        space.site_operator(np.eye(3), 1)
    with pytest.raises(ValueError):
        space.site_operator(np.eye(2), 3)


@pytest.mark.parametrize("weights,rank", [([1], 0), ([2], 1), ([1, 1], 2)])
def test_weight_zero_projector_rank(weights, rank):
    p = TensorRepSpace(weights).weight_zero_projector()
    assert np.linalg.norm(p @ p - p) < 1e-14
    assert int(round(np.trace(p).real)) == rank


def test_defining_space():
    space = TensorRepSpace.defining(2, 3)
    assert space.dim == 8
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    op = space.site_operator(x, 2)
    want = np.kron(np.kron(np.eye(2), x), np.eye(2))
    assert np.allclose(op, want)


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2, 1]),
                                   TensorRepSpace.defining(3, 2)],
                         ids=["sl2", "defining"])
def test_images_are_site_operators_of_units(space):
    assert space.images.shape == (space.nsites, space.n, space.n,
                                  space.dim, space.dim)
    for i, rep in enumerate(space.reps, start=1):
        for a in range(space.n):
            for b in range(space.n):
                want = space.site_operator(rep["units"][a, b], i)
                assert np.array_equal(space.images[i - 1, a, b], want)


def test_sl2_units_and_generators():
    space = TensorRepSpace([1, 2, 1])
    for i, rep in enumerate(space.reps, start=1):
        for g, unit in (("e", (0, 1)), ("f", (1, 0)), ("h", (0, 0))):
            assert np.array_equal(rep["units"][unit], rep[g])
            want = space.site_operator(rep[g].astype(float), i)
            assert np.array_equal(space.generator(g, i), want)
        assert not rep["units"][1, 1].any()
    with pytest.raises(ValueError):
        space.generator("h", 4)
    with pytest.raises(ValueError):
        TensorRepSpace.defining(2, 2).generator("h", 1)


def test_images_are_read_only():
    space = TensorRepSpace([1, 1])
    with pytest.raises(ValueError):
        space.generator("e", 1)[0, 1] = 5.0


def test_mixed_algebras_rejected():
    with pytest.raises(ValueError):
        TensorRepSpace([1, TensorRepSpace.defining(3, 1).reps[0]])


@pytest.mark.parametrize("weights", [[1], [2], [1, 1], [1, 2, 1], [1, 1, 1]])
def test_weight_zero_mask(weights):
    space = TensorRepSpace(weights)
    total = np.zeros(1, dtype=int)
    for w in weights:
        total = np.add.outer(total, w - 2 * np.arange(w + 1)).ravel()
    assert np.array_equal(space.weight_zero(), total == 0)


def _su(n, count, seed):
    from hitchin.rational_quantum import HaarSampler
    return HaarSampler(n, seed=seed).sample(count)


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2, 1]),
                                   TensorRepSpace([3, 1]),
                                   TensorRepSpace.defining(3, 2)],
                         ids=["121", "31", "defining"])
def test_group_image_is_a_homomorphism(space):
    k1, k2 = _su(space.n, 2, 5)
    r1, r2 = space.group_image(np.array([k1, k2]))
    assert r1.shape == (space.dim, space.dim)
    assert np.allclose(space.group_image(k1 @ k2), r1 @ r2,
                       rtol=0, atol=1e-13)
    assert np.allclose(space.group_image(np.eye(space.n)), np.eye(space.dim),
                       rtol=0, atol=0)


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2, 1]),
                                   TensorRepSpace([3, 1]),
                                   TensorRepSpace.defining(3, 2)],
                         ids=["121", "31", "defining"])
def test_group_image_conjugates_site_embeddings(space):
    from hitchin.rational_quantum import GaudinSystem
    system = GaudinSystem(space, list(range(space.nsites)))
    rng = np.random.default_rng(3)
    n = space.n
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x -= np.trace(x) / n * np.eye(n)
    for k in _su(n, 3, 6):
        r = space.group_image(k)
        r_inv = space.group_image(k.conj().T)
        assert np.allclose(r @ r_inv, np.eye(space.dim), rtol=0, atol=1e-13)
        for i in range(1, space.nsites + 1):
            want = system.rep_embed(k @ x @ k.conj().T, i)
            got = r @ system.rep_embed(x, i) @ r_inv
            assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("space", [TensorRepSpace([1, 2]),
                                   TensorRepSpace.defining(3, 3),
                                   TensorRepSpace([2, 1, 1])],
                         ids=["12", "defining", "211"])
def test_site_images_kronecker_multiply_to_group_image(space):
    ks = _su(space.n, 4, 7)
    rhos = space.site_images(ks)
    assert [rho.shape for rho in rhos] == [(4, d, d) for d in space.site_dims]
    images = space.group_image(ks)
    for idx, image in enumerate(images):
        kron = functools.reduce(np.kron, [rho[idx] for rho in rhos])
        assert kron.tobytes() == image.tobytes()


def test_group_image_rejects_unknown_representations():
    # the dual of the defining representation, E_ab -> -E_ba
    dual = -np.eye(4, dtype=np.int64).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3)
    space = TensorRepSpace([1, {"dim": 2, "units": dual}])
    for name in ("site_images", "group_image"):
        with pytest.raises(ValueError, match="site 2"):
            getattr(space, name)(np.eye(2))
        with pytest.raises(ValueError):
            getattr(TensorRepSpace([1, 1]), name)(np.eye(3))
