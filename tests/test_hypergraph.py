"""Diagnosis hypergraph operator algebra and the residual convolution stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc.errors import ConfigError, ShapeError
from hgrc.hypergraph import build_hypergraph, hconv_operator, hconv_stack, hconv_stack_backward
from hgrc.numeric import Rng, finite_diff_check, glorot_init


def random_hypergraph(rng, max_nodes=30, max_edges=20):
    """A random binary code matrix (N, g); columns may be empty."""
    n = int(rng.integers(2, max_nodes + 1))
    g = int(rng.integers(1, max_edges + 1))
    return (rng.random((n, g)) < 0.4).astype(np.float64)


def operator_oracle(icd):
    """D^-1 H B^-1 H^T from dense diagonal matrices, with 1/0 read as 0."""
    h = icd[:, icd.sum(axis=0) > 0]
    def pinv_diag(v):
        return np.diag([1.0 / x if x else 0.0 for x in v])
    return pinv_diag(h.sum(axis=1)) @ h @ pinv_diag(h.sum(axis=0)) @ h.T


def test_three_node_chain_operator_values():
    # nodes {1,2} share one code, nodes {2,3} another, unit weights:
    # D = diag(1,2,1), B = diag(2,2)
    icd = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    p = hconv_operator(build_hypergraph(icd))
    expected = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_operator_matches_dense_oracle():
    rng = Rng(150)
    for _ in range(100):
        icd = random_hypergraph(rng)
        p = hconv_operator(build_hypergraph(icd))
        assert np.allclose(p, operator_oracle(icd), rtol=0, atol=1e-15)


def test_rows_of_operator_are_stochastic():
    rng = Rng(100)
    for _ in range(200):
        icd = random_hypergraph(rng)
        hg = build_hypergraph(icd)
        p = hconv_operator(hg)
        occupied = hg.node_degree > 0.0
        assert np.allclose(p[occupied].sum(axis=1), 1.0, rtol=0, atol=1e-10)
        assert np.all(p[~occupied] == 0.0)
        assert np.all(p >= 0.0)


def test_isolated_node_row_is_zero():
    icd = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    p = hconv_operator(build_hypergraph(icd))
    assert np.array_equal(p[0], np.zeros(3))
    assert np.isclose(p[1].sum(), 1.0)


def test_no_codes_anywhere_gives_zero_operator():
    hg = build_hypergraph(np.zeros((4, 6)))
    assert hg.n_edges == 0
    assert np.array_equal(hconv_operator(hg), np.zeros((4, 4)))


def test_operator_permutation_equivariance():
    rng = Rng(200)
    icd = random_hypergraph(rng)
    n = icd.shape[0]
    x = rng.normal(size=(n, 5))
    thetas = [glorot_init(5, 5, s) for s in rng.split(2)]
    out, _ = hconv_stack(x, build_hypergraph(icd), thetas, "tanh")
    perm = Rng(201).permutation(n)
    out_p, _ = hconv_stack(x[perm], build_hypergraph(icd[perm]), thetas, "tanh")
    assert np.allclose(out_p, out[perm], rtol=0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_row_stochastic_property(seed):
    hg = build_hypergraph(random_hypergraph(Rng(seed)))
    p = hconv_operator(hg)
    occupied = hg.node_degree > 0.0
    assert np.allclose(p[occupied].sum(axis=1), 1.0, rtol=0, atol=1e-10)


def test_build_drops_empty_hyperedges():
    icd = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    hg = build_hypergraph(icd)
    assert (hg.n_nodes, hg.n_edges) == (2, 2)
    assert np.array_equal(hg.incidence, icd[:, [0, 2]])
    assert np.array_equal(hg.edge_degree, [1.0, 2.0])
    assert np.array_equal(hg.node_degree, [2.0, 1.0])


def test_build_validation():
    with pytest.raises(ConfigError, match="binary"):
        build_hypergraph(np.array([[0.5]]))
    with pytest.raises(ShapeError):
        build_hypergraph(np.zeros(3))
    with pytest.raises(ShapeError):
        build_hypergraph(np.zeros((0, 3)))


def test_zero_theta_relu_stack_is_identity_bitwise():
    rng = Rng(300)
    icd = random_hypergraph(rng)
    n = icd.shape[0]
    x = rng.normal(size=(n, 6))
    thetas = [np.zeros((6, 6)) for _ in range(3)]
    out, _ = hconv_stack(x, build_hypergraph(icd), thetas, "relu")
    # relu(P X 0) + X = X exactly, layer by layer
    assert np.array_equal(out, x)


def test_hconv_layer_validation():
    # every layer's theta must be square, of the feature width, over one
    # feature row per node
    hg = build_hypergraph(np.ones((3, 1)))
    with pytest.raises(ShapeError, match="square"):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((4, 5))], "relu")
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((5, 5))], "relu")
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((2, 4)), hg, [np.zeros((4, 4))], "relu")
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((4, 4)), np.zeros((3, 3))], "relu")


def test_empty_stack_is_identity_with_empty_cache():
    hg = build_hypergraph(np.ones((2, 1)))
    x = Rng(0).normal(size=(2, 3))
    out, (operator, caches) = hconv_stack(x, hg, [], "relu")
    assert np.array_equal(out, x)
    assert caches == []
    d_x, d_thetas = hconv_stack_backward(np.ones_like(x), (operator, caches), [], "relu")
    assert np.array_equal(d_x, np.ones_like(x))
    assert d_thetas == []


def test_stack_gradients_match_finite_differences():
    rng = Rng(400)
    icd = np.array([[1.0, 0.0, 1.0],
                    [1.0, 1.0, 0.0],
                    [0.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0]])  # one isolated node
    hg = build_hypergraph(icd)
    x = rng.normal(size=(4, 3))
    thetas = [rng.normal(scale=0.4, size=(3, 3)) for _ in range(2)]
    proj = rng.normal(size=(4, 3))

    def loss(arrays):
        ts = [arrays["theta0"], arrays["theta1"]]
        out, _ = hconv_stack(arrays["x"], hg, ts, "tanh")
        return float((out * proj).sum())

    out, cache = hconv_stack(x, hg, thetas, "tanh")
    d_x, d_thetas = hconv_stack_backward(proj, cache, thetas, "tanh")
    params = {"x": x, "theta0": thetas[0], "theta1": thetas[1]}
    analytic = {"x": d_x, "theta0": d_thetas[0], "theta1": d_thetas[1]}
    assert finite_diff_check(loss, params, analytic) < 1e-6
