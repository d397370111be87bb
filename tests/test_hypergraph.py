"""Diagnosis hypergraph operator algebra and the residual convolution stack.

The package keeps the operator P = D^-1 H B^-1 H^T as two (N, K) factors
(L, R) with P = L R^T; these tests densify P from the factors and hold it,
and the stack built on it, against dense references.
"""

import tracemalloc

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


def dense_operator(hg):
    """P densified from the package's factors, P = L R^T."""
    left, right = hconv_operator(hg)
    return left @ right.T


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
    p = dense_operator(build_hypergraph(icd))
    expected = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_operator_matches_dense_oracle():
    rng = Rng(150)
    for _ in range(100):
        icd = random_hypergraph(rng)
        p = dense_operator(build_hypergraph(icd))
        assert np.allclose(p, operator_oracle(icd), rtol=0, atol=1e-15)


def test_rows_of_operator_are_stochastic():
    rng = Rng(100)
    for _ in range(200):
        icd = random_hypergraph(rng)
        hg = build_hypergraph(icd)
        p = dense_operator(hg)
        occupied = hg.node_degree > 0.0
        assert np.allclose(p[occupied].sum(axis=1), 1.0, rtol=0, atol=1e-10)
        assert np.all(p[~occupied] == 0.0)
        assert np.all(p >= 0.0)


def test_isolated_node_row_is_zero():
    icd = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    p = dense_operator(build_hypergraph(icd))
    assert np.array_equal(p[0], np.zeros(3))
    assert np.isclose(p[1].sum(), 1.0)


def test_no_codes_anywhere_gives_zero_operator():
    hg = build_hypergraph(np.zeros((4, 6)))
    assert hg.n_edges == 0
    left, right = hconv_operator(hg)
    assert left.shape == right.shape == (4, 0)
    assert np.array_equal(dense_operator(hg), np.zeros((4, 4)))


def test_operator_permutation_equivariance():
    rng = Rng(200)
    icd = random_hypergraph(rng)
    n = icd.shape[0]
    x = rng.normal(size=(n, 5))
    thetas = [glorot_init(5, 5, s) for s in rng.split(2)]
    out, _ = hconv_stack(x, build_hypergraph(icd), thetas)
    perm = Rng(201).permutation(n)
    out_p, _ = hconv_stack(x[perm], build_hypergraph(icd[perm]), thetas)
    assert np.allclose(out_p, out[perm], rtol=0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_row_stochastic_property(seed):
    hg = build_hypergraph(random_hypergraph(Rng(seed)))
    p = dense_operator(hg)
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


def test_zero_theta_stack_is_identity_bitwise():
    rng = Rng(300)
    icd = random_hypergraph(rng)
    n = icd.shape[0]
    x = rng.normal(size=(n, 6))
    thetas = [np.zeros((6, 6)) for _ in range(3)]
    out, _ = hconv_stack(x, build_hypergraph(icd), thetas)
    # tanh(P X 0) + X = X exactly, layer by layer
    assert np.array_equal(out, x)


def test_hconv_layer_validation():
    # every layer's theta must be square, of the feature width, over one
    # feature row per node
    hg = build_hypergraph(np.ones((3, 1)))
    with pytest.raises(ShapeError, match="square"):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((4, 5))])
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((5, 5))])
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((2, 4)), hg, [np.zeros((4, 4))])
    with pytest.raises(ShapeError):
        hconv_stack(np.zeros((3, 4)), hg, [np.zeros((4, 4)), np.zeros((3, 3))])


def test_eval_stack_keeps_no_cache_and_the_same_output():
    rng = Rng(301)
    icd = random_hypergraph(rng)
    x = rng.normal(size=(icd.shape[0], 6))
    thetas = [glorot_init(6, 6, s) for s in rng.split(3)]
    hg = build_hypergraph(icd)
    cached, cache = hconv_stack(x, hg, thetas)
    out, none = hconv_stack(x, hg, thetas, keep_cache=False)
    assert cache is not None and none is None
    assert np.array_equal(out, cached)


def test_empty_stack_is_identity_with_empty_cache():
    hg = build_hypergraph(np.ones((2, 1)))
    x = Rng(0).normal(size=(2, 3))
    out, (factors, caches) = hconv_stack(x, hg, [])
    assert np.array_equal(out, x)
    assert caches == []
    d_x, d_thetas = hconv_stack_backward(np.ones_like(x), (factors, caches), [])
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
        out, _ = hconv_stack(arrays["x"], hg, ts)
        return float((out * proj).sum())

    out, cache = hconv_stack(x, hg, thetas)
    d_x, d_thetas = hconv_stack_backward(proj, cache, thetas)
    params = {"x": x, "theta0": thetas[0], "theta1": thetas[1]}
    analytic = {"x": d_x, "theta0": d_thetas[0], "theta1": d_thetas[1]}
    assert finite_diff_check(loss, params, analytic) < 1e-6


def dense_stack(x, p, thetas, d_out):
    """The residual stack and its backward on a dense (N, N) operator P."""
    caches = []
    for theta in thetas:
        px = p @ x
        pre = px @ theta
        caches.append((px, pre))
        x = np.tanh(pre) + x
    d_thetas = [None] * len(thetas)
    d_x = d_out
    for i in reversed(range(len(thetas))):
        px, pre = caches[i]
        d_pre = d_x / np.cosh(pre) ** 2
        d_thetas[i] = px.T @ d_pre
        d_x = p.T @ (d_pre @ thetas[i].T) + d_x
    return x, d_x, d_thetas


def test_stack_matches_dense_operator_stack():
    rng = Rng(500)
    graphs = [np.zeros((5, 3)),                                  # K = 0
              np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])]    # an isolated node
    graphs += [random_hypergraph(rng) for _ in range(98)]
    worst = 0.0  # largest difference relative to max(1, largest reference entry)
    for icd in graphs:
        hg = build_hypergraph(icd)
        n = hg.n_nodes
        x = rng.normal(size=(n, 6))
        thetas = [rng.normal(scale=0.5, size=(6, 6)) for _ in range(3)]
        d_out = rng.normal(size=(n, 6))
        out, cache = hconv_stack(x, hg, thetas)
        d_x, d_thetas = hconv_stack_backward(d_out, cache, thetas)
        ref_out, ref_dx, ref_dthetas = dense_stack(x, operator_oracle(icd), thetas, d_out)
        for got, ref in zip([out, d_x, *d_thetas], [ref_out, ref_dx, *ref_dthetas]):
            worst = max(worst, float(np.abs(got - ref).max() / max(1.0, np.abs(ref).max())))
    # the dense stack differs in rounding order and reads tanh' as sech^2
    # rather than 1 - tanh^2: measured 1.1e-15
    assert worst < 1e-14, worst


def test_stack_never_holds_an_n_by_n_array():
    # forward plus backward at N = 2000 must peak below one (N, N) float64
    # array; a dense operator alone takes 30.5 MB
    n, width = 2000, 79
    rng = Rng(600)
    hg = build_hypergraph((rng.random((n, 20)) < 0.15).astype(np.float64))
    x = rng.normal(size=(n, width))
    thetas = [glorot_init(width, width, s) for s in rng.split(3)]
    d_out = rng.normal(size=(n, width))
    tracemalloc.start()
    try:
        _, cache = hconv_stack(x, hg, thetas)
        hconv_stack_backward(d_out, cache, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, peak
