"""Similarity graph: pairwise scores, learnable threshold, GCN aggregation."""

import numpy as np
import pytest

from hgrc.errors import ConfigError, ShapeError
from hgrc.numeric import Rng, activation, finite_diff_check, sigmoid
from hgrc.simgraph import (gcn_aggregate, gcn_aggregate_backward, similarity,
                           similarity_backward, threshold, threshold_backward)

# ------------------------------------------------------------- similarity


def test_similarity_hand_values_and_symmetry():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = similarity(x)
    assert np.allclose(a, [[1.25, 2.75], [2.75, 6.25]], rtol=0, atol=1e-15)
    z = Rng(0).normal(size=(6, 4))
    a = similarity(z)
    assert np.array_equal(a, a.T)


def test_similarity_scaling_uses_squared_width():
    z = Rng(1).normal(size=(3, 5))
    assert np.allclose(similarity(z), (z @ z.T) / 25.0, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError):
        similarity(np.zeros(4))


def test_similarity_backward_matches_finite_differences():
    x = Rng(2).normal(size=(4, 3))
    proj = Rng(3).normal(size=(4, 4))  # deliberately asymmetric

    def loss(arrays):
        return float((similarity(arrays["x"]) * proj).sum())

    d_x = similarity_backward(proj, x)
    assert finite_diff_check(loss, {"x": x}, {"x": d_x}) < 1e-7


# -------------------------------------------------------------- threshold


def test_threshold_train_is_sigmoid_relaxation():
    a = np.array([[0.3, 0.5], [0.5, 0.9]])
    out = threshold(a, zeta=0.4, temperature=50.0, mode="train")
    assert np.allclose(out, sigmoid(50.0 * (a - 0.4)), rtol=0, atol=1e-15)
    assert np.all((out > 0.0) & (out < 1.0))


def test_threshold_eval_is_strict_indicator():
    a = np.array([[0.39, 0.4], [0.41, 0.9]])
    out = threshold(a, zeta=0.4, temperature=50.0, mode="eval")
    # ties at zeta fall on the disconnected side
    assert np.array_equal(out, [[0.0, 0.0], [1.0, 1.0]])


def test_threshold_validation():
    with pytest.raises(ConfigError):
        threshold(np.zeros((2, 2)), 0.4, temperature=0.0, mode="train")
    with pytest.raises(ConfigError):
        threshold(np.zeros((2, 2)), 0.4, temperature=50.0, mode="hard")


def test_threshold_backward_matches_finite_differences():
    a = Rng(7).normal(scale=0.2, size=(3, 3)) + 0.4
    proj = Rng(8).normal(size=(3, 3))
    tau = 5.0  # gentle slope keeps the central difference honest

    def loss(arrays):
        out = threshold(arrays["a"], float(arrays["zeta"]), tau, mode="train")
        return float((out * proj).sum())

    zeta = np.array(0.37)
    soft = threshold(a, float(zeta), tau, mode="train")
    d_a, d_zeta = threshold_backward(proj, soft, tau)
    params = {"a": a, "zeta": zeta}
    analytic = {"a": d_a, "zeta": np.array(d_zeta)}
    assert finite_diff_check(loss, params, analytic) < 1e-7


# ------------------------------------------------------------ aggregation


def test_gcn_identity_adjacency_reduces_to_dense_layer():
    x = Rng(9).normal(size=(4, 3))
    phi = Rng(10).normal(size=(3, 2))
    out, _ = gcn_aggregate(x, np.zeros((4, 4)), phi, kind="tanh")
    # A' = 0 means self-loops only: out = tanh(x phi)
    assert np.allclose(out, np.tanh(x @ phi), rtol=0, atol=1e-15)


def test_gcn_hand_values_symmetric_pair():
    # A' fully connects two nodes; with x = phi = I the normalized
    # adjacency is all 0.5 and relu passes it through
    out, _ = gcn_aggregate(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2), "relu")
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_similarity_and_gcn_equal_their_formulas_bitwise(mode):
    rng = Rng(13)
    z = rng.normal(size=(12, 5))
    phi = rng.normal(size=(5, 3))
    a = similarity(z)
    assert np.array_equal(a, (z @ z.T) / 25.0)
    # zeta at the median similarity: half the pairs are edges
    a_prime = threshold(a, float(np.median(a)), 50.0, mode)
    assert 0.3 < (a_prime > 0.5).mean() < 0.7
    a_before = a_prime.copy()
    out, cache = gcn_aggregate(z, a_prime, phi, "relu")
    assert np.array_equal(a_prime, a_before)  # threshold_backward reads a_prime

    a_tilde = a_prime + np.eye(12)
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    s_norm = a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
    assert np.array_equal(cache[1], a_tilde)
    assert np.array_equal(cache[4], s_norm)
    assert np.array_equal(out, activation(s_norm @ (z @ phi), "relu"))


def test_gcn_validation():
    with pytest.raises(ShapeError):
        gcn_aggregate(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)), "relu")
    with pytest.raises(ShapeError):
        gcn_aggregate(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)), "relu")
    with pytest.raises(ConfigError, match="degrees"):
        gcn_aggregate(np.zeros((2, 2)), np.array([[-2.0, 0.0], [0.0, 0.0]]),
                      np.zeros((2, 2)), "relu")


def test_gcn_backward_matches_finite_differences():
    rng = Rng(11)
    x = rng.normal(size=(4, 3))
    a_prime = sigmoid(rng.normal(size=(4, 4)))  # entries in (0, 1), no symmetry needed
    phi = rng.normal(scale=0.5, size=(3, 2))
    proj = rng.normal(size=(4, 2))

    def loss(arrays):
        out, _ = gcn_aggregate(arrays["x"], arrays["a"], arrays["phi"], kind="tanh")
        return float((out * proj).sum())

    _, cache = gcn_aggregate(x, a_prime, phi, kind="tanh")
    d_x, d_a_tilde, d_phi = gcn_aggregate_backward(proj, cache, phi)
    # d a_tilde equals d a_prime because a_tilde = a_prime + I
    params = {"x": x, "a": a_prime, "phi": phi}
    analytic = {"x": d_x, "a": d_a_tilde, "phi": d_phi}
    assert finite_diff_check(loss, params, analytic) < 1e-6


def test_gcn_degree_correction_is_exercised():
    # the naive gradient without the degree term is measurably wrong
    rng = Rng(12)
    x = rng.normal(size=(3, 2))
    a_prime = sigmoid(rng.normal(size=(3, 3)))
    phi = rng.normal(size=(2, 2))
    proj = rng.normal(size=(3, 2))
    out, cache = gcn_aggregate(x, a_prime, phi, kind="tanh")
    _, d_a_tilde, _ = gcn_aggregate_backward(proj, cache, phi)
    _, a_tilde, deg, inv_sqrt, s_norm, m, pre, kind = cache
    d_pre = proj * (1.0 - np.tanh(pre) ** 2)
    naive = (d_pre @ m.T) * np.outer(inv_sqrt, inv_sqrt)
    assert not np.allclose(naive, d_a_tilde, rtol=0, atol=1e-6)

    def loss(arrays):
        o, _ = gcn_aggregate(x, arrays["a"], phi, kind="tanh")
        return float((o * proj).sum())

    assert finite_diff_check(loss, {"a": a_prime}, {"a": d_a_tilde}) < 1e-6
    assert finite_diff_check(loss, {"a": a_prime}, {"a": naive}) > 1e-3
