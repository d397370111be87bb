"""GRU encoder: forward values, BPTT gradients, fusion."""

import numpy as np
import pytest

from hgrc.encoder import (encode_batch, encode_batch_backward, encode_sequence, fuse,
                          fuse_batch, gru_cell, init_gru_params)
from hgrc.errors import ShapeError
from hgrc.numeric import Rng, finite_diff_check


def scalar_params():
    return dict(
        w_z=np.array([[0.5]]), u_z=np.array([[-0.3]]), b_z=np.array([0.1]),
        w_r=np.array([[0.2]]), u_r=np.array([[0.4]]), b_r=np.array([-0.2]),
        w_h=np.array([[0.7]]), u_h=np.array([[0.6]]), b_h=np.array([0.05]),
    )


def gru_params(input_size, hidden_size, rng):
    """Initialised GRU parameters for M inputs and d hidden units."""
    shapes = {"w": (hidden_size, input_size), "u": (hidden_size, hidden_size),
              "b": (hidden_size,)}
    p = {f"{kind}_{gate}": np.full(shapes[kind], np.nan) for gate in "zrh" for kind in "wub"}
    init_gru_params(p, rng)
    return p


def test_gru_cell_single_step_hand_values():
    # z = sigmoid(0.41), r = sigmoid(0.08), c = tanh(0.61 + 0.18 r),
    # h = (1 - z) * 0.3 + z * c, worked out by hand
    h = gru_cell(np.array([0.8]), np.array([0.3]), scalar_params())
    assert np.allclose(h, [0.4843215882014216], rtol=0, atol=1e-15)


def test_encode_sequence_two_steps_hand_values():
    series = np.array([[0.8, -0.5]])  # (M=1, T=2)
    h = encode_sequence(series, scalar_params())
    assert np.allclose(h, [0.10137860073726401], rtol=0, atol=1e-15)


def test_initial_state_is_zero_and_zero_params_keep_it_zero():
    p = {name: np.zeros_like(a) for name, a in scalar_params().items()}
    series = Rng(0).normal(size=(4, 1, 6))
    h, _ = encode_batch(series, p)
    # h = (1 - z) h + z tanh(0) stays exactly 0 from h_0 = 0
    assert np.array_equal(h, np.zeros((4, 1)))


def test_hidden_state_is_bounded():
    p = gru_params(3, 5, Rng(1))
    series = Rng(2).normal(scale=50.0, size=(7, 3, 20))
    h, _ = encode_batch(series, p)
    assert np.all(np.abs(h) <= 1.0)


def test_encode_batch_matches_per_patient_encoding():
    p = gru_params(2, 4, Rng(3))
    series = Rng(4).normal(size=(5, 2, 6))
    batch_h, _ = encode_batch(series, p)
    for i in range(5):
        assert np.allclose(batch_h[i], encode_sequence(series[i], p), rtol=0, atol=1e-15)


def test_encode_batch_input_validation():
    p = gru_params(2, 3, Rng(0))
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 2)), p)
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 3, 5)), p)
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 2, 0)), p)
    with pytest.raises(ShapeError, match="impute"):
        encode_batch(np.full((1, 2, 3), np.nan), p)
    with pytest.raises(ShapeError):
        gru_cell(np.zeros(3), np.zeros(3), p)


def test_bptt_gradients_match_finite_differences():
    p = gru_params(2, 3, Rng(10))
    series = Rng(11).normal(size=(4, 2, 5))
    proj = Rng(12).normal(size=(4, 3))  # random loss projection

    def loss(arrays):
        h, _ = encode_batch(series, arrays)
        return float((h * proj).sum())

    h, cache = encode_batch(series, p)
    grads, _ = encode_batch_backward(proj, cache, p)
    err = finite_diff_check(loss, p, grads)
    assert err < 1e-6


def test_bptt_series_gradient_matches_finite_differences():
    p = gru_params(2, 3, Rng(20))
    series = Rng(21).normal(size=(3, 2, 4))
    proj = Rng(22).normal(size=(3, 3))

    def loss(arrays):
        h, _ = encode_batch(arrays["series"], p)
        return float((h * proj).sum())

    _, cache = encode_batch(series, p)
    _, d_series = encode_batch_backward(proj, cache, p)
    err = finite_diff_check(loss, {"series": series}, {"series": d_series})
    assert err < 1e-6


def test_zero_upstream_gradient_gives_zero_grads():
    p = gru_params(2, 3, Rng(30))
    series = Rng(31).normal(size=(4, 2, 5))
    _, cache = encode_batch(series, p)
    grads, d_series = encode_batch_backward(np.zeros((4, 3)), cache, p)
    for arr in grads.values():
        assert np.array_equal(arr, np.zeros_like(arr))
    assert np.array_equal(d_series, np.zeros_like(series))


def test_init_gru_params_shapes_and_zero_biases():
    p = gru_params(7, 4, Rng(0))
    limit = np.sqrt(6.0 / 11.0)
    for name in ("w_z", "w_r", "w_h"):
        assert p[name].shape == (4, 7)
        assert np.all(np.abs(p[name]) <= limit) and np.all(p[name] != 0.0)
    for name in ("u_z", "u_r", "u_h"):
        assert p[name].shape == (4, 4)
        assert np.all(np.isfinite(p[name])) and np.all(p[name] != 0.0)
    for name in ("b_z", "b_r", "b_h"):
        assert np.array_equal(p[name], np.zeros(4))
    # one stream per weight: no two matrices share their draws
    assert not np.array_equal(p["w_z"], p["w_r"])
    assert not np.array_equal(p["u_z"], p["u_h"])


def test_fuse_concatenates_hidden_then_codes():
    h = np.array([1.0, 2.0])
    icd = np.array([0.0, 1.0, 1.0])
    assert np.array_equal(fuse(h, icd), [1.0, 2.0, 0.0, 1.0, 1.0])
    hb = np.array([[1.0, 2.0], [3.0, 4.0]])
    cb = np.array([[1.0], [0.0]])
    assert np.array_equal(fuse_batch(hb, cb), [[1.0, 2.0, 1.0], [3.0, 4.0, 0.0]])
    with pytest.raises(ShapeError):
        fuse_batch(hb, np.zeros((3, 1)))
