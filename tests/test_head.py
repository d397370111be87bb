"""FFN risk head: forward, loss, backward, initialisation and dropout masks."""

import math

import numpy as np
import pytest

from hgrc.errors import ConfigError, ShapeError
from hgrc.head import (PROB_CLAMP, head_backward, head_forward, init_head_params,
                       make_dropout_masks, per_patient_losses, total_loss)
from hgrc.numeric import Rng, dropout_mask, finite_diff_check, glorot_init, softmax


def head_params(width, hidden, rng):
    """Initialised ffn arrays for input width q and hidden widths (h1, h2)."""
    h1, h2 = hidden
    shapes = {"w1": (width, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
              "wy": (h2, 2), "by": (2,)}
    ffn = {name: np.full(shape, np.nan) for name, shape in shapes.items()}
    init_head_params(ffn, rng)
    return ffn


def nudged_head(seed, width=3, hidden=(4, 3), scale=0.3):
    """Head away from the zero-output saddle so every gradient is live."""
    ffn = head_params(width, hidden, Rng(seed))
    nudge = Rng(seed + 1000)
    for arr in ffn.values():
        arr += nudge.normal(scale=scale, size=arr.shape)
    return ffn


def zeros_like(ffn):
    return {name: np.zeros_like(arr) for name, arr in ffn.items()}


# ------------------------------------------------------ member reference head


def member_forward(x, m, mask_pair):
    """One member on 2-D arrays: two tanh layers, then a two-class softmax."""
    h1 = np.tanh(x @ m["w1"] + m["b1"])
    h1d = h1 * mask_pair[0] if mask_pair is not None else h1
    h2 = np.tanh(h1d @ m["w2"] + m["b2"])
    h2d = h2 * mask_pair[1] if mask_pair is not None else h2
    probs = softmax(h2d @ m["wy"] + m["by"], axis=1)
    return probs, (h1, h1d, h2, h2d)


def member_backward(x, d_logits, cache, m, mask_pair):
    """One member's parameter gradients and its d_x, on 2-D arrays."""
    h1, h1d, h2, h2d = cache
    grads = {"wy": h2d.T @ d_logits, "by": d_logits.sum(axis=0)}
    d_h2d = d_logits @ m["wy"].T
    d_h2 = d_h2d * mask_pair[1] if mask_pair is not None else d_h2d
    d_pre2 = d_h2 * (1.0 - h2 * h2)
    grads["w2"] = h1d.T @ d_pre2
    grads["b2"] = d_pre2.sum(axis=0)
    d_h1d = d_pre2 @ m["w2"].T
    d_h1 = d_h1d * mask_pair[0] if mask_pair is not None else d_h1d
    d_pre1 = d_h1 * (1.0 - h1 * h1)
    grads["w1"] = x.T @ d_pre1
    grads["b1"] = d_pre1.sum(axis=0)
    return grads, d_pre1 @ m["w1"].T


def reference_d_logits(probs, labels):
    """d(mean cross-entropy)/d(logits), written out from the clamp and softmax."""
    n = probs.shape[0]
    y = labels.astype(np.float64)
    p1 = probs[:, 1]
    inside = (p1 > PROB_CLAMP) & (p1 < 1.0 - PROB_CLAMP)
    p1c = np.clip(p1, PROB_CLAMP, 1.0 - PROB_CLAMP)
    d_p1 = 1.0 / n * np.where(inside, -(y / p1c - (1.0 - y) / (1.0 - p1c)), 0.0)
    d_logit1 = d_p1 * p1 * (1.0 - p1)
    return np.stack([-d_logit1, d_logit1], axis=1)


@pytest.mark.parametrize("masked", [False, True], ids=["no_masks", "masks"])
@pytest.mark.parametrize("calls", [1, 3])
def test_head_equals_the_member_oracle_bitwise(calls, masked):
    ffn = nudged_head(91, width=5, hidden=(6, 4))
    x = Rng(91).normal(size=(40, 5))
    labels = (Rng(92).random(40) < 0.3).astype(int)
    masks = make_dropout_masks(40, ffn, 0.25, Rng(93)) if masked else None

    probs, cache = head_forward(x, ffn, masks)
    ref_probs, ref_cache = member_forward(x, ffn, masks)
    ref_grads, ref_d_x = member_backward(x, reference_d_logits(ref_probs, labels),
                                         ref_cache, ffn, masks)
    # head_backward adds into grads: `calls` passes sum the oracle's gradient
    grads = zeros_like(ffn)
    ref_sum = zeros_like(ffn)
    for _ in range(calls):
        d_x = head_backward(cache, labels, ffn, grads)
        assert np.array_equal(d_x, ref_d_x)
        for name in ref_sum:
            ref_sum[name] += ref_grads[name]

    assert probs.shape == (40, 2)
    assert np.array_equal(probs, ref_probs)
    assert total_loss(probs, labels) == float(per_patient_losses(ref_probs, labels).mean())
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_sum[name]), name


# ------------------------------------------------------------------- init


def test_initial_probabilities_are_exactly_half():
    ffn = head_params(5, (4, 3), Rng(0))
    x = Rng(1).normal(size=(7, 5))
    probs, _ = head_forward(x, ffn, None)
    # zero output layer -> logits (0, 0) -> softmax (0.5, 0.5)
    assert np.array_equal(probs, np.full((7, 2), 0.5))


def test_initial_total_loss_is_ln_two():
    ffn = head_params(4, (3, 3), Rng(2))
    x = Rng(3).normal(size=(6, 4))
    probs, _ = head_forward(x, ffn, None)
    labels = np.array([0, 1, 1, 0, 1, 0])
    loss = total_loss(probs, labels)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_init_validation_and_shapes():
    ffn = head_params(3, (5, 4), Rng(0))
    assert ffn["w1"].shape == (3, 5) and ffn["w2"].shape == (5, 4)
    assert np.array_equal(ffn["b1"], np.zeros(5)) and np.array_equal(ffn["b2"], np.zeros(4))
    assert np.array_equal(ffn["wy"], np.zeros((4, 2)))
    assert np.array_equal(ffn["by"], np.zeros(2))
    # every array is written: no fill value survives the initialisation
    assert all(np.all(np.isfinite(a)) for a in ffn.values())


def test_hidden_layers_draw_from_the_first_child_stream():
    # child (0,) of the stream, then one grandchild per hidden layer: the
    # streams the one-member ensemble drew from, so trained weights carry over
    ffn = head_params(3, (5, 4), Rng(8))
    s1, s2 = Rng(8).split(1)[0].split(2)
    assert np.array_equal(ffn["w1"], glorot_init(3, 5, s1))
    assert np.array_equal(ffn["w2"], glorot_init(5, 4, s2))
    assert np.array_equal(ffn["w1"], glorot_init(3, 5, Rng(8).split(2)[0].split(2)[0]))
    mask1, mask2 = make_dropout_masks(6, ffn, 0.5, Rng(9))
    s1, s2 = Rng(9).split(1)[0].split(2)
    assert np.array_equal(mask1, dropout_mask((6, 5), 0.5, s1, ffn["w1"].dtype))
    assert np.array_equal(mask2, dropout_mask((6, 4), 0.5, s2, ffn["w1"].dtype))


# ------------------------------------------------------------------ losses


def test_per_patient_losses_hand_values():
    probs = np.array([[0.8, 0.2], [0.1, 0.9]])
    labels = np.array([0, 1])
    losses = per_patient_losses(probs, labels)
    assert np.allclose(losses, [-math.log(0.8), -math.log(0.9)], rtol=0, atol=1e-15)
    # the total is the mean cross-entropy
    assert np.isclose(total_loss(probs, labels), (-math.log(0.8) - math.log(0.9)) / 2.0,
                      rtol=0, atol=1e-15)


def test_per_patient_losses_clamp_keeps_loss_finite():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 0])  # both maximally wrong
    losses = per_patient_losses(probs, labels)
    assert np.all(np.isfinite(losses))
    # the death-probability clamp floor is hit exactly for the positive case;
    # the negative case goes through 1 - (1 - 1e-12) and picks up rounding
    assert losses[0] == -math.log(1e-12)
    assert np.allclose(losses, -math.log(1e-12), rtol=1e-5)


def test_float32_clamp_keeps_the_loss_finite():
    # 1 - 1e-12 rounds to 1 in float32, so there the clamp's upper end is the
    # largest float32 below 1, and log(1 - p) stays finite
    probs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    losses = per_patient_losses(probs, np.array([1, 0]))
    assert losses.dtype == np.float32 and np.all(np.isfinite(losses))
    assert np.isclose(losses[1], 24 * math.log(2.0), rtol=1e-6, atol=0)


def test_label_validation():
    probs = np.full((2, 2), 0.5)
    with pytest.raises(ConfigError):
        per_patient_losses(probs, np.array([0, 2]))
    with pytest.raises(ShapeError):
        per_patient_losses(probs, np.zeros((2, 1)))


def test_total_loss_validation():
    # one probability row would broadcast against two labels
    with pytest.raises(ShapeError):
        total_loss(np.full((1, 2), 0.5), np.array([0, 1]))
    with pytest.raises(ShapeError):
        total_loss(np.full((2, 3), 0.5), np.array([0, 1]))


# ----------------------------------------------------------------- dropout


def test_dropout_masks_shapes_and_determinism():
    ffn = head_params(3, (4, 5), Rng(0))
    mask1, mask2 = make_dropout_masks(6, ffn, 0.5, Rng(7))
    assert mask1.shape == (6, 4)
    assert mask2.shape == (6, 5)
    again = make_dropout_masks(6, ffn, 0.5, Rng(7))
    assert np.array_equal(mask1, again[0]) and np.array_equal(mask2, again[1])
    values = np.unique(np.concatenate([mask1.ravel(), mask2.ravel()]))
    assert set(values).issubset({0.0, 2.0})


def test_dropout_masks_change_the_forward():
    ffn = nudged_head(50)
    x = Rng(51).normal(size=(8, 3))
    masks = make_dropout_masks(8, ffn, 0.5, Rng(52))
    probs_m, _ = head_forward(x, ffn, masks)
    probs, _ = head_forward(x, ffn, None)
    assert not np.array_equal(probs_m, probs)


# ---------------------------------------------------------------- backward


def test_head_backward_matches_finite_differences():
    ffn = nudged_head(60)
    x = Rng(61).normal(size=(5, 3))
    labels = np.array([0, 1, 1, 0, 1])

    def loss(_arrays):
        # the checker perturbs the head's arrays in place
        return total_loss(head_forward(x, ffn, None)[0], labels)

    _, cache = head_forward(x, ffn, None)
    grads = zeros_like(ffn)
    head_backward(cache, labels, ffn, grads)
    assert finite_diff_check(loss, ffn, grads) < 1e-6


def test_head_backward_input_gradient_matches_finite_differences():
    ffn = nudged_head(70)
    labels = np.array([1, 0, 1])
    x = Rng(71).normal(size=(3, 3))

    def loss(arrays):
        return total_loss(head_forward(arrays["x"], ffn, None)[0], labels)

    _, cache = head_forward(x, ffn, None)
    d_x = head_backward(cache, labels, ffn, zeros_like(ffn))
    assert finite_diff_check(loss, {"x": x}, {"x": d_x}) < 1e-6


def test_head_backward_respects_dropout_masks():
    ffn = nudged_head(80)
    x = Rng(81).normal(size=(4, 3))
    labels = np.array([0, 1, 0, 1])
    masks = make_dropout_masks(4, ffn, 0.5, Rng(82))

    def loss(_arrays):
        return total_loss(head_forward(x, ffn, masks)[0], labels)

    _, cache = head_forward(x, ffn, masks)
    grads = zeros_like(ffn)
    head_backward(cache, labels, ffn, grads)
    assert finite_diff_check(loss, ffn, grads) < 1e-6
