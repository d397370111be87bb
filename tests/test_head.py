"""FFN ensemble head: stacked members, attention gating, losses, backward."""

import math

import numpy as np
import pytest

from hgrc.errors import ConfigError, ShapeError
from hgrc.head import (PROB_CLAMP, attention_weights, ensemble_predict, head_backward,
                       head_forward, init_ensemble_params, make_dropout_masks,
                       per_patient_losses, total_loss)
from hgrc.numeric import Rng, dropout_mask, finite_diff_check, glorot_init, softmax


def ensemble_params(width, hidden, n_members, rng):
    """Initialised stacked (ffn, attn) for input width q, hidden (h1, h2), L members."""
    h1, h2 = hidden
    shapes = {"w1": (width, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
              "wy": (h2, 2), "by": (2,)}
    ffn = {name: np.full((n_members,) + shape, np.nan) for name, shape in shapes.items()}
    attn = {"w_beta": np.full((width, n_members), np.nan),
            "b_beta": np.full(n_members, np.nan)}
    init_ensemble_params(ffn, attn, rng)
    return ffn, attn


def nudged_ensemble(seed, width=3, hidden=(4, 3), members=2, scale=0.3):
    """Ensemble away from the zero-output saddle so every gradient is live."""
    ens = ensemble_params(width, hidden, members, Rng(seed))
    nudge = Rng(seed + 1000)
    for arr in ensemble_arrays(ens).values():
        arr += nudge.normal(scale=scale, size=arr.shape)
    return ens


def ensemble_arrays(ens):
    ffn, attn = ens
    out = {f"ffn.{name}": arr for name, arr in ffn.items()}
    out["w_beta"] = attn["w_beta"]
    out["b_beta"] = attn["b_beta"]
    return out


def zeros_like(ens):
    ffn, attn = ens
    return ({name: np.zeros_like(arr) for name, arr in ffn.items()},
            {name: np.zeros_like(arr) for name, arr in attn.items()})


# ------------------------------------------------- per-member reference head


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


def reference_head(x, labels, ffn, attn, masks):
    """The ensemble as L separate 2-D members, looped: the stacked head's oracle.

    Returns (probs (L, N, 2), beta, loss, prediction, gradients keyed like
    ensemble_arrays, d_x).
    """
    n_members = ffn["w1"].shape[0]
    members = [{name: arr[i] for name, arr in ffn.items()} for i in range(n_members)]
    pairs = [None] * n_members if masks is None else list(zip(*masks))
    outs = [member_forward(x, m, pair) for m, pair in zip(members, pairs)]
    beta = attention_weights(x, attn)
    losses = np.stack([per_patient_losses(p, labels) for p, _ in outs], axis=1)
    loss = float((beta * losses).sum(axis=1).mean())
    prediction = (beta[:, :, None] * np.stack([p for p, _ in outs], axis=1)).sum(axis=1)

    n = x.shape[0]
    y = labels.astype(np.float64)
    d_beta = losses / n
    d_x = np.zeros_like(x)
    member_grads = []
    for i, (m, pair, (probs, cache)) in enumerate(zip(members, pairs, outs)):
        p1 = probs[:, 1]
        inside = (p1 > PROB_CLAMP) & (p1 < 1.0 - PROB_CLAMP)
        p1c = np.clip(p1, PROB_CLAMP, 1.0 - PROB_CLAMP)
        d_p1 = beta[:, i] / n * np.where(inside, -(y / p1c - (1.0 - y) / (1.0 - p1c)), 0.0)
        d_logit1 = d_p1 * p1 * (1.0 - p1)
        grads, d_x_member = member_backward(x, np.stack([-d_logit1, d_logit1], axis=1),
                                            cache, m, pair)
        member_grads.append(grads)
        d_x += d_x_member
    inner = (d_beta * beta).sum(axis=1, keepdims=True)
    d_attn_logits = beta * (d_beta - inner)
    grads = {f"ffn.{name}": np.stack([g[name] for g in member_grads]) for name in ffn}
    grads["w_beta"] = x.T @ d_attn_logits
    grads["b_beta"] = d_attn_logits.sum(axis=0)
    d_x += d_attn_logits @ attn["w_beta"].T
    probs = np.stack([p for p, _ in outs])
    return probs, beta, loss, prediction, grads, d_x


@pytest.mark.parametrize("masked", [False, True], ids=["no_masks", "masks"])
@pytest.mark.parametrize("n_members", [1, 3])
def test_stacked_head_equals_the_per_member_oracle_bitwise(n_members, masked):
    ens = nudged_ensemble(90 + n_members, width=5, hidden=(6, 4), members=n_members)
    x = Rng(91).normal(size=(40, 5))
    labels = (Rng(92).random(40) < 0.3).astype(int)
    masks = make_dropout_masks(40, ens[0], 0.25, Rng(93)) if masked else None

    probs, beta, cache = head_forward(x, *ens, masks)
    grads = zeros_like(ens)
    d_x = head_backward(cache, labels, *ens, grads)
    ref_probs, ref_beta, ref_loss, ref_prediction, ref_grads, ref_d_x = reference_head(
        x, labels, *ens, masks)

    assert probs.shape == (n_members, 40, 2)
    assert np.array_equal(probs, ref_probs)
    assert np.array_equal(beta, ref_beta)
    assert total_loss(probs, beta, labels) == ref_loss
    assert np.array_equal(ensemble_predict(probs, beta), ref_prediction)
    for name, grad in ensemble_arrays(grads).items():
        assert np.array_equal(grad, ref_grads[name]), name
    assert np.array_equal(d_x, ref_d_x)


# ------------------------------------------------------------------- init


def test_initial_member_probabilities_are_exactly_half():
    ens = ensemble_params(5, (4, 3), 3, Rng(0))
    x = Rng(1).normal(size=(7, 5))
    member_probs, _, _ = head_forward(x, *ens, None)
    # zero output layer -> logits (0, 0) -> softmax (0.5, 0.5)
    assert np.array_equal(member_probs, np.full((3, 7, 2), 0.5))


def test_initial_total_loss_is_ln_two():
    ens = ensemble_params(4, (3, 3), 2, Rng(2))
    x = Rng(3).normal(size=(6, 4))
    member_probs, beta, _ = head_forward(x, *ens, None)
    labels = np.array([0, 1, 1, 0, 1, 0])
    loss = total_loss(member_probs, beta, labels)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_init_validation_and_shapes():
    with pytest.raises(ConfigError):
        ensemble_params(3, (2, 2), 0, Rng(0))
    ffn, attn = ensemble_params(3, (5, 4), 2, Rng(0))
    assert attn["w_beta"].shape == (3, 2)
    assert np.array_equal(attn["b_beta"], np.zeros(2))
    assert ffn["w1"].shape == (2, 3, 5) and ffn["w2"].shape == (2, 5, 4)
    assert np.array_equal(ffn["wy"], np.zeros((2, 4, 2)))
    assert np.array_equal(ffn["by"], np.zeros((2, 2)))
    # every array is written: no fill value survives the initialisation
    assert all(np.all(np.isfinite(a)) for a in ensemble_arrays((ffn, attn)).values())


def test_each_member_slice_draws_from_its_own_stream():
    ffn, attn = ensemble_params(3, (5, 4), 3, Rng(8))
    streams = Rng(8).split(4)
    for i, stream in enumerate(streams[:-1]):
        s1, s2 = stream.split(2)
        assert np.array_equal(ffn["w1"][i], glorot_init(3, 5, s1))
        assert np.array_equal(ffn["w2"][i], glorot_init(5, 4, s2))
    assert np.array_equal(attn["w_beta"], glorot_init(3, 3, streams[-1]))
    mask1, mask2 = make_dropout_masks(6, ffn, 0.5, Rng(9))
    for i, stream in enumerate(Rng(9).split(3)):
        s1, s2 = stream.split(2)
        assert np.array_equal(mask1[i], dropout_mask((6, 5), 0.5, s1))
        assert np.array_equal(mask2[i], dropout_mask((6, 4), 0.5, s2))


# ------------------------------------------------------------------ losses


def test_per_patient_losses_hand_values():
    probs = np.array([[0.8, 0.2], [0.1, 0.9]])
    labels = np.array([0, 1])
    losses = per_patient_losses(probs, labels)
    assert np.allclose(losses, [-math.log(0.8), -math.log(0.9)], rtol=0, atol=1e-15)
    # stacked members give one row of losses per member
    stacked = per_patient_losses(np.stack([probs, probs[::-1]]), labels)
    assert stacked.shape == (2, 2) and np.array_equal(stacked[0], losses)
    # a single member with beta = 1 is gated to the mean cross-entropy
    assert np.isclose(total_loss(probs[None], np.ones((2, 1)), labels),
                      (-math.log(0.8) - math.log(0.9)) / 2.0)


def test_per_patient_losses_clamp_keeps_loss_finite():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 0])  # both maximally wrong
    losses = per_patient_losses(probs, labels)
    assert np.all(np.isfinite(losses))
    # the death-probability clamp floor is hit exactly for the positive case;
    # the negative case goes through 1 - (1 - 1e-12) and picks up rounding
    assert losses[0] == -math.log(1e-12)
    assert np.allclose(losses, -math.log(1e-12), rtol=1e-5)


def test_label_validation():
    probs = np.full((2, 2), 0.5)
    with pytest.raises(ConfigError):
        per_patient_losses(probs, np.array([0, 2]))
    with pytest.raises(ShapeError):
        per_patient_losses(probs, np.zeros((2, 1)))


def test_total_loss_gates_each_patient_by_its_own_beta():
    member_probs = np.array([[[0.3, 0.7], [0.6, 0.4]],
                             [[0.5, 0.5], [0.2, 0.8]]])
    labels = np.array([1, 0])
    beta = np.array([[0.9, 0.1], [0.25, 0.75]])
    loss = total_loss(member_probs, beta, labels)
    expected = (0.9 * -math.log(0.7) + 0.1 * -math.log(0.5)
                + 0.25 * -math.log(0.6) + 0.75 * -math.log(0.2)) / 2.0
    assert np.isclose(loss, expected, rtol=0, atol=1e-15)


def test_total_loss_validation():
    probs = np.full((1, 2, 2), 0.5)
    with pytest.raises(ShapeError):
        total_loss(probs, np.ones((2, 2)), np.array([0, 1]))


# -------------------------------------------------------------- prediction


def test_ensemble_predict_beta_is_convex_combination():
    member_probs = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
    beta = np.array([[0.25, 0.75]])
    out = ensemble_predict(member_probs, beta)
    assert np.allclose(out, [[0.25 * 0.9 + 0.75 * 0.1, 0.25 * 0.1 + 0.75 * 0.9]])
    assert np.allclose(out.sum(axis=1), 1.0)


def test_ensemble_predict_validation():
    probs = np.full((1, 2, 2), 0.5)
    with pytest.raises(ShapeError):
        ensemble_predict(probs, np.ones((3, 1)))


def test_attention_weights_are_row_distributions():
    ens = nudged_ensemble(40)
    x = Rng(41).normal(size=(9, 3))
    beta = attention_weights(x, ens[1])
    assert beta.shape == (9, 2)
    assert np.all(beta > 0.0)
    assert np.allclose(beta.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# ----------------------------------------------------------------- dropout


def test_dropout_masks_shapes_and_determinism():
    ffn, _ = ensemble_params(3, (4, 5), 2, Rng(0))
    mask1, mask2 = make_dropout_masks(6, ffn, 0.5, Rng(7))
    assert mask1.shape == (2, 6, 4)
    assert mask2.shape == (2, 6, 5)
    again = make_dropout_masks(6, ffn, 0.5, Rng(7))
    assert np.array_equal(mask1, again[0]) and np.array_equal(mask2, again[1])
    values = np.unique(np.concatenate([mask1.ravel(), mask2.ravel()]))
    assert set(values).issubset({0.0, 2.0})


def test_dropout_masks_change_the_forward():
    ens = nudged_ensemble(50)
    x = Rng(51).normal(size=(8, 3))
    masks = make_dropout_masks(8, ens[0], 0.5, Rng(52))
    probs_m, _, _ = head_forward(x, *ens, masks)
    probs, _, _ = head_forward(x, *ens, None)
    assert not np.array_equal(probs_m, probs)


# ---------------------------------------------------------------- backward


def test_head_backward_matches_finite_differences():
    ens = nudged_ensemble(60)
    x = Rng(61).normal(size=(5, 3))
    labels = np.array([0, 1, 1, 0, 1])

    def loss(_arrays):
        # the checker perturbs the ensemble's arrays in place
        member_probs, beta, _ = head_forward(x, *ens, None)
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, None)
    grads = zeros_like(ens)
    head_backward(cache, labels, *ens, grads)
    err = finite_diff_check(loss, ensemble_arrays(ens), ensemble_arrays(grads))
    assert err < 1e-6


def test_head_backward_input_gradient_matches_finite_differences():
    ens = nudged_ensemble(70)
    labels = np.array([1, 0, 1])
    x = Rng(71).normal(size=(3, 3))

    def loss(arrays):
        member_probs, beta, _ = head_forward(arrays["x"], *ens, None)
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, None)
    d_x = head_backward(cache, labels, *ens, zeros_like(ens))
    assert finite_diff_check(loss, {"x": x}, {"x": d_x}) < 1e-6


def test_head_backward_respects_dropout_masks():
    ens = nudged_ensemble(80)
    x = Rng(81).normal(size=(4, 3))
    labels = np.array([0, 1, 0, 1])
    masks = make_dropout_masks(4, ens[0], 0.5, Rng(82))

    def loss(_arrays):
        member_probs, beta, _ = head_forward(x, *ens, masks)
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, masks)
    grads = zeros_like(ens)
    head_backward(cache, labels, *ens, grads)
    err = finite_diff_check(loss, ensemble_arrays(ens), ensemble_arrays(grads))
    assert err < 1e-6
