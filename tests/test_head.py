"""FFN ensemble head: members, attention gating, losses, backward."""

import math

import numpy as np
import pytest

from hgrc.errors import ConfigError, ShapeError
from hgrc.head import (attention_weights, ensemble_predict, ffn_forward, head_backward,
                       head_forward, init_ensemble_params, make_dropout_masks, member_loss,
                       per_patient_losses, total_loss)
from hgrc.numeric import Rng, finite_diff_check


def ensemble_params(width, hidden, n_members, rng):
    """Initialised (members, attn) for input width q, hidden (h1, h2), L members."""
    h1, h2 = hidden
    shapes = {"w1": (width, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
              "wy": (h2, 2), "by": (2,)}
    members = [{name: np.full(shape, np.nan) for name, shape in shapes.items()}
               for _ in range(n_members)]
    attn = {"w_beta": np.full((width, n_members), np.nan),
            "b_beta": np.full(n_members, np.nan)}
    init_ensemble_params(members, attn, rng)
    return members, attn


def nudged_ensemble(seed, width=3, hidden=(4, 3), members=2, scale=0.3):
    """Ensemble away from the zero-output saddle so every gradient is live."""
    ens = ensemble_params(width, hidden, members, Rng(seed))
    nudge = Rng(seed + 1000)
    for arr in ensemble_arrays(ens).values():
        arr += nudge.normal(scale=scale, size=arr.shape)
    return ens


def ensemble_arrays(ens):
    members, attn = ens
    out = {}
    for i, m in enumerate(members):
        for name, arr in m.items():
            out[f"m{i}.{name}"] = arr
    out["w_beta"] = attn["w_beta"]
    out["b_beta"] = attn["b_beta"]
    return out


def zeros_like(ens):
    members, attn = ens
    return ([{name: np.zeros_like(arr) for name, arr in m.items()} for m in members],
            {name: np.zeros_like(arr) for name, arr in attn.items()})


# ------------------------------------------------------------------- init


def test_initial_member_probabilities_are_exactly_half():
    members, _ = ensemble_params(5, (4, 3), 3, Rng(0))
    x = Rng(1).normal(size=(7, 5))
    for m in members:
        probs = ffn_forward(x, m)
        # zero output layer -> logits (0, 0) -> softmax (0.5, 0.5)
        assert np.array_equal(probs, np.full((7, 2), 0.5))


def test_initial_total_loss_is_ln_two():
    ens = ensemble_params(4, (3, 3), 2, Rng(2))
    x = Rng(3).normal(size=(6, 4))
    member_probs, beta, _ = head_forward(x, *ens)
    labels = np.array([0, 1, 1, 0, 1, 0])
    loss = total_loss(member_probs, beta, labels)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_init_validation_and_shapes():
    with pytest.raises(ConfigError):
        ensemble_params(3, (2, 2), 0, Rng(0))
    members, attn = ensemble_params(3, (5, 4), 2, Rng(0))
    assert len(members) == 2
    assert attn["w_beta"].shape == (3, 2)
    assert np.array_equal(attn["b_beta"], np.zeros(2))
    m = members[0]
    assert m["w1"].shape == (3, 5) and m["w2"].shape == (5, 4) and m["wy"].shape == (4, 2)
    assert np.array_equal(m["wy"], np.zeros((4, 2)))
    assert np.array_equal(m["by"], np.zeros(2))
    # every array is written: no fill value survives the initialisation
    assert all(np.all(np.isfinite(a)) for a in ensemble_arrays((members, attn)).values())


# ------------------------------------------------------------------ losses


def test_per_patient_losses_hand_values():
    probs = np.array([[0.8, 0.2], [0.1, 0.9]])
    labels = np.array([0, 1])
    losses = per_patient_losses(probs, labels)
    assert np.allclose(losses, [-math.log(0.8), -math.log(0.9)], rtol=0, atol=1e-15)
    assert np.isclose(member_loss(probs, labels),
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
    member_probs = [np.array([[0.3, 0.7], [0.6, 0.4]]),
                    np.array([[0.5, 0.5], [0.2, 0.8]])]
    labels = np.array([1, 0])
    beta = np.array([[0.9, 0.1], [0.25, 0.75]])
    loss = total_loss(member_probs, beta, labels)
    expected = (0.9 * -math.log(0.7) + 0.1 * -math.log(0.5)
                + 0.25 * -math.log(0.6) + 0.75 * -math.log(0.2)) / 2.0
    assert np.isclose(loss, expected, rtol=0, atol=1e-15)


def test_total_loss_validation():
    probs = [np.full((2, 2), 0.5)]
    with pytest.raises(ShapeError):
        total_loss(probs, np.ones((2, 2)), np.array([0, 1]))


# -------------------------------------------------------------- prediction


def test_ensemble_predict_beta_is_convex_combination():
    member_probs = [np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]])]
    beta = np.array([[0.25, 0.75]])
    out = ensemble_predict(member_probs, beta)
    assert np.allclose(out, [[0.25 * 0.9 + 0.75 * 0.1, 0.25 * 0.1 + 0.75 * 0.9]])
    assert np.allclose(out.sum(axis=1), 1.0)


def test_ensemble_predict_validation():
    probs = [np.full((2, 2), 0.5)]
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
    members, _ = ensemble_params(3, (4, 5), 2, Rng(0))
    masks = make_dropout_masks(6, members, 0.5, Rng(7))
    assert len(masks) == 2
    assert masks[0][0].shape == (6, 4)
    assert masks[0][1].shape == (6, 5)
    again = make_dropout_masks(6, members, 0.5, Rng(7))
    for (a1, a2), (b1, b2) in zip(masks, again):
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    values = np.unique(np.concatenate([m.ravel() for pair in masks for m in pair]))
    assert set(values).issubset({0.0, 2.0})


def test_dropout_masks_change_the_forward():
    ens = nudged_ensemble(50)
    x = Rng(51).normal(size=(8, 3))
    masks = make_dropout_masks(8, ens[0], 0.5, Rng(52))
    probs_m, _, _ = head_forward(x, *ens, masks=masks)
    probs, _, _ = head_forward(x, *ens)
    assert not all(np.array_equal(a, b) for a, b in zip(probs_m, probs))


# ---------------------------------------------------------------- backward


def test_head_backward_matches_finite_differences():
    ens = nudged_ensemble(60)
    x = Rng(61).normal(size=(5, 3))
    labels = np.array([0, 1, 1, 0, 1])

    def loss(_arrays):
        # the checker perturbs the ensemble's arrays in place
        member_probs, beta, _ = head_forward(x, *ens, kind="tanh")
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, kind="tanh")
    grads = zeros_like(ens)
    head_backward(cache, labels, *ens, grads)
    err = finite_diff_check(loss, ensemble_arrays(ens), ensemble_arrays(grads))
    assert err < 1e-6


def test_head_backward_input_gradient_matches_finite_differences():
    ens = nudged_ensemble(70)
    labels = np.array([1, 0, 1])
    x = Rng(71).normal(size=(3, 3))

    def loss(arrays):
        member_probs, beta, _ = head_forward(arrays["x"], *ens, kind="tanh")
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, kind="tanh")
    d_x = head_backward(cache, labels, *ens, zeros_like(ens))
    assert finite_diff_check(loss, {"x": x}, {"x": d_x}) < 1e-6


def test_head_backward_respects_dropout_masks():
    ens = nudged_ensemble(80)
    x = Rng(81).normal(size=(4, 3))
    labels = np.array([0, 1, 0, 1])
    masks = make_dropout_masks(4, ens[0], 0.5, Rng(82))

    def loss(_arrays):
        member_probs, beta, _ = head_forward(x, *ens, kind="tanh", masks=masks)
        return float(total_loss(member_probs, beta, labels))

    _, _, cache = head_forward(x, *ens, kind="tanh", masks=masks)
    grads = zeros_like(ens)
    head_backward(cache, labels, *ens, grads)
    err = finite_diff_check(loss, ensemble_arrays(ens), ensemble_arrays(grads))
    assert err < 1e-6
