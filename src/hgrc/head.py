"""FFN ensemble risk head: stacked member networks, attention gating, losses.

The L members share one architecture, so each parameter is one array with
the member as its leading axis, and each stage runs once for all members.
A member maps the aggregated representation (N, q) through two tanh hidden
layers to a two-class softmax (survive, die); the backward reads the tanh
derivative 1 - h^2 from the cached hidden outputs h.  An attention layer
over the same input produces per-patient weights beta (N, L) that gate the
members' per-patient cross-entropies:

    total = (1/P) sum_p sum_i beta_pi * loss_pi

Prediction is the beta-weighted convex combination of the member
probability rows.

Inverted dropout applies to the two hidden activations of each member in
training; masks are passed in explicitly so the forward stays a pure
function (required by the finite-difference checks).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import Array, Rng, dropout_mask, glorot_init, softmax

PROB_CLAMP = 1e-12


def init_ensemble_params(ffn: dict[str, Array], attn: dict[str, Array], rng: Rng) -> None:
    """Fill the arrays in place: Glorot hidden layers and attention map, zero
    biases, zero output layers.

    ``ffn`` holds w1 (L, q, h1), b1, w2 (L, h1, h2), b2, wy (L, h2, 2), by;
    ``attn`` maps w_beta (q, L) and b_beta (L,).  Member i draws its hidden
    layers from stream i of ``rng.split(L + 1)``, the attention map from the
    last.  The zero output layer makes every initial probability pair
    (0.5, 0.5), so the first training loss is exactly ln 2 per patient.
    """
    n_members = ffn["w1"].shape[0]
    if n_members == 0:
        raise ConfigError("ensemble needs at least one member, got 0")
    streams = rng.split(n_members + 1)
    for i, stream in enumerate(streams[:-1]):
        for name, s in zip(("w1", "w2"), stream.split(2)):
            ffn[name][i] = glorot_init(*ffn[name].shape[1:], s)
    for name in ("b1", "b2", "wy", "by"):
        ffn[name][...] = 0.0
    attn["w_beta"][...] = glorot_init(*attn["w_beta"].shape, streams[-1])
    attn["b_beta"][...] = 0.0


def make_dropout_masks(n_rows: int, ffn: dict[str, Array], rate: float, rng: Rng):
    """Inverted-dropout masks for both hidden layers, (L, N, h1) and (L, N, h2).

    Member i draws its pair from stream i of ``rng.split(L)``.
    """
    n_members, _, h1 = ffn["w1"].shape
    h2 = ffn["w2"].shape[2]
    mask1 = np.empty((n_members, n_rows, h1))
    mask2 = np.empty((n_members, n_rows, h2))
    for i, stream in enumerate(rng.split(n_members)):
        s1, s2 = stream.split(2)
        mask1[i] = dropout_mask((n_rows, h1), rate, s1)
        mask2[i] = dropout_mask((n_rows, h2), rate, s2)
    return mask1, mask2


# ---------------------------------------------------------------- forward


def attention_weights(x: Array, attn: dict[str, Array]) -> Array:
    """Per-patient softmax over member logits, shape (N, L)."""
    x = np.asarray(x, dtype=np.float64)
    return softmax(x @ attn["w_beta"] + attn["b_beta"], axis=1)


def head_forward(x: Array, ffn: dict[str, Array], attn: dict[str, Array], masks):
    """Member probabilities (L, N, 2) and attention weights (N, L); returns
    cache too.

    ``masks`` is None (no dropout) or a pair of (L, N, h1) and (L, N, h2)
    dropout masks.
    """
    x = np.asarray(x, dtype=np.float64)
    h1 = np.tanh(x @ ffn["w1"] + ffn["b1"][:, None, :])
    h1d = h1 * masks[0] if masks is not None else h1
    h2 = np.tanh(h1d @ ffn["w2"] + ffn["b2"][:, None, :])
    h2d = h2 * masks[1] if masks is not None else h2
    probs = softmax(h2d @ ffn["wy"] + ffn["by"][:, None, :], axis=2)
    beta = attention_weights(x, attn)
    return probs, beta, (x, h1, h1d, h2, h2d, probs, masks, beta)


# ------------------------------------------------------------------ losses


def per_patient_losses(probs: Array, labels: Array) -> Array:
    """Cross-entropy of the death-probability column, clamped, per patient.

    ``probs`` is (..., N, 2); the result is (..., N), so stacked member
    probabilities (L, N, 2) give (L, N).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be 0 or 1")
    y = labels.astype(np.float64)
    p1 = np.clip(probs[..., 1], PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


def _gated_losses(member_probs: Array, beta: Array, labels: Array) -> Array:
    """Per-patient member losses as a C-ordered (N, L) array, like beta.

    numpy's order of summation along an axis follows the memory layout, so
    the copy keeps the loss and the attention gradients independent of it.
    """
    losses = np.ascontiguousarray(per_patient_losses(member_probs, labels).T)
    if beta.shape != losses.shape:
        raise ShapeError(f"beta shape {beta.shape}, expected {losses.shape}")
    return losses


def total_loss(member_probs: Array, beta: Array, labels: Array) -> float:
    """Attention-gated ensemble loss (1/P) sum_p sum_i beta_pi * loss_pi."""
    losses = _gated_losses(member_probs, beta, labels)
    return float((beta * losses).sum(axis=1).mean())


def ensemble_predict(member_probs: Array, beta: Array) -> Array:
    """Beta-weighted combination of member probability rows, shape (N, 2)."""
    if beta.shape[::-1] != member_probs.shape[:2]:
        raise ShapeError(f"beta shape {beta.shape}, expected {member_probs.shape[1::-1]}")
    return (beta.T[:, :, None] * member_probs).sum(axis=0)


# ----------------------------------------------------------------- backward


def _loss_prob_grad(probs: Array, labels: Array, d_loss_per_patient: Array) -> Array:
    """Gradient through clamp, cross-entropy, and the two-class softmax.

    Returns d_logits (L, N, 2).  With p1 the death probability,
    dp1/dlogit1 = p1 (1 - p1) and dlogit0 = -dlogit1.
    """
    y = labels.astype(np.float64)
    p1 = probs[..., 1]
    inside = (p1 > PROB_CLAMP) & (p1 < 1.0 - PROB_CLAMP)
    p1c = np.clip(p1, PROB_CLAMP, 1.0 - PROB_CLAMP)
    d_p1 = d_loss_per_patient * np.where(inside, -(y / p1c - (1.0 - y) / (1.0 - p1c)), 0.0)
    d_logit1 = d_p1 * p1 * (1.0 - p1)
    return np.stack([-d_logit1, d_logit1], axis=-1)


def head_backward(cache, labels: Array, ffn: dict[str, Array],
                  attn: dict[str, Array], grads) -> Array:
    """Gradients of total_loss; returns d_x.

    The parameter gradients are added into ``grads``, an (ffn, attn) pair of
    zeroed arrays keyed like the parameters.

    The gating splits the loss gradient two ways: into each member's
    per-patient cross-entropy (scaled by its beta) and into beta itself
    (scaled by the per-patient losses), the latter flowing through the
    attention softmax row-wise:

        d_logit_pj = beta_pj * (d_beta_pj - sum_k d_beta_pk beta_pk)
    """
    x, h1, h1d, h2, h2d, probs, masks, beta = cache
    n = beta.shape[0]
    d_beta = _gated_losses(probs, beta, labels) / n

    ffn_grads, attn_grads = grads
    d_logits = _loss_prob_grad(probs, np.asarray(labels), (beta / n).T)
    ffn_grads["wy"] += h2d.transpose(0, 2, 1) @ d_logits
    ffn_grads["by"] += d_logits.sum(axis=1)
    d_h2d = d_logits @ ffn["wy"].transpose(0, 2, 1)
    d_h2 = d_h2d * masks[1] if masks is not None else d_h2d
    d_pre2 = d_h2 * (1.0 - h2 * h2)
    ffn_grads["w2"] += h1d.transpose(0, 2, 1) @ d_pre2
    ffn_grads["b2"] += d_pre2.sum(axis=1)
    d_h1d = d_pre2 @ ffn["w2"].transpose(0, 2, 1)
    d_h1 = d_h1d * masks[0] if masks is not None else d_h1d
    d_pre1 = d_h1 * (1.0 - h1 * h1)
    ffn_grads["w1"] += x.T @ d_pre1
    ffn_grads["b1"] += d_pre1.sum(axis=1)
    d_x = (d_pre1 @ ffn["w1"].transpose(0, 2, 1)).sum(axis=0)

    inner = (d_beta * beta).sum(axis=1, keepdims=True)
    d_attn_logits = beta * (d_beta - inner)
    attn_grads["w_beta"] += x.T @ d_attn_logits
    attn_grads["b_beta"] += d_attn_logits.sum(axis=0)
    d_x += d_attn_logits @ attn["w_beta"].T
    return d_x
