"""FFN ensemble risk head: member networks, attention gating, losses.

Each member maps the aggregated representation (N, q) through two tanh
hidden layers to a two-class softmax (survive, die); the backward reads the
tanh derivative 1 - h^2 from the cached hidden outputs h.  An attention
layer over the same input produces per-patient weights beta (N, L) that
gate the members' per-patient cross-entropies:

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


def init_ensemble_params(members: list[dict[str, Array]], attn: dict[str, Array],
                         rng: Rng) -> None:
    """Fill the arrays in place: Glorot hidden layers and attention map, zero
    biases, zero output layers.

    A member maps w1 (q, h1), b1, w2 (h1, h2), b2, wy (h2, 2), by; ``attn``
    maps w_beta (q, L) and b_beta (L,).  The zero output layer makes every
    initial probability pair (0.5, 0.5), so the first training loss is
    exactly ln 2 per patient.
    """
    if not members:
        raise ConfigError("ensemble needs at least one member, got 0")
    streams = rng.split(len(members) + 1)
    for m, stream in zip(members, streams):
        for name, s in zip(("w1", "w2"), stream.split(2)):
            m[name][...] = glorot_init(*m[name].shape, s)
        for name in ("b1", "b2", "wy", "by"):
            m[name][...] = 0.0
    attn["w_beta"][...] = glorot_init(*attn["w_beta"].shape, streams[-1])
    attn["b_beta"][...] = 0.0


def make_dropout_masks(n_rows: int, members: list[dict[str, Array]], rate: float, rng: Rng):
    """One inverted-dropout mask per hidden layer per member."""
    streams = rng.split(len(members))
    masks = []
    for member, stream in zip(members, streams):
        s1, s2 = stream.split(2)
        masks.append((
            dropout_mask((n_rows, member["w1"].shape[1]), rate, s1),
            dropout_mask((n_rows, member["w2"].shape[1]), rate, s2),
        ))
    return masks


# ---------------------------------------------------------------- forward


def _member_forward(x: Array, m: dict[str, Array], mask_pair):
    h1 = np.tanh(x @ m["w1"] + m["b1"])
    h1d = h1 * mask_pair[0] if mask_pair is not None else h1
    h2 = np.tanh(h1d @ m["w2"] + m["b2"])
    h2d = h2 * mask_pair[1] if mask_pair is not None else h2
    logits = h2d @ m["wy"] + m["by"]
    probs = softmax(logits, axis=1)
    return probs, (x, h1, h1d, h2, h2d, probs, mask_pair)


def attention_weights(x: Array, attn: dict[str, Array]) -> Array:
    """Per-patient softmax over member logits, shape (N, L)."""
    x = np.asarray(x, dtype=np.float64)
    return softmax(x @ attn["w_beta"] + attn["b_beta"], axis=1)


def head_forward(x: Array, members: list[dict[str, Array]], attn: dict[str, Array], masks):
    """All member probabilities plus attention weights; returns cache too.

    ``masks`` holds one dropout-mask pair per member, or is None (no dropout).
    """
    x = np.asarray(x, dtype=np.float64)
    member_probs = []
    member_caches = []
    for i, m in enumerate(members):
        probs, cache = _member_forward(x, m, masks[i] if masks is not None else None)
        member_probs.append(probs)
        member_caches.append(cache)
    beta = attention_weights(x, attn)
    return member_probs, beta, (x, member_caches, beta)


# ------------------------------------------------------------------ losses


def _check_labels(labels: Array) -> Array:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be 0 or 1")
    return labels.astype(np.float64)


def per_patient_losses(probs: Array, labels: Array) -> Array:
    """Cross-entropy of the death-probability column, clamped, per patient."""
    y = _check_labels(labels)
    p1 = np.clip(probs[:, 1], PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


def total_loss(member_probs: list[Array], beta: Array, labels: Array) -> float:
    """Attention-gated ensemble loss (1/P) sum_p sum_i beta_pi * loss_pi."""
    losses = np.stack([per_patient_losses(p, labels) for p in member_probs], axis=1)
    if beta.shape != losses.shape:
        raise ShapeError(f"beta shape {beta.shape}, expected {losses.shape}")
    return float((beta * losses).sum(axis=1).mean())


def ensemble_predict(member_probs: list[Array], beta: Array) -> Array:
    """Beta-weighted combination of member probability rows, shape (N, 2)."""
    stacked = np.stack(member_probs, axis=1)  # (N, L, 2)
    if beta.shape != stacked.shape[:2]:
        raise ShapeError(f"beta shape {beta.shape}, expected {stacked.shape[:2]}")
    return (beta[:, :, None] * stacked).sum(axis=1)


# ----------------------------------------------------------------- backward


def _member_backward(d_logits: Array, cache, m: dict[str, Array], grads: dict[str, Array]):
    x, h1, h1d, h2, h2d, probs, mask_pair = cache
    grads["wy"] += h2d.T @ d_logits
    grads["by"] += d_logits.sum(axis=0)
    d_h2d = d_logits @ m["wy"].T
    d_h2 = d_h2d * mask_pair[1] if mask_pair is not None else d_h2d
    d_pre2 = d_h2 * (1.0 - h2 * h2)
    grads["w2"] += h1d.T @ d_pre2
    grads["b2"] += d_pre2.sum(axis=0)
    d_h1d = d_pre2 @ m["w2"].T
    d_h1 = d_h1d * mask_pair[0] if mask_pair is not None else d_h1d
    d_pre1 = d_h1 * (1.0 - h1 * h1)
    grads["w1"] += x.T @ d_pre1
    grads["b1"] += d_pre1.sum(axis=0)
    return d_pre1 @ m["w1"].T


def _loss_prob_grad(probs: Array, labels: Array, d_loss_per_patient: Array) -> Array:
    """Gradient through clamp, cross-entropy, and the two-class softmax.

    Returns d_logits (N, 2).  With p1 the death probability,
    dp1/dlogit1 = p1 (1 - p1) and dlogit0 = -dlogit1.
    """
    y = labels.astype(np.float64)
    p1 = probs[:, 1]
    inside = (p1 > PROB_CLAMP) & (p1 < 1.0 - PROB_CLAMP)
    p1c = np.clip(p1, PROB_CLAMP, 1.0 - PROB_CLAMP)
    d_p1 = d_loss_per_patient * np.where(inside, -(y / p1c - (1.0 - y) / (1.0 - p1c)), 0.0)
    d_logit1 = d_p1 * p1 * (1.0 - p1)
    return np.stack([-d_logit1, d_logit1], axis=1)


def head_backward(cache, labels: Array, members: list[dict[str, Array]],
                  attn: dict[str, Array], grads) -> Array:
    """Gradients of total_loss; returns d_x.

    The parameter gradients are added into ``grads``, a (members, attn)
    pair of zeroed arrays keyed like the parameters.

    The gating splits the loss gradient two ways: into each member's
    per-patient cross-entropy (scaled by its beta) and into beta itself
    (scaled by the per-patient losses), the latter flowing through the
    attention softmax row-wise:

        d_logit_pj = beta_pj * (d_beta_pj - sum_k d_beta_pk beta_pk)
    """
    x, member_caches, beta = cache
    labels_f = _check_labels(labels)
    n = beta.shape[0]
    member_probs = [c[5] for c in member_caches]
    losses = np.stack([per_patient_losses(p, labels) for p in member_probs], axis=1)
    d_losses = beta / n
    d_beta = losses / n

    member_grads, attn_grads = grads
    d_x = np.zeros_like(x)
    for i, (m, m_cache, m_grads) in enumerate(zip(members, member_caches, member_grads)):
        d_logits = _loss_prob_grad(member_probs[i], labels_f, d_losses[:, i])
        d_x += _member_backward(d_logits, m_cache, m, m_grads)

    inner = (d_beta * beta).sum(axis=1, keepdims=True)
    d_attn_logits = beta * (d_beta - inner)
    attn_grads["w_beta"] += x.T @ d_attn_logits
    attn_grads["b_beta"] += d_attn_logits.sum(axis=0)
    d_x += d_attn_logits @ attn["w_beta"].T
    return d_x
