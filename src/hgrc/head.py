"""FFN risk head: one two-hidden-layer network, its loss, and its backward.

The network maps the aggregated representation (N, q) through two tanh
hidden layers to a two-class softmax (survive, die); the backward reads the
tanh derivative 1 - h^2 from the cached hidden outputs h.  The loss is the
mean per-patient cross-entropy of the death probability:

    total = (1/P) sum_p loss_p

Inverted dropout applies to the two hidden activations in training; masks
are passed in explicitly so the forward stays a pure function (required by
the finite-difference checks).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import Array, Rng, dropout_mask, glorot_init, softmax

PROB_CLAMP = 1e-12


def _hidden_streams(rng: Rng) -> list[Rng]:
    """One stream per hidden layer.  ``split(1)[0]`` is keyed (0,), the stream
    that member 0 of the earlier attention-gated ensemble drew from, so
    weights and masks are those of its one-member configuration."""
    return rng.split(1)[0].split(2)


def init_head_params(ffn: dict[str, Array], rng: Rng) -> None:
    """Fill the arrays in place: Glorot hidden layers, zero biases, zero
    output layer.

    ``ffn`` holds w1 (q, h1), b1 (h1,), w2 (h1, h2), b2 (h2,), wy (h2, 2) and
    by (2,).  The zero output layer makes every initial probability pair
    (0.5, 0.5), so the first training loss is exactly ln 2 per patient.
    """
    for name, stream in zip(("w1", "w2"), _hidden_streams(rng)):
        ffn[name][...] = glorot_init(*ffn[name].shape, stream)
    for name in ("b1", "b2", "wy", "by"):
        ffn[name][...] = 0.0


def make_dropout_masks(n_rows: int, ffn: dict[str, Array], rate: float, rng: Rng):
    """Inverted-dropout masks for both hidden layers, (N, h1) and (N, h2),
    in the weights' dtype."""
    s1, s2 = _hidden_streams(rng)
    dtype = ffn["w1"].dtype
    return (dropout_mask((n_rows, ffn["w1"].shape[1]), rate, s1, dtype),
            dropout_mask((n_rows, ffn["w2"].shape[1]), rate, s2, dtype))


# ---------------------------------------------------------------- forward


def head_forward(x: Array, ffn: dict[str, Array], masks):
    """Class probabilities (N, 2); returns cache too.

    ``masks`` is None (no dropout) or a pair of (N, h1) and (N, h2) dropout
    masks.
    """
    x = np.asarray(x)
    h1 = np.tanh(x @ ffn["w1"] + ffn["b1"])
    h1d = h1 * masks[0] if masks is not None else h1
    h2 = np.tanh(h1d @ ffn["w2"] + ffn["b2"])
    h2d = h2 * masks[1] if masks is not None else h2
    probs = softmax(h2d @ ffn["wy"] + ffn["by"], axis=1)
    return probs, (x, h1, h1d, h2, h2d, probs, masks)


# ------------------------------------------------------------------ losses


def _clamp_bounds(dtype) -> tuple[float, float]:
    """The death probability's clamp in ``dtype``: [PROB_CLAMP, 1 - PROB_CLAMP],
    with the upper end lowered to the largest value below 1 where 1 - PROB_CLAMP
    rounds to 1 (float32), so log(1 - p) stays finite."""
    return PROB_CLAMP, 1.0 - max(PROB_CLAMP, float(np.finfo(dtype).epsneg))


def per_patient_losses(probs: Array, labels: Array) -> Array:
    """Cross-entropy of the death-probability column, clamped, per patient."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if probs.shape != (labels.size, 2):
        raise ShapeError(f"probs shape {probs.shape}, expected {(labels.size, 2)}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be 0 or 1")
    y = labels.astype(probs.dtype)
    p1 = np.clip(probs[:, 1], *_clamp_bounds(probs.dtype))
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


def total_loss(probs: Array, labels: Array) -> float:
    """Mean cross-entropy (1/P) sum_p loss_p."""
    return float(per_patient_losses(probs, labels).mean())


# ----------------------------------------------------------------- backward


def _loss_prob_grad(probs: Array, labels: Array, d_loss_per_patient) -> Array:
    """Gradient through clamp, cross-entropy, and the two-class softmax.

    Returns d_logits (N, 2).  With p1 the death probability,
    dp1/dlogit1 = p1 (1 - p1) and dlogit0 = -dlogit1.
    """
    y = labels.astype(probs.dtype)
    p1 = probs[:, 1]
    low, high = _clamp_bounds(probs.dtype)
    inside = (p1 > low) & (p1 < high)
    p1c = np.clip(p1, low, high)
    d_p1 = d_loss_per_patient * np.where(inside, -(y / p1c - (1.0 - y) / (1.0 - p1c)), 0.0)
    d_logit1 = d_p1 * p1 * (1.0 - p1)
    return np.stack([-d_logit1, d_logit1], axis=-1)


def head_backward(cache, labels: Array, ffn: dict[str, Array], grads: dict[str, Array]) -> Array:
    """Gradients of total_loss; returns d_x.

    The parameter gradients are added into ``grads``, zeroed arrays keyed
    like ``ffn``.
    """
    x, h1, h1d, h2, h2d, probs, masks = cache
    d_logits = _loss_prob_grad(probs, np.asarray(labels), 1.0 / x.shape[0])
    grads["wy"] += h2d.T @ d_logits
    grads["by"] += d_logits.sum(axis=0)
    d_h2d = d_logits @ ffn["wy"].T
    d_h2 = d_h2d * masks[1] if masks is not None else d_h2d
    d_pre2 = d_h2 * (1.0 - h2 * h2)
    grads["w2"] += h1d.T @ d_pre2
    grads["b2"] += d_pre2.sum(axis=0)
    d_h1d = d_pre2 @ ffn["w2"].T
    d_h1 = d_h1d * masks[0] if masks is not None else d_h1d
    d_pre1 = d_h1 * (1.0 - h1 * h1)
    grads["w1"] += x.T @ d_pre1
    grads["b1"] += d_pre1.sum(axis=0)
    return d_pre1 @ ffn["w1"].T
