"""Patient similarity graph: pairwise scores, threshold, GCN aggregation.

Similarity is the scaled dot product A = X X^T / w^2 with w the feature
width.  A learnable threshold zeta turns A into an adjacency: during training
a sigmoid relaxation sigmoid(tau * (A - zeta)) keeps zeta differentiable
(a hard step has zero gradient almost everywhere); at evaluation the strict
indicator 1[A > zeta] is used.  Aggregation adds self-loops and applies the
symmetric normalization

    X* = activation(Dt^-1/2 (A' + I) Dt^-1/2 X Phi)

with Dt the row-sum degrees of A' + I.  Every backward pass here is
hand-derived and covered by finite-difference checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import Array, activation, activation_grad, sigmoid


# ------------------------------------------------------------- similarity


def similarity(x: Array) -> Array:
    """Scaled dot-product similarity A = X X^T / width^2 (symmetric)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"similarity expects (N, width), got {x.shape}")
    width = x.shape[1]
    a = x @ x.T
    a /= float(width * width)
    return a


def similarity_backward(d_a: Array, x: Array) -> Array:
    """d/dX of sum(d_a * A): (d_a + d_a^T) X / width^2."""
    width = x.shape[1]
    return ((d_a + d_a.T) @ x) / float(width * width)


# -------------------------------------------------------------- threshold


def threshold(a: Array, zeta: float, temperature: float, mode: str) -> Array:
    """Adjacency from similarities.

    train: sigmoid(temperature * (a - zeta)), entries in (0, 1).
    eval:  strict indicator (a > zeta) as floats; a == zeta maps to 0.
    """
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    a = np.asarray(a, dtype=np.float64)
    if mode == "train":
        return sigmoid(temperature * (a - zeta))
    if mode == "eval":
        return (a > zeta).astype(np.float64)
    raise ConfigError(f"threshold mode must be 'train' or 'eval', got {mode!r}")


def threshold_backward(d_aprime: Array, soft: Array, temperature: float):
    """Backward of the train-mode relaxation; returns (d_a, d_zeta)."""
    d_pre = d_aprime * soft * (1.0 - soft)
    d_a = temperature * d_pre
    d_zeta = -temperature * float(d_pre.sum())
    return d_a, d_zeta


# ------------------------------------------------------------ aggregation


def gcn_aggregate(x: Array, a_prime: Array, phi: Array, kind: str):
    """activation(Dt^-1/2 (A' + I) Dt^-1/2 X Phi); returns (output, cache)."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    n = x.shape[0]
    # a fresh copy: a_prime itself stays as given, threshold_backward reads it
    a_tilde = np.array(a_prime, dtype=np.float64)
    if a_tilde.shape != (n, n):
        raise ShapeError(f"adjacency shape {a_tilde.shape}, expected ({n}, {n})")
    if phi.shape[0] != x.shape[1]:
        raise ShapeError(f"phi rows {phi.shape[0]} vs feature width {x.shape[1]}")
    a_tilde[np.diag_indices(n)] += 1.0
    deg = a_tilde.sum(axis=1)
    if np.any(deg <= 0.0):
        raise ConfigError("aggregation degrees must be positive (negative adjacency?)")
    inv_sqrt = 1.0 / np.sqrt(deg)
    s_norm = a_tilde * inv_sqrt[:, None]
    s_norm *= inv_sqrt[None, :]
    m = x @ phi
    pre = s_norm @ m
    out = activation(pre, kind)
    return out, (x, a_tilde, deg, inv_sqrt, s_norm, m, pre, kind)


def gcn_aggregate_backward(d_out: Array, cache, phi: Array):
    """Gradients of gcn_aggregate; returns (d_x, d_a_prime, d_phi).

    The degree term makes the adjacency gradient non-obvious: with
    S_ab = At_ab * u_a * u_b and u = deg^-1/2 where deg_a = sum_b At_ab,
    perturbing At_ab moves deg_a only, so

        dAt_ab = dS_ab * u_a * u_b - 0.5 * deg_a^-3/2 * (r_a + c_a)
        r_a = sum_j dS_aj At_aj u_j,   c_a = sum_i dS_ia At_ia u_i

    and the correction is constant along each row.
    """
    x, a_tilde, deg, inv_sqrt, s_norm, m, pre, kind = cache
    d_pre = d_out * activation_grad(pre, kind)
    d_snorm = d_pre @ m.T
    d_m = s_norm.T @ d_pre
    d_phi = x.T @ d_m
    d_x = d_m @ phi.T

    weighted = d_snorm * a_tilde
    row_term = (weighted * inv_sqrt[None, :]).sum(axis=1)
    col_term = (weighted * inv_sqrt[:, None]).sum(axis=0)
    correction = 0.5 * deg ** -1.5 * (row_term + col_term)
    d_a_tilde = d_snorm * np.outer(inv_sqrt, inv_sqrt) - correction[:, None]
    return d_x, d_a_tilde, d_phi
