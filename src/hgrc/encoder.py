"""GRU sequence encoder and code-vector fusion.

Each patient's imputed vitals matrix (M variables x T hours) runs through a
single GRU; the final hidden state is concatenated with the binary diagnosis
vector.  Gate convention, fixed and tested:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h_t = (1 - z) * h_prev + z * c

so all-zero parameters give h_t = 0.5 * h_prev.  The backward pass is
hand-derived backpropagation through time; see encode_batch_backward.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numeric import Array, Rng, glorot_init, sigmoid

def init_gru_params(p: dict[str, Array], rng: Rng) -> None:
    """Fill ``p`` in place: Glorot weights, zero biases; one stream per weight.

    ``p`` maps w_z, u_z, b_z, w_r, ..., b_h to arrays: w_* are (d, M) input
    maps, u_* are (d, d) hidden maps, b_* are (d,).
    """
    for name, stream in zip(("w_z", "u_z", "w_r", "u_r", "w_h", "u_h"), rng.split(6)):
        p[name][...] = glorot_init(*p[name].shape, stream)
    for name in ("b_z", "b_r", "b_h"):
        p[name][...] = 0.0


def _step(x_t: Array, h_prev: Array, p: dict[str, Array]):
    """One GRU step over a batch: x_t (N, M), h_prev (N, d)."""
    z = sigmoid(x_t @ p["w_z"].T + h_prev @ p["u_z"].T + p["b_z"])
    r = sigmoid(x_t @ p["w_r"].T + h_prev @ p["u_r"].T + p["b_r"])
    c = np.tanh(x_t @ p["w_h"].T + (r * h_prev) @ p["u_h"].T + p["b_h"])
    h = (1.0 - z) * h_prev + z * c
    return h, (x_t, h_prev, z, r, c)


def encode_batch(series_batch: Array, p: dict[str, Array]):
    """Run the GRU over (N, M, T) series; returns final states (N, d) + cache.

    h_0 = 0.  The cache holds every step's inputs and gate values for the
    backward pass.
    """
    series_batch = np.asarray(series_batch, dtype=np.float64)
    if series_batch.ndim != 3:
        raise ShapeError(f"encode_batch expects (N, M, T), got {series_batch.shape}")
    n, m, t = series_batch.shape
    d, input_size = p["w_z"].shape
    if m != input_size:
        raise ShapeError(f"encode_batch: {m} variables vs input size {input_size}")
    if t == 0:
        raise ShapeError("encode_batch: empty time axis")
    if np.isnan(series_batch).any():
        raise ShapeError("encode_batch: absent cells remain; impute first")
    h = np.zeros((n, d))
    cache = []
    for step in range(t):
        h, step_cache = _step(series_batch[:, :, step], h, p)
        cache.append(step_cache)
    return h, cache


def encode_batch_backward(d_h: Array, cache, p: dict[str, Array], grads: dict[str, Array]):
    """Backpropagation through time from the final-state gradient.

    d_h is dLoss/dh_T with shape (N, d).  Returns (grads, dLoss/dseries
    with shape (N, M, T)).  The weight gradients are added into ``grads``,
    zeroed arrays keyed like p (views of the model's gradient buffer).
    Derivation per step, with a_* the pre-activations of the gates:

        dz      = dh * (c - h_prev)          dc = dh * z
        dh_prev = dh * (1 - z)
        da_h    = dc * (1 - c^2)
        d(r*h)  = da_h @ u_h, splitting into dr = . * h_prev and dh_prev += . * r
        da_r    = dr * r * (1 - r)           da_z = dz * z * (1 - z)
        dh_prev += da_r @ u_r + da_z @ u_z
        dx_t    = da_z @ w_z + da_r @ w_r + da_h @ w_h
    """
    n = d_h.shape[0]
    t = len(cache)
    d_series = np.zeros((n, p["w_z"].shape[1], t))
    dh = np.array(d_h, dtype=np.float64)
    for step in reversed(range(t)):
        x_t, h_prev, z, r, c = cache[step]
        dz = dh * (c - h_prev)
        dc = dh * z
        dh_prev = dh * (1.0 - z)

        da_h = dc * (1.0 - c * c)
        grads["w_h"] += da_h.T @ x_t
        grads["u_h"] += da_h.T @ (r * h_prev)
        grads["b_h"] += da_h.sum(axis=0)
        d_rh = da_h @ p["u_h"]
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_r = dr * r * (1.0 - r)
        grads["w_r"] += da_r.T @ x_t
        grads["u_r"] += da_r.T @ h_prev
        grads["b_r"] += da_r.sum(axis=0)

        da_z = dz * z * (1.0 - z)
        grads["w_z"] += da_z.T @ x_t
        grads["u_z"] += da_z.T @ h_prev
        grads["b_z"] += da_z.sum(axis=0)

        dh_prev += da_r @ p["u_r"] + da_z @ p["u_z"]
        d_series[:, :, step] = da_z @ p["w_z"] + da_r @ p["w_r"] + da_h @ p["w_h"]
        dh = dh_prev
    return grads, d_series


def fuse_batch(h: Array, icd: Array) -> Array:
    """Concatenate states and code rows, hidden part first: (N, d+g)."""
    if h.shape[0] != icd.shape[0]:
        raise ShapeError(f"fuse_batch: {h.shape[0]} states vs {icd.shape[0]} code rows")
    return np.concatenate([h, icd], axis=1)
