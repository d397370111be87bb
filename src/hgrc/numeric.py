"""Dense float64 numerics shared by every layer.

The logistic sigmoid, softmax, Adam, inverted dropout, Glorot initialization,
a splittable deterministic RNG, a finite-difference gradient checker that
every hand-derived backward pass in this package is verified against, and
the row blocks that evaluation-mode layers work in.  The layers' one
nonlinearity is numpy's tanh, which each layer calls directly.

All arrays are ``numpy.float64``.  Reductions are delegated to numpy/BLAS,
which is deterministic for a fixed platform and thread count; all randomness
flows through :class:`Rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GradientCheckError, ShapeError

Array = np.ndarray


# --------------------------------------------------------------------- rng


class Rng:
    """Deterministic splittable random stream (Philox keyed by SeedSequence).

    The same seed always yields the same stream.  Child streams come from
    ``SeedSequence.spawn`` (key-splitting), never from shared mutable state,
    so siblings are independent and the whole tree is reproducible as long
    as splits happen in a fixed order.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["Rng"]:
        """Derive ``n`` independent child streams."""
        return [Rng(s) for s in self._seq.spawn(n)]

    def random(self, size=None) -> Array:
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None) -> Array:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> Array:
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None) -> Array:
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)


# ----------------------------------------------------------------- sigmoid


def sigmoid(x: Array, out: Array | None = None) -> Array:
    """Logistic in tanh form, 0.5 * (1 + tanh(x / 2)); cannot overflow.  ``out`` may be x."""
    if out is None:
        out = np.empty(np.shape(x))
    np.tanh(np.multiply(x, 0.5, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(x: Array, axis: int = -1) -> Array:
    """Max-subtracted softmax along ``axis``; rows sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[axis] == 0:
        raise ShapeError("softmax: empty input")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


# -------------------------------------------------------------- row blocks


# most rows an evaluation-mode block holds; see row_blocks
_EVAL_BLOCK_ROWS = 256


def row_blocks(n: int) -> list[slice]:
    """ceil(n / 256) contiguous, near-equal row windows covering range(n).

    Evaluation keeps no cache for a backward pass, so the GRU and the
    similarity graph work through the rows one block at a time and a
    block's working set stays in cache.  The split is equal rather than 256
    rows plus a ragged tail because a matrix product over 20 rows or fewer
    takes another OpenBLAS kernel path and rounds differently in the last
    bit; equal blocks of an n above 256 hold at least 128 rows.  An empty
    range is one empty block.
    """
    n_blocks = max(1, -(-n // _EVAL_BLOCK_ROWS))
    size, extra = divmod(n, n_blocks)
    bounds = [k * size + min(k, extra) for k in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


# -------------------------------------------------------------------- adam


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Per-parameter Adam accumulator; ``step`` counts completed updates."""

    first_moment: Array
    second_moment: Array
    learning_rate: float
    step: int = 0

    @classmethod
    def zeros(cls, shape, learning_rate: float) -> "AdamState":
        return cls(first_moment=np.zeros(shape), second_moment=np.zeros(shape),
                   learning_rate=learning_rate)


def adam_step(param: Array, grad: Array, state: AdamState) -> tuple[Array, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and state."""
    if param.shape != grad.shape:
        raise ShapeError(f"adam_step: parameter {param.shape} vs gradient {grad.shape}")
    if param.shape != state.first_moment.shape:
        raise ShapeError(f"adam_step: parameter {param.shape} vs state {state.first_moment.shape}")
    t = state.step + 1
    m = _BETA1 * state.first_moment + (1.0 - _BETA1) * grad
    v = _BETA2 * state.second_moment + (1.0 - _BETA2) * grad * grad
    m_hat = m / (1.0 - _BETA1 ** t)
    v_hat = v / (1.0 - _BETA2 ** t)
    new_param = param - state.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return new_param, replace(state, first_moment=m, second_moment=v, step=t)


# ------------------------------------------------------- dropout and init


def dropout_mask(shape, rate: float, rng: Rng) -> Array:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expected value 1.

    Evaluation mode is a pass-through and never calls this; callers simply
    skip the mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def glorot_init(fan_in: int, fan_out: int, rng: Rng) -> Array:
    """Uniform Glorot matrix of shape (fan_in, fan_out) on +-sqrt(6/(fan_in+fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError(f"glorot_init needs positive dims, got ({fan_in}, {fan_out})")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


# --------------------------------------------------------- gradient check


def finite_diff_check(loss_fn, params: dict[str, Array], analytic: dict[str, Array],
                      h: float = 1e-3) -> float:
    """Max relative error between analytic gradients and extrapolated differences.

    ``loss_fn(params) -> float`` must be pure and deterministic in the arrays
    of ``params`` (dropout and any other stochasticity disabled).  Every
    scalar entry of every array is perturbed in place by +-h and +-h/2 and
    then restored.  With D(s) = (L(x+s) - L(x-s)) / 2s the central
    difference at step s, each entry is estimated by two-step Richardson
    extrapolation, n = (4 D(h/2) - D(h)) / 3, which cancels D's O(h^2)
    truncation term and leaves O(h^4).  That lets h be large: rounding in
    the loss costs each difference about eps |L| / h, so the default
    h = 1e-3 keeps it near 2e-13 on an O(1) loss, where a single central
    difference at h = 1e-5 carries about 2e-11 and drowns gradient entries
    just above the 1e-8 floor.  The extrapolation assumes the loss is smooth
    within +-h of each entry; the model's layers use tanh for that reason,
    since a kink inside the stencil (as relu has at 0) spoils the estimate
    and raises the reading: a false alarm, not a hidden fault.

    The relative error per entry is |a - n| / max(|a|, |n|, 1e-8) and the
    maximum over all entries is returned.
    """
    if h <= 0.0:
        raise ConfigError(f"finite_diff_check: h must be positive, got {h}")
    worst = 0.0
    for name, p in params.items():
        g = analytic[name]
        if np.shape(g) != np.shape(p):
            raise ShapeError(f"gradient {name}: shape {np.shape(g)} vs parameter {np.shape(p)}")
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            losses = []
            for step in (h, -h, 0.5 * h, -0.5 * h):
                p[idx] = orig + step
                losses.append(float(loss_fn(params)))
            p[idx] = orig
            if not all(math.isfinite(v) for v in losses):
                raise GradientCheckError(f"non-finite loss while perturbing {name}[{idx}]")
            d_full = (losses[0] - losses[1]) / (2.0 * h)
            d_half = (losses[2] - losses[3]) / h
            numeric = (4.0 * d_half - d_full) / 3.0
            a = float(g[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
