"""Dense float64 numerics shared by every layer.

The logistic sigmoid, softmax, Adam, inverted dropout, Glorot initialization,
a splittable deterministic RNG, a finite-difference gradient checker that
every hand-derived backward pass in this package is verified against, and
the thread helpers that put a one-thread BLAS's idle cores to work: the row
blocks that evaluation-mode layers and the training GRU's forward work in,
with the pool that runs independent blocks on every core, and the
two-thread pipeline that overlaps the training GRU's weight gradients with
its backward recurrence.  The layers' one nonlinearity is numpy's tanh,
which each layer calls directly.

All arrays are ``numpy.float64``.  Reductions are delegated to numpy/BLAS,
which is deterministic for a fixed platform and thread count; all randomness
flows through :class:`Rng`.  Which thread runs a row block or a pipeline's
side changes none of its arithmetic, so the worker count changes no result.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Any

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


def row_blocks(n: int, most: int = _EVAL_BLOCK_ROWS) -> list[slice]:
    """ceil(n / most) contiguous, near-equal row windows covering range(n).

    Evaluation keeps no cache for a backward pass, so the GRU and the
    similarity graph work through the rows one block at a time and a
    block's working set stays in cache; training's GRU forward splits a
    large batch the same way, in smaller blocks, to spread it over threads.
    The split is equal rather than ``most`` rows plus a ragged tail because
    a block's rows must round like the whole batch's.  OpenBLAS runs an NN
    product (``a @ b``, both C-ordered) through a small-matrix kernel when
    M·N·K <= 10**6, and that kernel rounds differently in the last bit: the
    GRU backward's (N, 118) @ (118, 59) ``da_zr @ u_zr`` rows change below
    144 rows.  The NT products of the GRU forward (``x @ w.T``) gave equal
    rows for every N from 2 to 700 in blocks of 64 rows or more (they part
    only in blocks of about 10 rows or fewer), and equal blocks of an n
    above ``most`` hold at least ``most // 2`` rows.  An empty range is one
    empty block.
    """
    n_blocks = max(1, -(-n // most))
    size, extra = divmod(n, n_blocks)
    bounds = [k * size + min(k, extra) for k in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def run_row_blocks(n: int, fn: Callable[[slice, Any], None],
                   new_slot: Callable[[int], Any], most: int = _EVAL_BLOCK_ROWS) -> None:
    """Call ``fn(rows, slot)`` for each of ``row_blocks(n, most)``, on every core BLAS leaves free.

    The blocks go to ``_workers`` threads, the calling thread among
    them, each taking the next block left until none is.  ``new_slot(rows)``
    makes one worker's scratch state for blocks of up to ``rows`` rows; it
    runs in the calling thread, once per worker before any block starts, and
    each slot is only ever passed to its own worker.  So ``fn`` must write
    nothing but its own rows and its slot.  numpy drops the interpreter lock
    inside ufunc loops and BLAS calls, so the threads' arithmetic overlaps;
    each block's arithmetic is the same whichever thread runs it.

    Every thread is joined before this returns, also when a block raises;
    then the first error raised is raised again and no block starts after it.
    ``fn`` runs on other threads, so it must not call into anything that keeps
    per-process state, such as a tracer's span stack.
    """
    blocks = row_blocks(n, most)
    largest = blocks[0].stop - blocks[0].start
    slots = [new_slot(largest) for _ in range(_workers(len(blocks)))]
    todo = iter(blocks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work(slot) -> None:
        while True:
            with lock:
                rows = None if errors else next(todo, None)
            if rows is None:
                return
            try:
                fn(rows, slot)
            except BaseException as exc:  # raised again below, once every thread is joined
                with lock:
                    errors.append(exc)
                return

    started = []
    try:
        for slot in slots[1:]:
            thread = threading.Thread(target=work, args=(slot,), name="hgrc-row-block")
            thread.start()
            started.append(thread)
        work(slots[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def run_pipelined(items: Sequence[Any], produce: Callable[[Any, Any], None],
                  consume: Callable[[Any, Any], None], slots: list[Any]) -> None:
    """Call ``produce(item, slot)`` then ``consume(item, slot)`` for each item, on two threads.

    The calling thread runs every ``produce`` in the order of ``items``, and
    one worker thread runs every ``consume`` in the same order, so consuming
    an item overlaps producing the next ones.  The slots are a ring:
    ``produce`` fills ``slots[k % len(slots)]`` for the k-th item once the
    item ``len(slots)`` places before it has been consumed, and ``consume``
    reads it.  So the two must share nothing but the slots, which ``consume``
    only reads.  ``consume`` runs on another thread, so it must not call into
    anything that keeps per-process state, such as a tracer's span stack.

    When either side raises, the other stops at its next item, neither waits
    for the other again, the worker is joined, and the first error raised is
    raised again.
    """
    ready, free = threading.Semaphore(0), threading.Semaphore(len(slots))
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for k, item in enumerate(items):
                ready.acquire()
                if errors:
                    return
                consume(item, slots[k % len(slots)])
                free.release()
        except BaseException as exc:  # raised again below, once the worker is joined
            errors.append(exc)
            free.release(len(items))  # the calling thread never waits for a slot again

    worker = threading.Thread(target=work, name="hgrc-pipeline")
    worker.start()
    try:
        for k, item in enumerate(items):
            free.acquire()
            if errors:
                break
            produce(item, slots[k % len(slots)])
            ready.release()
    except BaseException as exc:  # raised again below, once the worker is joined
        errors.append(exc)
    finally:
        ready.release()  # a worker waiting for an item that never comes sees the error
        worker.join()
    if errors:
        raise errors[0]


# OpenBLAS thread-count getters, newest build first: numpy's bundled
# scipy-openblas, a 64-bit-index OpenBLAS, a plain OpenBLAS
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _openblas_libs() -> Iterator[ctypes.CDLL]:
    """numpy's bundled OpenBLAS libraries, each opened again by its path.

    numpy has loaded them already, so each is the copy numpy calls, whose
    thread count reflects ``OPENBLAS_NUM_THREADS`` and any later
    ``openblas_set_num_threads``.  A path that does not open is skipped.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        yield lib


@functools.cache
def _blas_thread_query() -> Callable[[], int] | None:
    """The thread-count getter of numpy's bundled OpenBLAS, or None if not found."""
    for lib in _openblas_libs():
        for name in _BLAS_THREAD_SYMBOLS:
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return query
    return None


def _workers(n_blocks: int) -> int:
    """Threads for ``n_blocks`` independent parts: one per core when BLAS runs one thread.

    A multi-threaded BLAS already spreads each product over the cores, and
    two workers on top of a 2-thread BLAS slowed a 4096-patient scoring call
    on 2 cores from 540-585 to 795-870 ms; so any count other than 1, or
    none read, gives one worker.
    """
    query = _blas_thread_query()
    if query is None or query() != 1:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not Linux: the usable cores are unknown
        return 1
    return min(len(os.sched_getaffinity(0)), n_blocks)


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
