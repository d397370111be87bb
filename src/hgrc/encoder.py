"""GRU sequence encoder and code-vector fusion.

Each patient's imputed vitals matrix (M variables x T hours) runs through a
single GRU; the final hidden state is concatenated with the binary diagnosis
vector.  Gate convention, fixed and tested:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h_t = (1 - z) * h_prev + z * c

so all-zero parameters give h_t = 0.5 * h_prev.  The gates are stored
stacked in z, r, h order: ``w`` (3d, M) = [W_z; W_r; W_h], ``u_zr`` (2d, d)
= [U_z; U_r], ``u_h`` (d, d) and ``b`` (3d,).  Each step makes one input
product for all three gates, one for the z/r recurrence and one for the
candidate.  The backward pass is hand-derived backpropagation through time;
see encode_batch_backward.

One recurrence, _gru_block, serves training and scoring.  It runs a block
of rows to its last step; training writes every step to a cache for the
backward pass, and scoring keeps none.  ``numeric.run_row_blocks`` runs
the blocks on one thread per core when BLAS runs one thread, and on the
calling thread otherwise.  Scoring cuts blocks of at most 512 rows (see
_SCORE_BLOCK_ROWS).  Training cuts blocks of at most 128 rows for a batch
of more than 128 on two cores or more, and otherwise runs the whole batch
as one block; under the same rule its backward runs on two threads, one
for the recurrence and one for the weight gradients (see
encode_batch_backward).  Every block size and thread count gives the same
arithmetic, so training logs, checkpoints and scores are the same bit for
bit.

The gates' logistic is 0.5 * (1 + tanh(a / 2)).  Each call halves the z/r
rows of ``w`` and ``b`` and all of ``u_zr`` once, so a step's products give
a / 2 directly and the logistic costs three passes, not four.  Halving is
exact for every value that is not subnormal, so z and r are the same bit
for bit as the logistic of the unhalved sum.

The GRU computes in its parameters' dtype, float32 in the model: the cache,
every buffer, the final states and the backward's gradients take it, and
each block casts its rows of the series into it while making the
time-major copy it makes in any dtype, so the cast costs no extra pass.
"""

from __future__ import annotations

import numpy as np

from . import numeric
from .errors import ShapeError
from .numeric import Array, Rng, glorot_init, run_pipelined, run_row_blocks

# most rows a training-mode GRU block holds, and the largest batch that runs
# on the calling thread alone.  With one BLAS thread on a shared 2-core
# Xeon, two threads ran the float64 forward at 0.47x the one-thread speed
# at 32 rows, 0.88x at 120 and 1.31x at 160, since the interpreter lock
# costs them most on small batches.  In float32 (d = 59, 48 hours, forward
# plus backward, medians of 31 alternating pairs) they ran at 0.96x at 160
# rows, a 0.9 ms gap inside the 2.6 ms interquartile range of the
# one-thread runs, and at 1.16x at 256 rows, so the gate stays here.
_TRAIN_BLOCK_ROWS = 128
# slots in the backward's ring of per-step gate gradients (numeric.run_pipelined)
_RING_SLOTS = 4
# most rows a scoring-mode GRU block holds; a cohort of at most this many
# runs on the calling thread alone.  Every numpy call of a step takes the
# interpreter lock, which the scoring threads share, so a larger block makes
# fewer calls per patient and the threads wait less for the lock.  Scoring
# 4096 patients in float32 (d = 59, 48 hours, one BLAS thread, shared
# 2-core Xeon, medians of 30 runs), one thread took 186-200 ms at every
# block size from 256 to 1024 rows, and two threads took 202 / 129 / 113 /
# 114 / 110 / 116 ms in blocks of 128 / 256 / 384 / 512 / 768 / 1024 rows.
# A 300-patient cohort took 14.8 ms as one block on one thread and as two
# 150-row blocks on two.
_SCORE_BLOCK_ROWS = 512


def init_gru_params(p: dict[str, Array], rng: Rng) -> None:
    """Fill ``p`` in place: Glorot weights, zero biases; one stream per gate block.

    Each gate's block of ``w``, ``u_zr`` and ``u_h`` is drawn on its own
    (d, M) or (d, d) Glorot limit, in the order w_z, u_z, w_r, u_r, w_h, u_h.
    """
    d = p["u_h"].shape[0]
    w, u_zr = p["w"], p["u_zr"]
    blocks = (w[:d], u_zr[:d], w[d:2 * d], u_zr[d:], w[2 * d:], p["u_h"])
    for block, stream in zip(blocks, rng.split(6)):
        block[...] = glorot_init(*block.shape, stream)
    p["b"][...] = 0.0


def encode_batch(series_batch: Array, p: dict[str, Array], keep_cache: bool = True):
    """Run the GRU over (N, M, T) series; returns final states (N, d) + cache.

    h_0 = 0.  The cache holds the (T, N, M) time-major copy of the series,
    then every step's previous state and z, r and candidate values, in
    (T, N, d) arrays; without ``keep_cache`` it is None.  Either way the
    rows run in the near-equal blocks that ``numeric.row_blocks`` cuts,
    through the one recurrence of _gru_block, on the threads of
    ``numeric.run_row_blocks``; only the block size differs:

    - without a cache, blocks of at most _SCORE_BLOCK_ROWS, each run to
      its last step in one thread's own buffers;
    - with a cache, blocks of at most 128 rows when _train_threaded, and
      otherwise one block of the whole batch, which runs on the calling
      thread.  Each block writes its own rows of the cache arrays.

    Each row's products round as in the whole batch (see the row_blocks
    docstring), so states and cache are the same bit for bit for any block
    size and thread count.  Every buffer is allocated before any block
    starts, so no step allocates.  Each block checks its rows for absent
    (NaN) cells in its time-major copy.
    """
    series_batch = np.asarray(series_batch)
    if series_batch.ndim != 3:
        raise ShapeError(f"encode_batch expects (N, M, T), got {series_batch.shape}")
    n, m, t = series_batch.shape
    d, input_size, dtype = p["u_h"].shape[0], p["w"].shape[1], p["w"].dtype
    if m != input_size:
        raise ShapeError(f"encode_batch: {m} variables vs input size {input_size}")
    if t == 0:
        raise ShapeError("encode_batch: empty time axis")
    scale = np.repeat(np.array([0.5, 0.5, 1.0], dtype), d)  # halves the z/r rows
    halved = dict(p, w=p["w"] * scale[:, None], b=p["b"] * scale, u_zr=p["u_zr"] * 0.5)
    cache, most = None, _SCORE_BLOCK_ROWS
    if keep_cache:  # xs, hs (hs[step] is the state that step reads), zs, rs, cs
        cache = (np.empty((t, n, m), dtype), np.empty((t + 1, n, d), dtype),
                 *(np.empty((t, n, d), dtype) for _ in range(3)))
        most = _TRAIN_BLOCK_ROWS if _train_threaded(n) else max(n, 1)
    final = np.empty((n, d), dtype)
    run_row_blocks(
        n, lambda rows, bufs: _gru_block(
            series_batch[rows], halved, final[rows], bufs,
            None if cache is None else [a[:, rows] for a in cache]),
        lambda rows: _gru_buffers(rows, m, t, d, dtype, keep_cache), most=most)
    return final, cache


def _train_threaded(n: int) -> bool:
    """Whether a training batch of ``n`` rows runs its GRU on more than one thread.

    That takes more than one block of _TRAIN_BLOCK_ROWS and a one-thread
    BLAS on a process with two cores or more (``numeric._workers``).
    """
    return n > _TRAIN_BLOCK_ROWS and numeric._workers(2) > 1


def _gru_buffers(rows: int, m: int, t: int, d: int, dtype, cached: bool) -> tuple[Array, ...]:
    """One thread's _gru_block buffers of ``dtype``, for blocks of up to ``rows`` rows.

    a, zr and tmp; without a cache also the (T, rows, M) time-major input
    copy and h, h_next and c.
    """
    bufs = tuple(np.empty((rows, w), dtype) for w in (3 * d, 2 * d, d))
    if cached:
        return bufs
    return (bufs + (np.empty((t, rows, m), dtype),)
            + tuple(np.empty((rows, d), dtype) for _ in range(3)))


def _gru_block(series: Array, p: dict[str, Array], out: Array, bufs: tuple[Array, ...],
               cache: list[Array] | None = None) -> None:
    """The recurrence over the rows of ``series``; final states go to ``out``.

    ``p`` holds the GRU's parameters with the z/r rows halved (see the
    module docstring).  ``cache`` is those rows of encode_batch's cache
    arrays, and each step writes its input, state and gates there.  Without
    it they go to the leading rows of ``bufs`` (see _gru_buffers): two state
    buffers take turns, and the same c buffer serves every step.  z and r
    are then views of the gate buffer zr, and numpy skips a copy onto the
    same memory, so the step's copy of the gates costs nothing; separate z
    and r buffers made a 2000-patient scoring call 3% slower.  Scratch
    products always go to ``bufs``.  Each step reads its inputs from the
    contiguous time-major copy ``xs``; a NaN there raises ShapeError.
    """
    n, d = out.shape
    t = series.shape[2]
    a, zr, tmp = (buf[:n] for buf in bufs[:3])
    if cache is None:
        xs = bufs[3][:, :n]
        h, h_next, c = (buf[:n] for buf in bufs[4:])
        z, r = zr[:, :d], zr[:, d:]
        hs, zs, rs, cs = [h, h_next] * (t // 2 + 1), [z] * t, [r] * t, [c] * t
    else:
        xs, hs, zs, rs, cs = cache
    # each xs[step] is a contiguous (n, M) block, cast to the parameters' dtype
    np.copyto(xs, series.transpose(2, 0, 1))
    if np.isnan(xs).any():
        raise ShapeError("encode_batch: absent cells remain; impute first")
    hs[0][...] = 0.0
    for x, h, h_next, z, r, c in zip(xs, hs, hs[1:], zs, rs, cs):
        np.add(np.matmul(x, p["w"].T, out=a), p["b"], out=a)
        np.add(np.matmul(h, p["u_zr"].T, out=zr), a[:, :2 * d], out=zr)
        np.tanh(zr, out=zr)  # the gate sums come halved: 0.5 * (1 + tanh(a / 2))
        zr += 1.0
        zr *= 0.5
        z[...], r[...] = zr[:, :d], zr[:, d:]
        np.add(np.matmul(np.multiply(r, h, out=tmp), p["u_h"].T, out=c), a[:, 2 * d:], out=c)
        np.tanh(c, out=c)
        np.multiply(np.subtract(1.0, z, out=tmp), h, out=tmp)
        np.add(tmp, np.multiply(z, c, out=h_next), out=h_next)
    out[...] = h_next


def encode_batch_backward(d_h: Array, cache, p: dict[str, Array], grads: dict[str, Array]):
    """Backpropagation through time from the final-state gradient.

    d_h is dLoss/dh_T with shape (N, d).  Returns (grads, dLoss/dseries
    with shape (N, M, T)); the latter is a view of a time-major array, so
    each step writes one contiguous block.  The weight gradients are added
    into ``grads``, zeroed arrays keyed like p (views of the model's
    gradient buffer).
    Derivation per step, with a_* the pre-activations of the gates and
    da = [da_z, da_r, da_h] stacked like the parameters:

        dz      = dh * (c - h_prev)          dc = dh * z
        dh_prev = dh * (1 - z)
        da_h    = dc * (1 - c^2)
        d(r*h)  = da_h @ u_h, splitting into dr = . * h_prev and dh_prev += . * r
        da_r    = dr * r * (1 - r)           da_z = dz * z * (1 - z)
        dh_prev += [da_z, da_r] @ u_zr
        dx_t    = da @ w

    When _train_threaded, the calling thread runs the recurrence (da and
    dh) over the whole batch and hands each step's da, through a ring of
    four (N, 3d) slots, to a second thread, which adds the weight and input
    gradients step by step in the same order (``numeric.run_pipelined``).
    Every product keeps its operands, so the gradients are the same bit for
    bit.  The recurrence is not split by rows like the forward: its
    (N, 2d) @ (2d, d) ``da_zr @ u_zr`` takes OpenBLAS's small-matrix kernel
    on a block under 144 rows at d = 59, which rounds differently from the
    whole batch in float64 (see ``numeric.row_blocks``), and a 256-row
    batch cannot be cut into two blocks of 144 rows.
    """
    xs, hs, zs, rs, cs = cache
    t, n, m = xs.shape
    d = d_h.shape[1]
    dtype = p["w"].dtype
    d_xs = np.empty((t, n, m), dtype)  # dLoss/dxs, time-major like xs
    dh = d_h.astype(dtype)

    # recur fills a step's da and carries dh back a step; add_step adds the
    # step's weight and input gradients from that da.  Both take da with its
    # views, made once per buffer: slicing even the views' tuple at every
    # step slowed a train-b32 step by 3%.
    def gate_views(da: Array) -> tuple[Array, ...]:  # da, da_zr, da_h, da_z, da_r
        return da, da[:, :2 * d], da[:, 2 * d:], da[:, :d], da[:, d:2 * d]

    def recur(step: int, gates: tuple[Array, ...]) -> None:
        nonlocal dh
        da, da_zr, da_h, da_z, da_r = gates
        h_prev, z, r, c = hs[step], zs[step], rs[step], cs[step]
        np.multiply(dh * z, 1.0 - c * c, out=da_h)
        d_rh = da_h @ p["u_h"]
        one_minus_z = 1.0 - z
        np.multiply(dh * (c - h_prev), z * one_minus_z, out=da_z)
        np.multiply(d_rh * h_prev, r * (1.0 - r), out=da_r)
        dh = dh * one_minus_z + d_rh * r + da_zr @ p["u_zr"]

    def add_step(step: int, gates: tuple[Array, ...]) -> None:
        da, da_zr, da_h, _, _ = gates
        h_prev = hs[step]
        grads["u_h"] += da_h.T @ (rs[step] * h_prev)
        grads["w"] += da.T @ xs[step]
        grads["u_zr"] += da_zr.T @ h_prev
        grads["b"] += da.sum(axis=0)
        np.matmul(da, p["w"], out=d_xs[step])

    steps = range(t - 1, -1, -1)
    if _train_threaded(n):
        ring = [gate_views(np.empty((n, 3 * d), dtype)) for _ in range(_RING_SLOTS)]
        run_pipelined(steps, recur, add_step, ring)
    else:
        gates = gate_views(np.empty((n, 3 * d), dtype))
        for step in steps:
            recur(step, gates)
            add_step(step, gates)
    return grads, d_xs.transpose(1, 2, 0)


def fuse_batch(h: Array, icd: Array) -> Array:
    """Concatenate states and code rows, hidden part first: (N, d+g)."""
    if h.shape[0] != icd.shape[0]:
        raise ShapeError(f"fuse_batch: {h.shape[0]} states vs {icd.shape[0]} code rows")
    return np.concatenate([h, icd], axis=1)
