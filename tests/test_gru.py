"""GRU encoder: forward values, BPTT gradients, fusion."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hgrc import encoder, numeric
from hgrc.encoder import encode_batch, encode_batch_backward, fuse_batch, init_gru_params
from hgrc.errors import ShapeError
from hgrc.numeric import Rng, finite_diff_check


def scalar_params():
    # gates stacked in z, r, h order: w_z=0.5, w_r=0.2, w_h=0.7; u_z=-0.3,
    # u_r=0.4; u_h=0.6; b_z=0.1, b_r=-0.2, b_h=0.05
    return dict(
        w=np.array([[0.5], [0.2], [0.7]]), u_zr=np.array([[-0.3], [0.4]]),
        u_h=np.array([[0.6]]), b=np.array([0.1, -0.2, 0.05]),
    )


# the model's float32, and the float64 that the oracles and gradient checks use
DTYPES = (np.float32, np.float64)


def gru_params(input_size, hidden_size, rng, dtype=np.float64):
    """Initialised ``dtype`` GRU parameters for M inputs and d hidden units."""
    d = hidden_size
    p = {"w": np.full((3 * d, input_size), np.nan, dtype),
         "u_zr": np.full((2 * d, d), np.nan, dtype),
         "u_h": np.full((d, d), np.nan, dtype), "b": np.full(3 * d, np.nan, dtype)}
    init_gru_params(p, rng)
    return p


def gates(p):
    """Per-gate views of the stacked arrays: {name: array} for w_z ... b_h."""
    d = p["u_h"].shape[0]
    rows = {"z": slice(0, d), "r": slice(d, 2 * d), "h": slice(2 * d, 3 * d)}
    out = {f"w_{g}": p["w"][rows[g]] for g in "zrh"}
    out.update({f"b_{g}": p["b"][rows[g]] for g in "zrh"})
    out.update(u_z=p["u_zr"][:d], u_r=p["u_zr"][d:], u_h=p["u_h"])
    return out


def zero_grads(p):
    return {name: np.zeros_like(arr) for name, arr in p.items()}


def oracle_step(x, h, stacked):
    """One GRU step for one patient, written out gate by gate from the
    documented convention with the naive logistic 1 / (1 + e^-a)."""
    def logistic(a):
        return 1.0 / (1.0 + np.exp(-a))
    p = gates(stacked)
    z = logistic(p["w_z"] @ x + p["u_z"] @ h + p["b_z"])
    r = logistic(p["w_r"] @ x + p["u_r"] @ h + p["b_r"])
    c = np.tanh(p["w_h"] @ x + p["u_h"] @ (r * h) + p["b_h"])
    return (1.0 - z) * h + z * c


def oracle_sequence(series, p):
    """Final state of one patient's (M, T) series from h_0 = 0."""
    h = np.zeros(p["u_h"].shape[0])
    for step in range(series.shape[1]):
        h = oracle_step(series[:, step], h, p)
    return h


def test_gru_cell_single_step_hand_values():
    # z = sigmoid(0.41), r = sigmoid(0.08), c = tanh(0.61 + 0.18 r),
    # h = (1 - z) * 0.3 + z * c, worked out by hand
    h = oracle_step(np.array([0.8]), np.array([0.3]), scalar_params())
    assert np.allclose(h, [0.4843215882014216], rtol=0, atol=1e-15)


def test_encode_sequence_two_steps_hand_values():
    series = np.array([[0.8, -0.5]])  # (M=1, T=2)
    h = oracle_sequence(series, scalar_params())
    assert np.allclose(h, [0.10137860073726401], rtol=0, atol=1e-15)
    batch_h, _ = encode_batch(series[None], scalar_params())
    assert np.allclose(batch_h[0], [0.10137860073726401], rtol=0, atol=1e-15)


def test_encode_batch_matches_the_step_oracle():
    p = gru_params(3, 4, Rng(5))
    series = Rng(6).normal(size=(6, 3, 8))
    batch_h, _ = encode_batch(series, p)
    for i in range(6):
        assert np.allclose(batch_h[i], oracle_sequence(series[i], p), rtol=0, atol=1e-15)


def test_initial_state_is_zero_and_zero_params_keep_it_zero():
    p = {name: np.zeros_like(a) for name, a in scalar_params().items()}
    series = Rng(0).normal(size=(4, 1, 6))
    h, _ = encode_batch(series, p)
    # h = (1 - z) h + z tanh(0) stays exactly 0 from h_0 = 0
    assert np.array_equal(h, np.zeros((4, 1)))


def test_hidden_state_is_bounded():
    p = gru_params(3, 5, Rng(1))
    series = Rng(2).normal(scale=50.0, size=(7, 3, 20))
    h, _ = encode_batch(series, p)
    assert np.all(np.abs(h) <= 1.0)


def test_encode_batch_matches_per_patient_encoding():
    p = gru_params(2, 4, Rng(3))
    series = Rng(4).normal(size=(5, 2, 6))
    batch_h, _ = encode_batch(series, p)
    for i in range(5):
        alone, _ = encode_batch(series[i:i + 1], p)
        assert np.allclose(batch_h[i], alone[0], rtol=0, atol=1e-15)


def test_encode_batch_without_cache_gives_the_same_states():
    p = gru_params(3, 4, Rng(5))
    series = Rng(6).normal(size=(6, 3, 7))
    cached, cache = encode_batch(series, p)
    alone, none = encode_batch(series, p, keep_cache=False)
    assert none is None and cache is not None
    assert np.array_equal(alone, cached)


@pytest.mark.parametrize("n", [513, 1025, 4097])
def test_blocked_eval_equals_the_whole_batch_bitwise(n, monkeypatch):
    # without a cache the rows run in near-equal blocks of at most 512; rows
    # are independent, so every state must equal that of the cached pass,
    # held here to one block of the whole batch.  N = 513 is where a fixed
    # 512-row block would leave a 1-row tail
    monkeypatch.setattr(encoder, "_train_threaded", lambda n: False)
    series = Rng(41).normal(size=(n, 16, 3))
    for dtype in DTYPES:
        p = gru_params(16, 59, Rng(40), dtype)
        cached, _ = encode_batch(series, p, keep_cache=True)
        blocked, _ = encode_batch(series, p, keep_cache=False)
        assert blocked.dtype == dtype and np.array_equal(blocked, cached), dtype


def test_eval_encoder_memory_is_bounded_by_its_blocks(monkeypatch):
    # the whole-batch loop held about 11 (N, d) arrays; blocked, the eval
    # encoder holds the (N, d) result and one block's buffers per worker
    n, d = 4097, 59
    p = gru_params(16, d, Rng(42))
    series = Rng(43).normal(size=(n, 16, 3))
    for workers in (1, 2):
        monkeypatch.setattr(numeric, "_workers", lambda n_blocks, w=workers: w)
        tracemalloc.start()
        try:
            encode_batch(series, p, keep_cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * d * 8, (workers, peak)


@pytest.mark.parametrize("n, threads", [(512, []), (513, ["hgrc-row-block"])])
def test_scoring_runs_a_cohort_of_one_block_on_the_calling_thread(n, threads, monkeypatch,
                                                                  one_blas_thread):
    # two cores: a second thread starts only for a second block of 512 rows
    monkeypatch.setattr(numeric, "_workers", lambda n_blocks: min(2, n_blocks))
    p = gru_params(16, 59, Rng(52), np.float32)
    series = Rng(53).normal(size=(n, 16, 3))
    started = started_threads(monkeypatch)
    encode_batch(series, p, keep_cache=False)
    assert started == threads


@pytest.mark.parametrize("dtype", DTYPES)
def test_the_halved_gate_rows_give_the_logistic_of_the_whole_sum_bitwise(dtype):
    # the encoder halves the z/r rows of w, b and u_zr so that each step's
    # products give a / 2; z and r must equal the logistic of the unhalved
    # sum, computed in the order of numeric.sigmoid, bit for bit
    d = 59
    p = gru_params(16, d, Rng(54), dtype)
    p["b"][...] = Rng(55).normal(size=3 * d)  # init leaves the biases at 0
    series = Rng(56).normal(size=(64, 16, 6))
    _, (xs, hs, zs, rs, _) = encode_batch(series, p)
    for x, h_prev, z, r in zip(xs, hs, zs, rs):
        a = np.add(np.matmul(x, p["w"].T), p["b"])
        zr = numeric.sigmoid(np.add(np.matmul(h_prev, p["u_zr"].T), a[:, :2 * d]))
        assert zr.dtype == dtype
        assert np.array_equal(z, zr[:, :d]) and np.array_equal(r, zr[:, d:])


# batch sizes at and around the training block edges: one block of 128 rows
# or fewer runs on the calling thread, blocks hold 64 rows or more, and the
# recurrence's da_zr @ u_zr changes kernel at 144 rows
TRAIN_EDGE_ROWS = (2, 21, 128, 129, 143, 144, 200, 256, 257, 385)


def gru_pass(series, p, d_h):
    """Every array the cached forward and the backward return, in a list."""
    h, cache = encode_batch(series, p)
    grads, d_series = encode_batch_backward(d_h, cache, p, zero_grads(p))
    return [h, *cache, *grads.values(), d_series]


def started_threads(monkeypatch):
    """A list that records the name of every thread started from here on."""
    names = []
    start = threading.Thread.start

    def recording(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names


# one_blas_thread is the same for every example
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from(TRAIN_EDGE_ROWS), seed=st.integers(0, 2 ** 16))
@example(n=2, seed=0)
@example(n=21, seed=0)
@example(n=128, seed=0)
@example(n=129, seed=0)
@example(n=143, seed=0)
@example(n=144, seed=0)
@example(n=200, seed=0)
@example(n=256, seed=0)
@example(n=257, seed=0)
@example(n=385, seed=0)
def test_the_training_worker_count_changes_no_bit(n, seed, one_blas_thread):
    # the model's widths, so every product takes the kernel path training takes
    for dtype in DTYPES:
        p = gru_params(16, 59, Rng(seed), dtype)
        data = Rng(seed + 1)
        series, d_h = data.normal(size=(n, 16, 4)), data.normal(size=(n, 59)).astype(dtype)
        runs = []
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numeric, "_workers", lambda n_blocks, w=workers: min(w, n_blocks))
                threads = started_threads(mp)
                runs.append(gru_pass(series, p, d_h))
            assert bool(threads) == (workers > 1 and n > 128), (workers, threads)
        for run in runs[1:]:
            assert len(run) == len(runs[0]) == 11
            assert all(a.dtype == dtype and np.array_equal(a, b) for a, b in zip(run, runs[0]))


class FailingRead:
    """A cache array whose step ``step`` raises when read."""

    def __init__(self, array, step):
        self.array, self.step, self.shape = array, step, array.shape

    def __getitem__(self, key):
        if (key[-1] if isinstance(key, tuple) else key) == self.step:
            raise FloatingPointError(f"step {self.step} failed")
        return self.array[key]


def error_within_a_minute(call):
    """The error ``call()`` raises, from a thread that must end within 60 s."""
    errors = []

    def run():
        try:
            call()
        except FloatingPointError as exc:
            errors.append(exc)

    caller = threading.Thread(target=run, daemon=True)  # a hang fails here, not at exit
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the GRU hung after an error"
    assert len(errors) == 1
    return errors[0]


@pytest.mark.parametrize("keep_cache", [False, True])
def test_a_failing_gru_block_raises_its_error_and_joins_every_thread(keep_cache, monkeypatch):
    monkeypatch.setattr(numeric, "_workers", lambda n_blocks: min(2, n_blocks))
    p = gru_params(3, 4, Rng(44))
    if keep_cache:  # four blocks of 97, 96, 96 and 96 rows
        series, failing_rows = Rng(47).normal(size=(385, 3, 2)), slice(193, 289)
    else:  # three blocks of 342, 342 and 341 rows
        series, failing_rows = Rng(45).normal(size=(1025, 3, 2)), slice(342, 684)
    gru_block = encoder._gru_block

    def failing(block, *args):
        if np.shares_memory(block, series[failing_rows]):
            raise FloatingPointError("block failed")
        gru_block(block, *args)

    monkeypatch.setattr(encoder, "_gru_block", failing)
    start = threading.active_count()
    exc = error_within_a_minute(lambda: encode_batch(series, p, keep_cache=keep_cache))
    assert str(exc) == "block failed"
    assert threading.active_count() == start


# the cache index each side reads: the recurrence alone reads cs, and the
# weight gradients alone read the time-major input copy
@pytest.mark.parametrize("side, index", [("recurrence", 4), ("weight gradients", 0)])
@pytest.mark.parametrize("step", [5, 3, 0])  # first, middle and last of the backward's steps
def test_a_failing_backward_side_raises_its_error(side, index, step, monkeypatch):
    monkeypatch.setattr(numeric, "_workers", lambda n_blocks: 2)
    p = gru_params(3, 4, Rng(48))
    data = Rng(49)
    series, d_h = data.normal(size=(256, 3, 6)), data.normal(size=(256, 4))
    _, cache = encode_batch(series, p)
    cache = list(cache)
    cache[index] = FailingRead(cache[index], step)
    threads = started_threads(monkeypatch)
    exc = error_within_a_minute(lambda: encode_batch_backward(d_h, cache, p, zero_grads(p)))
    assert str(exc) == f"step {step} failed"
    assert "hgrc-pipeline" in threads


@pytest.mark.parametrize("blas_threads", [None, 2, 8])
def test_training_starts_no_thread_unless_blas_runs_one(blas_threads, monkeypatch,
                                                        one_blas_thread):
    # the query is faked; the real BLAS runs one thread, so the threaded run
    # below must equal the whole-batch one
    query = None if blas_threads is None else (lambda: blas_threads)
    monkeypatch.setattr(numeric, "_blas_thread_query", lambda: query)
    p = gru_params(16, 59, Rng(50), np.float32)  # the model's dtype
    data = Rng(51)
    series, d_h = data.normal(size=(256, 16, 3)), data.normal(size=(256, 59)).astype(np.float32)
    threads = started_threads(monkeypatch)
    whole = gru_pass(series, p, d_h)
    assert threads == []
    if len(os.sched_getaffinity(0)) > 1:  # the same batch with a one-thread BLAS
        monkeypatch.setattr(numeric, "_blas_thread_query", lambda: lambda: 1)
        threaded = gru_pass(series, p, d_h)
        assert threads and all(np.array_equal(a, b) for a, b in zip(threaded, whole))


def test_encode_batch_input_validation():
    p = gru_params(2, 3, Rng(0))
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 2)), p)
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 3, 5)), p)
    with pytest.raises(ShapeError):
        encode_batch(np.zeros((4, 2, 0)), p)
    with pytest.raises(ShapeError, match="impute"):
        encode_batch(np.full((1, 2, 3), np.nan), p)


def test_bptt_gradients_match_finite_differences():
    p = gru_params(2, 3, Rng(10))
    series = Rng(11).normal(size=(4, 2, 5))
    proj = Rng(12).normal(size=(4, 3))  # random loss projection

    def loss(arrays):
        h, _ = encode_batch(series, arrays)
        return float((h * proj).sum())

    h, cache = encode_batch(series, p)
    grads, _ = encode_batch_backward(proj, cache, p, zero_grads(p))
    err = finite_diff_check(loss, p, grads)
    assert err < 1e-6


def test_bptt_series_gradient_matches_finite_differences():
    p = gru_params(2, 3, Rng(20))
    series = Rng(21).normal(size=(3, 2, 4))
    proj = Rng(22).normal(size=(3, 3))

    def loss(arrays):
        h, _ = encode_batch(arrays["series"], p)
        return float((h * proj).sum())

    _, cache = encode_batch(series, p)
    _, d_series = encode_batch_backward(proj, cache, p, zero_grads(p))
    err = finite_diff_check(loss, {"series": series}, {"series": d_series})
    assert err < 1e-6


def test_zero_upstream_gradient_gives_zero_grads():
    p = gru_params(2, 3, Rng(30))
    series = Rng(31).normal(size=(4, 2, 5))
    _, cache = encode_batch(series, p)
    grads, d_series = encode_batch_backward(np.zeros((4, 3)), cache, p, zero_grads(p))
    for arr in grads.values():
        assert np.array_equal(arr, np.zeros_like(arr))
    assert np.array_equal(d_series, np.zeros_like(series))


def test_init_gru_params_shapes_and_zero_biases():
    stacked = gru_params(7, 4, Rng(0))
    assert stacked["w"].shape == (12, 7) and stacked["u_zr"].shape == (8, 4)
    assert stacked["u_h"].shape == (4, 4) and stacked["b"].shape == (12,)
    p = gates(stacked)
    limit = np.sqrt(6.0 / 11.0)
    for name in ("w_z", "w_r", "w_h"):
        assert p[name].shape == (4, 7)
        assert np.all(np.abs(p[name]) <= limit) and np.all(p[name] != 0.0)
    for name in ("u_z", "u_r", "u_h"):
        assert p[name].shape == (4, 4)
        assert np.all(np.isfinite(p[name])) and np.all(p[name] != 0.0)
    for name in ("b_z", "b_r", "b_h"):
        assert np.array_equal(p[name], np.zeros(4))
    # one stream per weight: no two matrices share their draws
    assert not np.array_equal(p["w_z"], p["w_r"])
    assert not np.array_equal(p["u_z"], p["u_h"])


def test_init_draws_each_gate_block_on_its_own_glorot_limit():
    # a stack initialised as one matrix would draw on the wider limit of the
    # whole (3d, M) or (2d, d) shape and break the per-gate one
    d, m = 6, 2
    blocks = {"w": (3, (d, m)), "u_zr": (2, (d, d)), "u_h": (1, (d, d))}
    outside = []
    for seed in range(5):
        p = gru_params(m, d, Rng(seed))
        for name, (n_gates, (rows, cols)) in blocks.items():
            gate_limit = np.sqrt(6.0 / (rows + cols))
            stack_limit = np.sqrt(6.0 / (n_gates * rows + cols))
            for k in range(n_gates):
                assert np.all(np.abs(p[name][k * d:(k + 1) * d]) <= gate_limit), name
            outside.append(np.abs(p[name]).max() > stack_limit)
    assert any(outside)


def test_fuse_concatenates_hidden_then_codes():
    hb = np.array([[1.0, 2.0], [3.0, 4.0]])
    cb = np.array([[1.0], [0.0]])
    assert np.array_equal(fuse_batch(hb, cb), [[1.0, 2.0, 1.0], [3.0, 4.0, 0.0]])
    with pytest.raises(ShapeError):
        fuse_batch(hb, np.zeros((3, 1)))
