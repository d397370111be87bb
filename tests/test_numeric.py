"""Numeric building blocks: rng, sigmoid, softmax, Adam, dropout, checker."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc import numeric
from hgrc.errors import ConfigError, GradientCheckError, ShapeError
from hgrc.numeric import (AdamState, Rng, adam_step, dropout_mask, finite_diff_check,
                          glorot_init, row_blocks, run_pipelined, run_row_blocks, sigmoid,
                          softmax)

SRC = Path(__file__).resolve().parents[1] / "src"

# ---------------------------------------------------------------------- rng


def test_rng_same_seed_same_stream():
    a = Rng(42).normal(size=100)
    b = Rng(42).normal(size=100)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(1).random(50), Rng(2).random(50))


def test_rng_split_deterministic_and_independent():
    kids_a = Rng(7).split(3)
    kids_b = Rng(7).split(3)
    for ka, kb in zip(kids_a, kids_b):
        assert np.array_equal(ka.random(20), kb.random(20))
    draws = [k.random(20) for k in Rng(7).split(3)]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


def test_rng_split_does_not_disturb_parent():
    r = Rng(5)
    before = Rng(5).random(10)
    r.split(4)
    assert np.array_equal(r.random(10), before)


def test_rng_permutation_is_a_permutation():
    p = Rng(0).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


# ------------------------------------------------------------------ sigmoid


def test_sigmoid_matches_naive_form():
    x = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)


def test_sigmoid_extreme_inputs_do_not_overflow():
    assert sigmoid(np.array([-1e4]))[0] == 0.0
    assert sigmoid(np.array([1e4]))[0] == 1.0
    assert np.all(np.isfinite(sigmoid(np.array([-745.0, 745.0]))))


def test_sigmoid_in_place_is_bit_identical():
    x = Rng(0).normal(scale=10.0, size=(7, 5))
    expected = sigmoid(x)
    out = np.empty_like(x)
    assert sigmoid(x, out=out) is out and np.array_equal(out, expected)
    assert sigmoid(x, out=x) is x and np.array_equal(x, expected)


def test_sigmoid_symmetry():
    x = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(-x), 1.0 - sigmoid(x), rtol=0, atol=1e-15)


# ------------------------------------------------------------------ softmax


def test_softmax_known_values():
    out = softmax(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], rtol=0, atol=1e-15)
    out = softmax(np.array([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_softmax_handles_huge_logits():
    with np.errstate(over="ignore"):  # -1e308 - 1e308 legitimately hits -inf
        out = softmax(np.array([[1e308, 0.0, -1e308]]))
    assert np.allclose(out, [[1.0, 0.0, 0.0]], rtol=0, atol=1e-15)


def test_softmax_empty_axis_rejected():
    with pytest.raises(ShapeError):
        softmax(np.zeros((3, 0)))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(seed, n, k):
    x = Rng(seed).normal(scale=5.0, size=(n, k))
    out = softmax(x, axis=1)
    assert np.all(out > 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # shift invariance along the softmax axis
    shifted = softmax(x + Rng(seed + 1).normal(size=(n, 1)), axis=1)
    assert np.allclose(out, shifted, rtol=0, atol=1e-12)


# --------------------------------------------------------------- row blocks


@pytest.mark.parametrize("n", [0, 1, 20, 255, 256, 257, 300, 512, 513, 4096, 4097])
def test_row_blocks_are_near_equal_and_cover_the_rows(n):
    for most, blocks in ((256, row_blocks(n)), (128, row_blocks(n, 128))):
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, math.ceil(n / most))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        # never a block under half the most once the rows need two blocks
        assert n <= most or min(sizes) >= most // 2
        assert sizes == [len(p) for p in np.array_split(np.arange(n), len(blocks))]


def record_blocks(n, workers, monkeypatch, fail_at=None, ran=None, delay=0.0):
    """run_row_blocks over n rows on ``workers`` threads, recording who did what.

    Appends each block run to ``ran`` after ``delay`` seconds and returns
    (ran, {slot: threads that used it}, threads that made slots).  The block
    starting at row ``fail_at`` raises instead of running.
    """
    monkeypatch.setattr(numeric, "_workers", lambda n_blocks: workers)
    ran = [] if ran is None else ran
    users, makers = {}, []

    def new_slot(rows):
        makers.append(threading.get_ident())
        return len(makers) - 1

    def fn(rows, slot):
        users.setdefault(slot, set()).add(threading.get_ident())
        if rows.start == fail_at:
            raise KeyError(rows.start)
        time.sleep(delay)
        ran.append(rows)

    run_row_blocks(n, fn, new_slot)
    return ran, users, makers


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_run_row_blocks_runs_each_block_once_and_each_slot_on_one_thread(workers, monkeypatch):
    n = 1025  # five blocks of 205
    # the delay keeps other threads busy after the caller's last block, so
    # a return before every thread is joined would miss blocks
    ran, users, makers = record_blocks(n, workers, monkeypatch, delay=0.02)
    assert sorted(b.start for b in ran) == [b.start for b in row_blocks(n)]
    assert makers == [threading.get_ident()] * workers
    assert all(len(threads) == 1 for threads in users.values())
    assert len({t for threads in users.values() for t in threads}) == len(users)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_row_blocks_joins_its_threads_and_raises_the_block_error(workers, monkeypatch):
    start = threading.active_count()
    ran = []
    with pytest.raises(KeyError, match="410"):
        record_blocks(1025, workers, monkeypatch, fail_at=410, ran=ran)
    assert threading.active_count() == start
    if workers == 1:  # in order, and none after the error
        assert [b.start for b in ran] == [0, 205]


def test_run_row_blocks_under_fast_thread_switching_loses_no_block(monkeypatch):
    # more workers than cores and a switch every microsecond: a block taken
    # twice or dropped by the shared queue would break the cover
    n = 256 * 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran, _, _ = record_blocks(n, 8, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(b.start for b in ran) == [b.start for b in row_blocks(n)]


def record_pipeline(items, n_slots, fail=None, produce_delay=0.0, consume_delay=0.0):
    """run_pipelined over ``items``, each slot filled with its item; returns what was seen.

    Returns (produced, consumed, the consume thread ids).  ``fail`` is
    ("produce" or "consume", item): that call raises instead of running.
    Each produce waits ``produce_delay`` seconds before it fills its slot,
    so a consume that read its slot before it was filled would see the old
    item; each consume waits ``consume_delay`` seconds first, so the
    producer runs a full ring ahead and waits for a slot.
    """
    produced, consumed, consumers = [], [], set()
    slots = [np.full(4, -1.0) for _ in range(n_slots)]

    def produce(item, slot):
        if fail == ("produce", item):
            raise KeyError(item)
        time.sleep(produce_delay)
        slot[...] = item
        produced.append(item)

    def consume(item, slot):
        consumers.add(threading.get_ident())
        time.sleep(consume_delay)
        if fail == ("consume", item):
            raise KeyError(item)
        consumed.append((item, slot.copy()))

    run_pipelined(items, produce, consume, slots)
    return produced, consumed, consumers


@pytest.mark.parametrize("n_slots", [1, 4])
def test_run_pipelined_consumes_each_item_in_order_on_one_other_thread(n_slots):
    items = range(39, -1, -1)
    produced, consumed, consumers = record_pipeline(items, n_slots, produce_delay=0.001)
    assert produced == list(items)
    # each slot read only after its own item filled it and before the next refilled it
    assert [item for item, _ in consumed] == list(items)
    assert all(np.all(seen == item) for item, seen in consumed)
    assert len(consumers) == 1 and threading.get_ident() not in consumers


@pytest.mark.parametrize("side", ["produce", "consume"])
@pytest.mark.parametrize("at", [0, 5, 19])
def test_run_pipelined_joins_its_worker_and_raises_either_side_error(side, at):
    failed = []

    def run():
        try:  # the consumer lags, so a failing consumer leaves the producer waiting for a slot
            record_pipeline(range(20), 4, fail=(side, at), consume_delay=0.005)
        except KeyError as exc:
            failed.append(exc)

    start = threading.active_count()
    caller = threading.Thread(target=run, daemon=True)  # a hang fails here, not at exit
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_pipelined hung after an error"
    assert [exc.args for exc in failed] == [(at,)]
    assert threading.active_count() == start


def test_run_pipelined_under_fast_thread_switching_loses_no_item():
    # a switch every microsecond: a slot refilled before it was read, or an
    # item dropped by the ring, breaks the ordered, matching record
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, consumed, _ = record_pipeline(range(2000), 4)
    finally:
        sys.setswitchinterval(interval)
    assert [item for item, _ in consumed] == list(range(2000))
    assert all(np.all(seen == item) for item, seen in consumed)


def test_workers_is_one_unless_blas_reads_one_thread(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.setattr(numeric, "_blas_thread_query", lambda: None)
    assert numeric._workers(16) == 1
    for threads, workers in ((0, 1), (2, 1), (8, 1), (1, min(cores, 16))):
        monkeypatch.setattr(numeric, "_blas_thread_query", lambda t=threads: lambda: t)
        assert numeric._workers(16) == workers, threads
    assert numeric._workers(1) == 1


@pytest.mark.parametrize("found", [[], ["/nonexistent/libscipy_openblas64_.so"]])
def test_blas_thread_query_is_none_when_the_library_is_not_found(found, monkeypatch):
    monkeypatch.setattr(numeric.glob, "glob", lambda pattern: found)
    assert numeric._blas_thread_query.__wrapped__() is None


@pytest.mark.parametrize("threads", ["1", "2"])
def test_workers_follow_the_blas_thread_count(threads):
    # OpenBLAS reads its thread count when numpy loads it, so each count
    # needs a fresh interpreter
    probe = ("import os; from hgrc import numeric; q = numeric._blas_thread_query(); "
             "print(-1 if q is None else q(), numeric._workers(16), "
             "len(os.sched_getaffinity(0)))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    read, workers, cores = map(int, out)
    if read == -1:
        pytest.skip("numpy does not bundle OpenBLAS here")
    if threads == "1":
        assert (read, workers) == (1, min(cores, 16))
    else:  # OpenBLAS caps its count at the cores, so one core reads 1 here
        assert read == min(2, cores) and workers == (1 if read > 1 else min(cores, 16))


# --------------------------------------------------------------------- adam


def test_adam_two_steps_frozen_values():
    # derived by hand from the bias-corrected update, lr 0.01,
    # gradient sequence [0.5, -0.25] on a scalar starting at 1.0
    p = np.array([1.0])
    state = AdamState.zeros((1,), learning_rate=0.01)
    p, state = adam_step(p, np.array([0.5]), state)
    assert np.allclose(p, [0.9900000002], rtol=0, atol=1e-12)
    p, state = adam_step(p, np.array([-0.25]), state)
    assert np.allclose(p, [0.9873366298707846], rtol=0, atol=1e-12)
    assert state.step == 2


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes m_hat = g and v_hat = g^2 on step one
    g = np.array([3.0, -0.2, 1e-3])
    p = np.zeros(3)
    state = AdamState.zeros((3,), learning_rate=0.05)
    p, _ = adam_step(p, g, state)
    expected = -0.05 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_adam_descends_a_quadratic():
    p = np.array([5.0])
    state = AdamState.zeros((1,), learning_rate=0.1)
    for _ in range(300):
        p, state = adam_step(p, 2.0 * p, state)
    assert abs(p[0]) < 0.05


def test_adam_shape_mismatch_rejected():
    state = AdamState.zeros((2,), learning_rate=0.01)
    with pytest.raises(ShapeError):
        adam_step(np.zeros(3), np.zeros(3), state)
    with pytest.raises(ShapeError):
        adam_step(np.zeros(2), np.zeros(3), state)


def test_adam_state_is_not_mutated():
    state = AdamState.zeros((2,), learning_rate=0.01)
    adam_step(np.ones(2), np.ones(2), state)
    assert state.step == 0
    assert np.array_equal(state.first_moment, np.zeros(2))


# ------------------------------------------------------------------ dropout


def test_dropout_mask_values_and_mean():
    rate = 0.2
    mask = dropout_mask((200, 50), rate, Rng(11))
    assert set(np.unique(mask)).issubset({0.0, 1.0 / (1.0 - rate)})
    # inverted dropout keeps the expectation at 1
    assert abs(mask.mean() - 1.0) < 0.02


def test_dropout_mask_rate_zero_is_identity():
    assert np.array_equal(dropout_mask((3, 4), 0.0, Rng(0)), np.ones((3, 4)))


def test_dropout_mask_invalid_rate():
    with pytest.raises(ConfigError):
        dropout_mask((2,), 1.0, Rng(0))
    with pytest.raises(ConfigError):
        dropout_mask((2,), -0.1, Rng(0))


def test_dropout_mask_deterministic():
    assert np.array_equal(dropout_mask((8, 8), 0.5, Rng(3)),
                          dropout_mask((8, 8), 0.5, Rng(3)))


# --------------------------------------------------------------------- init


def test_glorot_bounds_and_shape():
    fan_in, fan_out = 30, 50
    w = glorot_init(fan_in, fan_out, Rng(1))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    assert w.shape == (fan_in, fan_out)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.1 * limit


def test_glorot_rejects_bad_dims():
    with pytest.raises(ConfigError):
        glorot_init(0, 3, Rng(0))


# ----------------------------------------------------------------- fd check


def test_finite_diff_check_quadratic_is_tight():
    params = {"p": Rng(0).normal(size=(4, 3))}

    def loss(ps):
        return float((ps["p"] ** 2).sum())

    err = finite_diff_check(loss, params, {"p": 2.0 * params["p"]})
    assert err < 1e-9


def test_finite_diff_check_cubic_is_tight():
    # a single central difference is off by h^2 here (the third derivative
    # is 6); only the extrapolation cancels that term and leaves rounding
    params = {"p": Rng(0).normal(size=(4, 3))}

    def loss(ps):
        return float((ps["p"] ** 3).sum())

    err = finite_diff_check(loss, params, {"p": 3.0 * params["p"] ** 2})
    assert err < 1e-9


def test_finite_diff_check_resolves_entry_near_error_floor():
    # pure-float loss of size ~0.7 whose second gradient entry, 3.6e-9, sits
    # below the 1e-8 floor: the reading is then the estimator's absolute
    # error over 1e-8, so it measures rounding noise, not the gradient
    params = {"p": np.array([0.3, 0.2])}

    def loss(ps):
        p0, p1 = float(ps["p"][0]), float(ps["p"][1])
        return 0.7 + 0.5 * p0 ** 2 + 3e-8 * p1 ** 3

    exact = np.array([0.3, 9e-8 * 0.2 ** 2])
    assert finite_diff_check(loss, params, {"p": exact}) < 1e-4
    off = exact * np.array([1.0, 1.01])
    assert finite_diff_check(loss, params, {"p": off}) > 1e-3


def test_finite_diff_check_catches_wrong_gradient():
    params = {"p": np.array([1.0, 2.0])}

    def loss(ps):
        return float((ps["p"] ** 2).sum())

    err = finite_diff_check(loss, params, {"p": 3.0 * params["p"]})
    assert err > 0.3


def test_finite_diff_check_restores_parameters():
    params = {"p": np.array([1.0, -2.0, 3.0])}
    snapshot = params["p"].copy()
    finite_diff_check(lambda ps: float((ps["p"] ** 2).sum()),
                      params, {"p": 2.0 * params["p"]})
    assert np.array_equal(params["p"], snapshot)


def test_finite_diff_check_nonfinite_loss_raises():
    params = {"p": np.array([0.0])}

    def loss(ps):
        # finite only at the unperturbed point, so every probe blows up
        return 0.0 if ps["p"][0] == 0.0 else math.inf

    with pytest.raises(GradientCheckError, match="non-finite loss"):
        finite_diff_check(loss, params, {"p": np.array([0.0])})


def test_finite_diff_check_validates_inputs():
    params = {"p": np.zeros(2)}
    with pytest.raises(ConfigError):
        finite_diff_check(lambda ps: 0.0, params, {"p": np.zeros(2)}, h=0.0)
    with pytest.raises(ShapeError):
        finite_diff_check(lambda ps: 0.0, params, {"p": np.zeros(3)})
