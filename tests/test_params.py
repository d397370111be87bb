"""The flat parameter buffer: layout, named views, one Adam call per step."""

import math

import numpy as np
import pytest

from hgrc.errors import ShapeError
from hgrc.model import ModelConfig, ModelParams, backward, forward_train, init_params, param_layout
from hgrc.numeric import AdamState, Rng, adam_step

TINY = dict(n_variables=2, n_codes=4, hidden_size=3,
            hconv_layers=2, phi_width=3, ffn_hidden=(4, 3), dropout=0.0)

NAMES = (["gru." + n for n in ("w", "u_zr", "u_h", "b")]
         + ["theta.0", "theta.1", "zeta", "phi"]
         + [f"ffn.{n}" for n in ("w1", "b1", "w2", "b2", "wy", "by")])


@pytest.mark.parametrize("overrides", [{}, {"hconv_layers": 0}, {"ffn_hidden": (1, 5)}])
def test_layout_is_contiguous_and_covers_the_buffer(overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    layout = param_layout(cfg)
    offset = 0
    for _name, shape, start in layout:
        assert start == offset
        offset += math.prod(shape)
    params = ModelParams(cfg)
    assert params.flat.shape == (offset,)
    assert sum(a.size for a in params.named_arrays().values()) == offset
    # every element of the buffer belongs to exactly one view
    owner = np.zeros(offset, dtype=int)
    for arr in params.named_arrays().values():
        assert np.shares_memory(arr, params.flat)
        arr[...] = 1.0
        owner += params.flat.astype(int)
        arr[...] = 0.0
    assert np.array_equal(owner, np.ones(offset, dtype=int))


def test_layout_names_and_order_are_the_checkpoint_table():
    params = ModelParams(ModelConfig(**TINY))
    assert [name for name, _, _ in params.layout] == NAMES
    assert list(params.named_arrays()) == NAMES
    assert params.named_arrays()["gru.w"].shape == (9, 2)
    assert params.named_arrays()["gru.u_zr"].shape == (6, 3)
    assert params.named_arrays()["zeta"].shape == ()
    assert params.named_arrays()["ffn.w1"].shape == (3, 4)
    assert params.named_arrays()["ffn.w2"].shape == (4, 3)
    assert params.named_arrays()["ffn.by"].shape == (2,)
    # the defaults' three hypergraph layers give 15 entries and 36637 floats
    layout = param_layout(ModelConfig())
    assert len(layout) == 15
    assert sum(math.prod(shape) for _, shape, _ in layout) == 36637


def test_writing_through_any_view_changes_flat():
    params = init_params(ModelConfig(**TINY), Rng(3))
    for name, arr in params.named_arrays().items():
        before = params.flat.copy()
        arr[...] = arr + 1.5
        changed = np.flatnonzero(params.flat != before)
        assert changed.size == arr.size, name
        assert np.array_equal(params.flat[changed], before[changed] + 1.5), name


def test_grouped_views_alias_the_named_views():
    params = init_params(ModelConfig(**TINY), Rng(4))
    named = params.named_arrays()
    assert np.shares_memory(params.gru["u_h"], named["gru.u_h"])
    assert np.shares_memory(params.thetas[1], named["theta.1"])
    assert np.shares_memory(params.ffn["wy"], named["ffn.wy"])
    params.zeta[...] = 0.25
    assert named["zeta"] == 0.25


def test_copy_owns_its_buffer():
    params = init_params(ModelConfig(**TINY), Rng(5))
    twin = params.copy()
    assert np.array_equal(twin.flat, params.flat)
    assert not np.shares_memory(twin.flat, params.flat)
    params.phi[...] = 7.0
    assert not np.any(twin.phi == 7.0)


def test_buffer_must_match_the_layout():
    cfg = ModelConfig(**TINY)
    size = ModelParams(cfg).flat.size
    with pytest.raises(ShapeError):
        ModelParams(cfg, np.zeros(size + 1))
    for dtype in (np.float16, np.int64, ">f4"):
        with pytest.raises(ShapeError):
            ModelParams(cfg, np.zeros(size, dtype=dtype))
    # the model runs in float32; the gradient checks build float64 buffers
    assert ModelParams(cfg).flat.dtype == np.float32
    for dtype in (np.float32, np.float64):
        params = ModelParams(cfg, np.zeros(size, dtype=dtype))
        assert params.zeros_like().flat.dtype == params.copy().flat.dtype == dtype


def test_one_flat_adam_step_equals_per_array_steps():
    """Oracle: Adam over the buffer gives the bits of Adam over each view."""
    cfg = ModelConfig(**TINY)
    flat_params = init_params(cfg, Rng(6))
    ref_params = flat_params.copy()
    flat_state = AdamState.zeros(flat_params.flat.shape, np.float32, learning_rate=0.01)
    ref_states = {name: AdamState.zeros(arr.shape, np.float32, learning_rate=0.01)
                  for name, arr in ref_params.named_arrays().items()}
    data = Rng(7)
    for step in range(6):
        batch = (data.normal(size=(5, 2, 3)), (data.random((5, 4)) < 0.5).astype(np.float64),
                 np.array([0, 1, 1, 0, 1]))
        _, cache = forward_train(flat_params, *batch)
        grads = backward(flat_params, cache)
        new_flat, flat_state = adam_step(flat_params.flat, grads.flat, flat_state)
        flat_params.flat[...] = new_flat

        _, cache = forward_train(ref_params, *batch)
        ref_grads = backward(ref_params, cache).named_arrays()
        for name, p in ref_params.named_arrays().items():
            new_p, ref_states[name] = adam_step(p, ref_grads[name], ref_states[name])
            p[...] = new_p
        assert np.array_equal(flat_params.flat, ref_params.flat), step
    assert flat_state.step == 6
    assert not np.array_equal(flat_params.flat, init_params(cfg, Rng(6)).flat)
