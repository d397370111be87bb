"""Whole-pipeline gradient checks and forward-mode contracts.

The fixture nudges every parameter away from its init point: the
zero-output saddle otherwise leaves gradient entries at exactly zero, where a
central difference measures only float cancellation noise.  It holds the
parameters in a float64 buffer: the model computes in its buffer's dtype,
and finite differences need float64's precision to resolve the gradients.
"""

import dataclasses

import numpy as np
import pytest

from hgrc import encoder, head, hypergraph, model, simgraph
from hgrc.errors import ConfigError, ShapeError
from hgrc.model import (ModelConfig, ModelParams, backward, forward_eval, forward_train,
                        init_params, make_dropout_masks)
from hgrc.numeric import AdamState, Rng, adam_step, finite_diff_check
from hgrc.simgraph import similarity, threshold

TINY = dict(n_variables=2, n_codes=4, hidden_size=3,
            hconv_layers=2, phi_width=3, ffn_hidden=(4, 3), dropout=0.0)


def gate_blocks(params):
    """Every parameter array, the GRU's cut into per-gate blocks taken w, u, b
    for each of the z, r and h gates; the other arrays in layout order."""
    d, gru = params.config.hidden_size, params.gru
    blocks = []
    for k in range(3):
        rows = slice(k * d, (k + 1) * d)
        u = gru["u_zr"][rows] if k < 2 else gru["u_h"]
        blocks += [gru["w"][rows], u, gru["b"][rows]]
    return blocks + [arr for name, arr in params.named_arrays().items()
                     if not name.startswith("gru.")]


def float64_params(cfg, rng):
    """init_params' values in a float64 buffer."""
    return ModelParams(cfg, init_params(cfg, rng).flat.astype(np.float64))


def tiny_fixture(seed=236, nudge_scale=0.3, **overrides):
    """Nudged parameters plus one batch, (series, codes, labels), with an
    isolated (code-free) patient.

    The nudge is drawn gate by gate, so the point does not depend on how the
    GRU's gates are stacked in the parameter layout.
    """
    cfg = ModelConfig(**{**TINY, **overrides})
    params = float64_params(cfg, Rng(seed))
    nudge = Rng(seed + 1000)
    for arr in gate_blocks(params):
        if arr.ndim:
            arr += nudge.normal(scale=nudge_scale, size=arr.shape)
    data_rng = Rng(seed + 2000)
    series = data_rng.normal(size=(5, 2, 3))
    icd = (data_rng.random((5, 4)) < 0.5).astype(np.float64)
    icd[0] = 0.0
    return params, (series, icd, np.array([0, 1, 1, 0, 1]))


def run_check(params, batch):
    _, cache = forward_train(params, *batch)
    grads = backward(params, cache)
    return finite_diff_check(lambda _: forward_train(params, *batch)[0],
                             params.named_arrays(), grads.named_arrays())


# the steep threshold sigmoid and entries just above the 1e-8 error floor
# (zeta's gradient is -3.6e-8 without the hypergraph stack) make these the
# readings most exposed to rounding in the loss, so every variant shares the
# pipeline-wide 1e-4 bound rather than a tighter per-variant one
def test_full_pipeline_gradients_tanh():
    params, batch = tiny_fixture()
    assert run_check(params, batch) < 1e-4


def zeta_at_median_similarity(params, series, icd):
    """Move zeta to the median off-diagonal evaluation similarity, so about
    half the pairs are edges; returns the off-diagonal soft adjacency."""
    a = similarity(forward_eval(params, series, icd)[1]["hconv"])
    off_diagonal = ~np.eye(len(series), dtype=bool)
    params.zeta[...] = np.median(a[off_diagonal])
    return threshold(a, float(params.zeta), "train")[off_diagonal]


def test_full_pipeline_gradients_with_zeta_inside_the_similarities():
    # at the fixture's zeta the soft adjacency is about 1e-9 everywhere, so
    # the threshold passes almost no gradient; at the median off-diagonal
    # similarity half the pairs sit on the steep part of the sigmoid
    params, batch = tiny_fixture()
    soft = zeta_at_median_similarity(params, *batch[:2])
    assert soft.min() < 0.5 < soft.max()
    assert run_check(params, batch) < 1e-4


def test_full_pipeline_gradients_without_hypergraph_stack():
    params, batch = tiny_fixture(hconv_layers=0)
    assert params.thetas == []
    assert run_check(params, batch) < 1e-4


def test_full_pipeline_gradients_without_similarity():
    # at zeta = +inf the soft adjacency is exactly 0, so the graph passes no
    # gradient and aggregation sees self-loops only
    params, batch = tiny_fixture(seed=11)
    params.zeta[...] = np.inf
    assert run_check(params, batch) < 1e-4
    _, cache = forward_train(params, *batch)
    assert not cache[3].any()
    grads = backward(params, cache)
    assert float(grads.zeta) == 0.0


def test_series_gradient_matches_finite_differences():
    params, (series, icd, labels) = tiny_fixture()

    def loss(arrays):
        return forward_train(params, arrays["series"], icd, labels)[0]

    d_series = analytic_series_grad(params, series, icd, labels)
    assert finite_diff_check(loss, {"series": series},
                             {"series": d_series}) < 1e-5


def analytic_series_grad(params, series, icd, labels):
    """Analytic d(series) via the encoder backward, wired like the model."""
    _, cache = forward_train(params, series, icd, labels)
    gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache, labels = cache
    grads = params.zeros_like()
    d_xstar = head.head_backward(head_cache, labels, params.ffn, grads.ffn)
    d_z, d_a_tilde, _ = simgraph.gcn_aggregate_backward(d_xstar, gcn_cache, params.phi)
    d_a, _ = simgraph.threshold_backward(d_a_tilde, a_prime)
    d_z = d_z + simgraph.similarity_backward(d_a, z)
    d_fused, _ = hypergraph.hconv_stack_backward(d_z, hconv_cache, params.thetas)
    _, d_series = encoder.encode_batch_backward(d_fused[:, :params.config.hidden_size],
                                                gru_cache, params.gru, grads.gru)
    return d_series


def test_backward_shapes_match_parameters():
    params, batch = tiny_fixture()
    _, cache = forward_train(params, *batch)
    grads = backward(params, cache)
    named_p = params.named_arrays()
    named_g = grads.named_arrays()
    assert named_p.keys() == named_g.keys()
    for name in named_p:
        assert named_p[name].shape == named_g[name].shape
    assert grads.layout == params.layout and grads.flat.shape == params.flat.shape


def test_forward_train_is_deterministic():
    params, batch = tiny_fixture()
    a, _ = forward_train(params, *batch)
    b, _ = forward_train(params, *batch)
    assert a == b


def test_forward_train_requires_masks_when_dropout_on():
    params, batch = tiny_fixture(dropout=0.2)
    with pytest.raises(ConfigError, match="masks"):
        forward_train(params, *batch)
    masks = make_dropout_masks(params, len(batch[0]), Rng(0))
    loss, _ = forward_train(params, *batch, masks)
    assert np.isfinite(loss)


@pytest.mark.parametrize("call, fragment", [
    (lambda params, series, icd, labels: forward_train(params, series, icd[:4], labels),
     "5 states vs 4 code rows"),
    (lambda params, series, icd, labels: forward_eval(params, series, icd[:4]),
     "5 states vs 4 code rows"),
    (lambda params, series, icd, labels: forward_train(params, series, icd, labels[:4]),
     r"probs shape \(5, 2\), expected \(4, 2\)"),
], ids=["train_codes", "eval_codes", "train_labels"])
def test_a_row_count_mismatch_raises_shape_error(call, fragment):
    params, batch = tiny_fixture()
    with pytest.raises(ShapeError, match=fragment):
        call(params, *batch)


def test_forward_eval_outputs_are_probabilities_with_stages():
    params, (series, icd, _) = tiny_fixture()
    scores, stages = forward_eval(params, series, icd)
    probs, _, _ = probe(params, series, icd, "eval")
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert scores.shape == (5,)
    assert np.array_equal(scores, probs[:, 1])
    assert stages["gru"].shape == (5, 3)
    assert stages["hconv"].shape == (5, 7)
    assert stages["aggregated"].shape == (5, 3)


def test_eval_forward_keeps_no_hypergraph_cache_and_the_same_scores(monkeypatch):
    params, (series, icd, _) = tiny_fixture()
    _, _, cache = model._forward(params, series, icd, "eval", None)
    assert cache[0] is None and cache[1] is None and cache[4] is None
    scores, _ = forward_eval(params, series, icd)
    stack = hypergraph.hconv_stack
    monkeypatch.setattr(hypergraph, "hconv_stack",
                        lambda x, hg, thetas, keep_cache: stack(x, hg, thetas, keep_cache=True))
    assert np.array_equal(forward_eval(params, series, icd)[0], scores)


def test_eval_and_train_adjacencies_differ():
    # train builds the sigmoid relaxation of the similarities, eval the
    # strict indicator; the probabilities that follow can agree within
    # allclose's tolerance, so the adjacencies themselves are compared
    params, (series, icd, _) = tiny_fixture()
    zeta_at_median_similarity(params, series, icd)
    _, _, (_, _, z, a_train, _, _) = probe(params, series, icd, "train")
    _, _, (_, _, z_eval, a_eval, _, _) = probe(params, series, icd, "eval")
    assert np.array_equal(z, z_eval)
    a, zeta = similarity(z), float(params.zeta)
    assert np.array_equal(a_train, threshold(a, zeta, "train"))
    assert np.array_equal(a_eval, (a > zeta).astype(np.float64))
    assert not np.array_equal(a_train, a_eval)


def probe(params, series, icd, mode):
    from hgrc.model import _forward
    return _forward(params, series, icd, mode, None)


def test_initial_loss_is_ln_two():
    # in float64; the float32 model's start loss is acceptance criterion 8
    cfg = ModelConfig(**TINY)
    params = float64_params(cfg, Rng(0))
    rng = Rng(1)
    loss, _ = forward_train(params, rng.normal(size=(6, 2, 3)),
                            (rng.random((6, 4)) < 0.5).astype(np.float64),
                            np.array([0, 1, 0, 1, 1, 0]))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(hconv_layers=-1)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(ffn_hidden=(4,))
    with pytest.raises(ConfigError, match="ffn_hidden"):
        ModelConfig(ffn_hidden=5)
    with pytest.raises(TypeError, match="activation"):
        ModelConfig(activation="tanh")  # tanh is the only nonlinearity, not a knob
    # the graph's slope and zeta's start are simgraph constants, not knobs
    for knob in ("use_similarity", "temperature", "zeta_init"):
        with pytest.raises(TypeError, match=knob):
            ModelConfig(**{knob: 1.0})


# ------------------------------------------------------------------ dtype

# the stage functions the model calls through their modules, forward and
# backward; their outputs are every intermediate array of a call
STAGES = [(encoder, "encode_batch"), (encoder, "fuse_batch"),
          (encoder, "encode_batch_backward"), (hypergraph, "build_hypergraph"),
          (hypergraph, "hconv_operator"), (hypergraph, "hconv_stack"),
          (hypergraph, "hconv_stack_backward"), (simgraph, "similarity"),
          (simgraph, "threshold"), (simgraph, "hard_adjacency"), (simgraph, "gcn_aggregate"),
          (simgraph, "similarity_backward"), (simgraph, "threshold_backward"),
          (simgraph, "gcn_aggregate_backward"), (head, "head_forward"),
          (head, "head_backward")]


def floating_arrays(value):
    """Every floating-point array in a nest of tuples, lists, dicts and dataclasses."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in floating_arrays(item)]
    return []


def record_stage_outputs(monkeypatch) -> list:
    """A list that receives the result of every STAGES call from here on."""
    outputs = []
    for module, name in STAGES:
        def recording(*args, _fn=getattr(module, name), **kwargs):
            result = _fn(*args, **kwargs)
            outputs.append(result)
            return result
        monkeypatch.setattr(module, name, recording)
    return outputs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_stage_computes_in_the_buffers_dtype(dtype, monkeypatch):
    # a float64 mask, incidence or moment would silently double the work of
    # every stage after it, while the assignments into the buffer cast the
    # results back, so no value would show it
    params, (series, icd, labels) = tiny_fixture(dropout=0.2)
    params = ModelParams(params.config, params.flat.astype(dtype))
    masks = make_dropout_masks(params, len(labels), Rng(0))
    outputs = record_stage_outputs(monkeypatch)
    loss, cache = forward_train(params, series, icd, labels, masks)
    grads = backward(params, cache)
    scores, stages = forward_eval(params, series, icd)
    state = AdamState.zeros(params.flat.shape, params.flat.dtype, learning_rate=0.01)
    new_flat, state = adam_step(params.flat, grads.flat, state)
    arrays = floating_arrays([outputs, cache, grads.flat, masks, scores, stages,
                              new_flat, state])
    assert all(floating_arrays(x) for x in (cache, masks, stages, state))
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert len(outputs) > len(STAGES)  # every stage ran, hard_adjacency's similarity too
    assert type(loss) is float


def test_float32_agrees_with_float64():
    # One parameter set, cast to float32 and to float64, at the default
    # widths over 48 hours.  A float32 operation rounds with relative error
    # at most u = eps / 2, and to first order the errors of a chain of
    # operations add.  Each GRU step takes every state element through about
    # a dozen operations (three products, two gate sigmoids, the candidate's
    # tanh and the update), the backward retraces them, and the stages after
    # the GRU add fewer than one more step, so the float32 results lie within
    # about 2 * 12 * (T + 1) * u of the float64 ones.  Every gradient entry is
    # a sum of terms of either sign, whose rounding is bounded by the terms'
    # sizes rather than by the sum (zeta's sums N^2 of them), so gradients
    # are compared against the whole gradient's largest entry.
    t = 48
    rtol = 2 * 12 * (t + 1) * float(np.finfo(np.float32).eps) / 2
    cfg = ModelConfig()
    data = Rng(301)
    series = data.normal(size=(64, cfg.n_variables, t))
    icd = (data.random((64, cfg.n_codes)) < 0.15).astype(np.float64)
    labels = (data.random(64) < 0.3).astype(np.int64)
    single = init_params(cfg, Rng(300))
    single.ffn["wy"][...] = data.normal(size=single.ffn["wy"].shape)  # every gradient flows
    double = ModelParams(cfg, single.flat.astype(np.float64))
    # the graph live in training, with the sigmoid's steepest pairs near
    # 0.27, and no edge at evaluation in either dtype
    z = forward_eval(double, series, icd)[1]["hconv"]
    single.zeta[...] = float(similarity(z).max()) + 0.02
    double.zeta[...] = single.zeta
    results = []
    for params in (single, double):
        masks = make_dropout_masks(params, len(labels), Rng(302))
        loss, cache = forward_train(params, series, icd, labels, masks)
        grads = backward(params, cache).flat
        results.append((loss, grads, forward_eval(params, series, icd)[0]))
    (loss32, grads32, scores32), (loss64, grads64, scores64) = results
    assert grads32.dtype == scores32.dtype == np.float32
    assert abs(loss32 - loss64) <= rtol * abs(loss64)
    assert np.abs(grads32 - grads64).max() <= rtol * np.abs(grads64).max()
    assert np.abs(scores32 - scores64).max() <= rtol * np.abs(scores64).max()
    assert not np.array_equal(scores32, scores64)
