"""Whole-pipeline gradient checks and forward-mode contracts.

The fixture nudges every parameter away from its init point: relu kinks and
the zero-output saddle otherwise leave gradient entries at exactly zero,
where a central difference measures only float cancellation noise.
"""

import numpy as np
import pytest

from hgrc.errors import ConfigError
from hgrc.head import ensemble_predict
from hgrc.model import (Batch, ModelConfig, backward, forward_eval, forward_train,
                        init_params, make_dropout_masks)
from hgrc.numeric import Rng, finite_diff_check
from hgrc.simgraph import similarity, threshold

TINY = dict(n_variables=2, n_codes=4, hidden_size=3,
            hconv_layers=2, phi_width=3, ffn_hidden=(4, 3), n_members=2,
            dropout=0.0)


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


def tiny_fixture(seed=236, nudge_scale=0.3, **overrides):
    """Nudged parameters plus one batch with an isolated (code-free) patient.

    The nudge is drawn gate by gate, so the point does not depend on how the
    GRU's gates are stacked in the parameter layout.
    """
    cfg = ModelConfig(**{**TINY, **overrides})
    params = init_params(cfg, Rng(seed))
    nudge = Rng(seed + 1000)
    for arr in gate_blocks(params):
        if arr.ndim:
            arr += nudge.normal(scale=nudge_scale, size=arr.shape)
    data_rng = Rng(seed + 2000)
    series = data_rng.normal(size=(5, 2, 3))
    icd = (data_rng.random((5, 4)) < 0.5).astype(np.float64)
    icd[0] = 0.0
    batch = Batch(series, icd, np.array([0, 1, 1, 0, 1]))
    return cfg, params, batch


def relu_inputs(batch, cache):
    """Every relu pre-activation of a forward_train cache, by stage.

    The isolated (code-free) patients' hconv rows are left out: their
    convolution term is exactly 0 by construction, at every nearby point.
    """
    _, hconv_cache, _, _, gcn_cache, head_cache = cache
    inputs = {}
    if hconv_cache is not None:
        occupied = batch.icd.any(axis=1)
        for i, (_, pre) in enumerate(hconv_cache[1]):
            assert not pre[~occupied].any()
            inputs[f"hconv{i}.pre"] = pre[occupied]
    inputs["gcn.pre"] = gcn_cache[6]
    for i, member_cache in enumerate(head_cache[1]):
        inputs[f"ffn{i}.pre1"], inputs[f"ffn{i}.pre2"] = member_cache[1], member_cache[3]
    return inputs


def run_check(cfg, params, batch):
    _, cache = forward_train(params, batch, cfg)
    if cfg.activation == "relu":
        # a kink within the difference stencil (steps up to h = 1e-3) reads
        # as a false gradient error; keep every kink 2h away, or name it
        margins = {name: float(np.abs(pre).min())
                   for name, pre in relu_inputs(batch, cache).items()}
        closest = min(margins, key=margins.get)
        assert margins[closest] >= 2e-3, f"relu input {closest} is {margins[closest]:.1e} from 0"
    grads = backward(params, batch, cfg, cache)
    return finite_diff_check(lambda _: forward_train(params, batch, cfg)[0],
                             params.named_arrays(), grads.named_arrays())


def test_full_pipeline_gradients_relu():
    cfg, params, batch = tiny_fixture()
    assert run_check(cfg, params, batch) < 1e-4


# the steep threshold sigmoid and entries just above the 1e-8 error floor
# (zeta's gradient is -3.6e-8 without the hypergraph stack) make these the
# readings most exposed to rounding in the loss, so every variant shares the
# pipeline-wide 1e-4 bound rather than a tighter per-variant one
def test_full_pipeline_gradients_tanh():
    cfg, params, batch = tiny_fixture(activation="tanh")
    assert run_check(cfg, params, batch) < 1e-4


def test_full_pipeline_gradients_sigmoid():
    cfg, params, batch = tiny_fixture(activation="sigmoid")
    assert run_check(cfg, params, batch) < 1e-4


@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
def test_full_pipeline_gradients_with_zeta_inside_the_similarities(activation):
    # at the fixture's zeta the soft adjacency is about 1e-9 everywhere, so
    # the threshold passes almost no gradient; at the median off-diagonal
    # similarity half the pairs sit on the steep part of the sigmoid
    cfg, params, batch = tiny_fixture(activation=activation)
    a = similarity(forward_eval(params, batch, cfg).stages["hconv"])
    off_diagonal = ~np.eye(len(batch), dtype=bool)
    params.zeta[...] = np.median(a[off_diagonal])
    soft = threshold(a, float(params.zeta), cfg.temperature, "train")[off_diagonal]
    assert soft.min() < 0.5 < soft.max()
    assert run_check(cfg, params, batch) < 1e-4


def test_full_pipeline_gradients_without_hypergraph_stack():
    cfg, params, batch = tiny_fixture(hconv_layers=0, activation="tanh")
    assert params.thetas == []
    assert run_check(cfg, params, batch) < 1e-4


def test_full_pipeline_gradients_without_similarity():
    cfg, params, batch = tiny_fixture(seed=11, use_similarity=False, activation="tanh")
    assert run_check(cfg, params, batch) < 1e-4
    # zeta is unused on this path
    _, cache = forward_train(params, batch, cfg)
    grads = backward(params, batch, cfg, cache)
    assert float(grads.zeta) == 0.0


def test_series_gradient_matches_finite_differences():
    cfg, params, batch = tiny_fixture(activation="tanh")

    def loss(arrays):
        b = Batch(arrays["series"], batch.icd, batch.labels)
        return forward_train(params, b, cfg)[0]

    d_series = analytic_series_grad(params, batch, cfg)
    assert finite_diff_check(loss, {"series": batch.series},
                             {"series": d_series}) < 1e-5


def analytic_series_grad(params, batch, cfg):
    """Analytic d(series) via the encoder backward, wired like the model."""
    from hgrc import encoder, head, hypergraph, simgraph
    _, cache = forward_train(params, batch, cfg)
    gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache = cache
    grads = params.zeros_like()
    d_xstar = head.head_backward(head_cache, batch.labels, params.members, params.attn,
                                 (grads.members, grads.attn))
    d_z, d_a_tilde, _ = simgraph.gcn_aggregate_backward(d_xstar, gcn_cache, params.phi)
    if cfg.use_similarity:
        d_a, _ = simgraph.threshold_backward(d_a_tilde, a_prime, cfg.temperature)
        d_z = d_z + simgraph.similarity_backward(d_a, z)
    if params.thetas:
        d_fused, _ = hypergraph.hconv_stack_backward(d_z, hconv_cache, params.thetas,
                                                     cfg.activation)
    else:
        d_fused = d_z
    _, d_series = encoder.encode_batch_backward(d_fused[:, :cfg.hidden_size],
                                                gru_cache, params.gru, grads.gru)
    return d_series


def test_backward_shapes_match_parameters():
    cfg, params, batch = tiny_fixture()
    _, cache = forward_train(params, batch, cfg)
    grads = backward(params, batch, cfg, cache)
    named_p = params.named_arrays()
    named_g = grads.named_arrays()
    assert named_p.keys() == named_g.keys()
    for name in named_p:
        assert named_p[name].shape == named_g[name].shape
    assert grads.layout == params.layout and grads.flat.shape == params.flat.shape


def test_forward_train_is_deterministic():
    cfg, params, batch = tiny_fixture()
    a, _ = forward_train(params, batch, cfg)
    b, _ = forward_train(params, batch, cfg)
    assert a == b


def test_forward_train_requires_masks_when_dropout_on():
    cfg, params, batch = tiny_fixture(dropout=0.2)
    with pytest.raises(ConfigError, match="masks"):
        forward_train(params, batch, cfg)
    masks = make_dropout_masks(cfg, params, len(batch), Rng(0))
    loss, _ = forward_train(params, batch, cfg, masks)
    assert np.isfinite(loss)


def test_forward_eval_outputs_are_probabilities_with_stages():
    cfg, params, batch = tiny_fixture()
    out = forward_eval(params, batch, cfg)
    member_probs, beta, _, _ = probe(params, batch, cfg, "eval")
    assert beta.shape == (5, 2)
    probs = ensemble_predict(member_probs, beta)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert out.scores.shape == (5,)
    assert np.array_equal(out.scores, probs[:, 1])
    assert out.stages["gru"].shape == (5, 3)
    assert out.stages["hconv"].shape == (5, 7)
    assert out.stages["aggregated"].shape == (5, 3)


def test_eval_and_train_adjacencies_differ():
    # eval uses the strict indicator, train the sigmoid relaxation, so the
    # same parameters generally score patients differently
    cfg, params, batch = tiny_fixture()
    member_probs_eval, _, _, _ = probe(params, batch, cfg, "eval")
    member_probs_train, _, _, _ = probe(params, batch, cfg, "train")
    assert not np.allclose(member_probs_eval[0], member_probs_train[0])


def probe(params, batch, cfg, mode):
    from hgrc.model import _forward
    return _forward(params, batch, cfg, mode, None)


def test_initial_loss_is_ln_two():
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, Rng(0))
    rng = Rng(1)
    batch = Batch(rng.normal(size=(6, 2, 3)),
                  (rng.random((6, 4)) < 0.5).astype(np.float64),
                  np.array([0, 1, 0, 1, 1, 0]))
    loss, _ = forward_train(params, batch, cfg)
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
    with pytest.raises(ConfigError):
        ModelConfig(activation="gelu")
    with pytest.raises(ConfigError):
        ModelConfig(temperature=0.0)
