"""End-to-end mortality model: encoder, hypergraph stack, similarity, head.

Forward pipeline per batch of N patients:

    series (N, M, T) --GRU--> h (N, d) --fuse icd--> x (N, d+g)
    x --residual hypergraph stack--> z (N, d+g)
    z --similarity + threshold--> adjacency (N, N)
    z --GCN aggregation--> x_star (N, q)
    x_star --FFN ensemble + attention--> member probs, beta, loss

Training mode uses the sigmoid-relaxed threshold and dropout masks;
evaluation mode uses the strict hard threshold and no dropout.  The backward
pass chains the hand-derived gradients of each stage.  There is one code
path: scaled dot-product similarity, per-patient attention gating of the
loss, and beta-weighted prediction.  Two ablation knobs exist for controlled
comparisons: hconv_layers=0 removes the hypergraph stack, use_similarity=False
forces an empty adjacency so aggregation sees self-loops only.

Parameters live in one contiguous float64 buffer (ModelParams.flat).  The
layout, built from the ModelConfig by param_layout, lists every trainable
array's name, shape and offset; each array is a named view into the
buffer.  Gradients share the layout, so one Adam call updates the whole
model, and the checkpoint stores the buffer as a single blob in layout
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder, head, hypergraph, simgraph
from .errors import ConfigError, ShapeError
from .numeric import Array, Rng, glorot_init


@dataclass(frozen=True)
class ModelConfig:
    """The architecture, declared once; defaults are the trained sizes.

    n_variables and n_codes are the input widths, which come from the data
    (TrainConfig.model_config fills them in); the rest are settable.
    """

    n_variables: int = 16
    n_codes: int = 20
    hidden_size: int = 59
    hconv_layers: int = 3
    phi_width: int = 37
    ffn_hidden: tuple[int, int] = (27, 17)
    n_members: int = 4
    zeta_init: float = 0.4
    temperature: float = 50.0
    dropout: float = 0.2
    activation: str = "relu"
    use_similarity: bool = True

    def __post_init__(self):
        for name in ("n_variables", "hidden_size", "phi_width", "n_members"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_codes < 0:
            raise ConfigError(f"n_codes must be >= 0, got {self.n_codes}")
        if self.hconv_layers < 0:
            raise ConfigError(f"hconv_layers must be >= 0, got {self.hconv_layers}")
        if (not isinstance(self.ffn_hidden, tuple) or len(self.ffn_hidden) != 2
                or any(not isinstance(w, int) or w < 1 for w in self.ffn_hidden)):
            raise ConfigError(f"ffn_hidden must be two positive widths, got {self.ffn_hidden}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in ("relu", "sigmoid", "tanh"):
            raise ConfigError(f"activation must be relu, sigmoid, or tanh, "
                              f"got {self.activation!r}")

    @property
    def fused_width(self) -> int:
        return self.hidden_size + self.n_codes


def param_layout(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(name, shape, offset) of every trainable array, in buffer order.

    Offsets count float64 elements and run contiguously from 0.  This is
    also the checkpoint's parameter table, so names and order are fixed.
    """
    d, m, w, q = config.hidden_size, config.n_variables, config.fused_width, config.phi_width
    h1, h2 = config.ffn_hidden
    shapes = [("gru.w", (3 * d, m)), ("gru.u_zr", (2 * d, d)), ("gru.u_h", (d, d)),
              ("gru.b", (3 * d,))]
    shapes += [(f"theta.{i}", (w, w)) for i in range(config.hconv_layers)]
    shapes += [("zeta", ()), ("phi", (w, q))]
    for i in range(config.n_members):
        shapes += [(f"ffn{i}.w1", (q, h1)), (f"ffn{i}.b1", (h1,)), (f"ffn{i}.w2", (h1, h2)),
                   (f"ffn{i}.b2", (h2,)), (f"ffn{i}.wy", (h2, 2)), (f"ffn{i}.by", (2,))]
    shapes += [("attn.w_beta", (q, config.n_members)), ("attn.b_beta", (config.n_members,))]
    layout = []
    offset = 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += math.prod(shape)
    return tuple(layout)


class ModelParams:
    """Every trainable array as a named view into one flat float64 buffer.

    Gradients use the same class, so an optimizer can update ``flat`` in
    one call.  Writing through any view writes ``flat`` and vice versa; the
    layer functions receive the views grouped as plain dicts and lists.
    """

    def __init__(self, config: ModelConfig, flat: Array | None = None):
        self.config = config
        self.layout = param_layout(config)
        size = sum(math.prod(shape) for _, shape, _ in self.layout)
        self.flat = np.zeros(size) if flat is None else flat
        if self.flat.shape != (size,) or self.flat.dtype != np.float64:
            raise ShapeError(f"parameter buffer is {self.flat.dtype}{self.flat.shape}, "
                             f"expected float64({size},)")
        self._views = {name: self.flat[offset:offset + math.prod(shape)].reshape(shape)
                       for name, shape, offset in self.layout}
        groups: dict[str, dict[str, Array]] = {}
        for name, view in self._views.items():
            prefix, _, rest = name.partition(".")
            groups.setdefault(prefix, {})[rest] = view
        self.gru = groups["gru"]
        self.thetas = list(groups.get("theta", {}).values())
        self.zeta = self._views["zeta"]  # shape () scalar
        self.phi = self._views["phi"]
        self.members = [groups[f"ffn{i}"] for i in range(config.n_members)]
        self.attn = groups["attn"]

    def named_arrays(self) -> dict[str, Array]:
        """Flat name -> array view, in layout order."""
        return dict(self._views)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.config)


@dataclass
class Batch:
    """One mini-batch: imputed series (N, M, T), codes (N, g), labels (N,)."""

    series: Array
    icd: Array
    labels: Array

    def __post_init__(self):
        if self.series.shape[0] != self.icd.shape[0] or self.series.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"batch pieces disagree: series {self.series.shape}, icd {self.icd.shape}, "
                f"labels {self.labels.shape}")

    def __len__(self) -> int:
        return self.series.shape[0]


def init_params(config: ModelConfig, rng: Rng) -> ModelParams:
    """Glorot weights and zero biases; FFN output layers start at zero."""
    gru_rng, theta_rng, phi_rng, head_rng = rng.split(4)
    params = ModelParams(config)
    encoder.init_gru_params(params.gru, gru_rng)
    for theta, stream in zip(params.thetas, theta_rng.split(len(params.thetas))):
        theta[...] = glorot_init(*theta.shape, stream)
    params.zeta[...] = config.zeta_init
    params.phi[...] = glorot_init(*params.phi.shape, phi_rng)
    head.init_ensemble_params(params.members, params.attn, head_rng)
    return params


def make_dropout_masks(config: ModelConfig, params: ModelParams, n_rows: int, rng: Rng):
    if config.dropout == 0.0:
        return None
    return head.make_dropout_masks(n_rows, params.members, config.dropout, rng)


# ---------------------------------------------------------------- forward


def _forward(params: ModelParams, batch: Batch, config: ModelConfig, mode: str, masks):
    kind = config.activation
    h, gru_cache = encoder.encode_batch(batch.series, params.gru, keep_cache=mode != "eval")
    fused = encoder.fuse_batch(h, batch.icd)

    if params.thetas:
        hg = hypergraph.build_hypergraph(batch.icd)
        z, hconv_cache = hypergraph.hconv_stack(fused, hg, params.thetas, kind)
    else:
        z, hconv_cache = fused, None

    if config.use_similarity:
        a_prime = simgraph.threshold(simgraph.similarity(z), float(params.zeta),
                                     config.temperature, mode)
    else:
        a_prime = np.zeros((z.shape[0], z.shape[0]))

    x_star, gcn_cache = simgraph.gcn_aggregate(z, a_prime, params.phi, kind)
    member_probs, beta, head_cache = head.head_forward(x_star, params.members, params.attn,
                                                        kind, masks)
    stages = {"gru": h, "hconv": z, "aggregated": x_star}
    cache = (gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache)
    return member_probs, beta, stages, cache


def forward_train(params: ModelParams, batch: Batch, config: ModelConfig, masks=None):
    """Training-mode forward; returns (loss, cache for backward)."""
    if config.dropout > 0.0 and masks is None:
        raise ConfigError("training forward with dropout > 0 requires masks")
    member_probs, beta, _, cache = _forward(params, batch, config, "train", masks)
    loss = head.total_loss(member_probs, beta, batch.labels)
    return loss, cache


def backward(params: ModelParams, batch: Batch, config: ModelConfig, cache) -> ModelParams:
    """Gradient of forward_train's loss for every trainable array."""
    gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache = cache
    kind = config.activation
    grads = params.zeros_like()

    d_xstar = head.head_backward(head_cache, batch.labels, params.members, params.attn,
                                 (grads.members, grads.attn))
    d_z, d_a_tilde, d_phi = simgraph.gcn_aggregate_backward(d_xstar, gcn_cache, params.phi)
    grads.phi[...] = d_phi

    if config.use_similarity:
        d_a, d_zeta = simgraph.threshold_backward(d_a_tilde, a_prime, config.temperature)
        grads.zeta[...] = d_zeta
        d_z = d_z + simgraph.similarity_backward(d_a, z)

    if params.thetas:
        d_fused, d_thetas = hypergraph.hconv_stack_backward(d_z, hconv_cache, params.thetas, kind)
        for g, d in zip(grads.thetas, d_thetas):
            g[...] = d
    else:
        d_fused = d_z

    d_h = d_fused[:, :config.hidden_size]
    encoder.encode_batch_backward(d_h, gru_cache, params.gru, grads.gru)
    return grads


@dataclass
class EvalOutput:
    """Evaluation-mode death probabilities plus exported intermediate stages."""

    scores: Array           # (N,) death probability
    stages: dict[str, Array] = field(repr=False)


def forward_eval(params: ModelParams, batch: Batch, config: ModelConfig) -> EvalOutput:
    """Hard-threshold adjacency, no dropout; returns combined predictions."""
    member_probs, beta, stages, _ = _forward(params, batch, config, "eval", None)
    probs = head.ensemble_predict(member_probs, beta)
    return EvalOutput(scores=probs[:, 1], stages=stages)
