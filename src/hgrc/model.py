"""End-to-end mortality model: encoder, hypergraph stack, similarity, head.

Forward pipeline per batch of N patients:

    series (N, M, T) --GRU--> h (N, d) --fuse icd--> x (N, d+g)
    x --residual hypergraph stack--> z (N, d+g)
    z --similarity + threshold--> adjacency A' (N, N)
    z, A' --GCN aggregation--> x_star (N, q)
    x_star --FFN--> probs (N, 2), mean cross-entropy loss

Training mode uses the sigmoid-relaxed threshold and dropout masks, and
holds A' and its normalization as dense (N, N) float arrays for the
backward pass.  Evaluation mode uses the strict hard threshold and no
dropout: A' is a symmetric (N, N) bool array whose every similarity is
computed at most once, the similarities and the aggregation run in row
blocks of at most 256 patients, so no (N, N) float array exists, and the
GRU runs in row blocks of at most 512.  When the Cauchy-Schwarz bound
rules out every edge, as it does at the trained zeta, each block computes
only its own rows' similarities and A' is all False; aggregation skips a
block with no edge (the simgraph docstring says when the result equals a
dense computation's bit for bit).
No stage keeps a cache, and the GRU's blocks run on every core a
one-thread BLAS leaves idle; the graph stages' blocks run on the calling
thread.  In training only the GRU uses those cores, on batches of more
than 128 patients (see the encoder docstring).  The backward pass chains
the hand-derived gradients of each stage.  There is one code path: tanh
in every layer after the GRU (hypergraph convolution, GCN aggregation,
FFN hidden layers) and scaled dot-product similarity.
tanh is smooth, so finite-difference checks hold at every point, and on the
hard synthetic regime it scored ahead of both relu and sigmoid.  The head is
one FFN: the paper's attention-gated ensemble of FFNs scored within the seed
spread of a single member on the hard regime, so it was removed.
hconv_layers=0 removes the hypergraph stack for ablations.  The graph has
no knob: a zeta of +inf trains bit for bit like a model without it.

Parameters live in one contiguous float32 buffer (ModelParams.flat).  The
layout, built from the ModelConfig by param_layout, lists every trainable
array's name, shape and offset; each array is a named view into the
buffer, and the GRU gates are stored stacked.  Gradients share the layout,
so one Adam call updates the whole model, and the checkpoint stores the
buffer as a single blob in layout order.  The model computes in the
buffer's dtype, with no setting for it: _forward casts the code matrix to
it once and the GRU casts the series in its time-major copy, and every
stage then allocates in its input's dtype.  init_params and the checkpoint
make float32 buffers; the tests' finite-difference checks build float64
ones, which run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder, head, hypergraph, simgraph
from .errors import ConfigError, ShapeError, check_finite_fields
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
    dropout: float = 0.2

    def __post_init__(self):
        check_finite_fields(self)
        for name in ("n_variables", "hidden_size", "phi_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_codes < 0:
            raise ConfigError(f"n_codes must be >= 0, got {self.n_codes}")
        if self.hconv_layers < 0:
            raise ConfigError(f"hconv_layers must be >= 0, got {self.hconv_layers}")
        if (not isinstance(self.ffn_hidden, tuple) or len(self.ffn_hidden) != 2
                or any(not isinstance(w, int) or w < 1 for w in self.ffn_hidden)):
            raise ConfigError(f"ffn_hidden must be two positive widths, got {self.ffn_hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def fused_width(self) -> int:
        return self.hidden_size + self.n_codes


def param_layout(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(name, shape, offset) of every trainable array, in buffer order.

    Offsets count the buffer's elements and run contiguously from 0.  This
    is also the checkpoint's parameter table, so names and order are fixed.
    """
    d, m, w, q = config.hidden_size, config.n_variables, config.fused_width, config.phi_width
    h1, h2 = config.ffn_hidden
    shapes = [("gru.w", (3 * d, m)), ("gru.u_zr", (2 * d, d)), ("gru.u_h", (d, d)),
              ("gru.b", (3 * d,))]
    shapes += [(f"theta.{i}", (w, w)) for i in range(config.hconv_layers)]
    shapes += [("zeta", ()), ("phi", (w, q))]
    shapes += [("ffn.w1", (q, h1)), ("ffn.b1", (h1,)), ("ffn.w2", (h1, h2)),
               ("ffn.b2", (h2,)), ("ffn.wy", (h2, 2)), ("ffn.by", (2,))]
    layout = []
    offset = 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += math.prod(shape)
    return tuple(layout)


class ModelParams:
    """Every trainable array as a named view into one flat buffer.

    The buffer is float32, or float64 when the caller passes one (the
    tests' gradient checks do); the model computes in its dtype.  Gradients
    use the same class and dtype, so an optimizer can update ``flat`` in
    one call.  Writing through any view writes ``flat`` and vice versa; the
    layer functions receive the views grouped as plain dicts and lists.
    """

    def __init__(self, config: ModelConfig, flat: Array | None = None):
        self.config = config
        self.layout = param_layout(config)
        size = sum(math.prod(shape) for _, shape, _ in self.layout)
        self.flat = np.zeros(size, np.float32) if flat is None else flat
        if self.flat.shape != (size,) or self.flat.dtype not in (np.float32, np.float64):
            raise ShapeError(f"parameter buffer is {self.flat.dtype}{self.flat.shape}, "
                             f"expected float32 or float64 ({size},)")
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
        self.ffn = groups["ffn"]

    def named_arrays(self) -> dict[str, Array]:
        """Flat name -> array view, in layout order."""
        return dict(self._views)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.config, np.zeros_like(self.flat))


def init_params(config: ModelConfig, rng: Rng) -> ModelParams:
    """Glorot weights and zero biases; FFN output layers start at zero."""
    gru_rng, theta_rng, phi_rng, head_rng = rng.split(4)
    params = ModelParams(config)
    encoder.init_gru_params(params.gru, gru_rng)
    for theta, stream in zip(params.thetas, theta_rng.split(len(params.thetas))):
        theta[...] = glorot_init(*theta.shape, stream)
    params.zeta[...] = simgraph.ZETA_INIT
    params.phi[...] = glorot_init(*params.phi.shape, phi_rng)
    head.init_head_params(params.ffn, head_rng)
    return params


def make_dropout_masks(params: ModelParams, n_rows: int, rng: Rng):
    if params.config.dropout == 0.0:
        return None
    return head.make_dropout_masks(n_rows, params.ffn, params.config.dropout, rng)


# ---------------------------------------------------------------- forward


def _forward(params: ModelParams, series: Array, icd: Array, mode: str, masks):
    # the GRU casts the series in its time-major copy; the codes are cast here
    icd = np.asarray(icd, dtype=params.flat.dtype)
    h, gru_cache = encoder.encode_batch(series, params.gru, keep_cache=mode != "eval")
    fused = encoder.fuse_batch(h, icd)
    hg = hypergraph.build_hypergraph(icd)
    z, hconv_cache = hypergraph.hconv_stack(fused, hg, params.thetas, keep_cache=mode != "eval")

    zeta = float(params.zeta)
    a_prime = (simgraph.hard_adjacency(z, zeta) if mode == "eval"
               else simgraph.threshold(simgraph.similarity(z), zeta, mode))

    x_star, gcn_cache = simgraph.gcn_aggregate(z, a_prime, params.phi,
                                               keep_cache=mode != "eval")
    probs, head_cache = head.head_forward(x_star, params.ffn, masks)
    stages = {"gru": h, "hconv": z, "aggregated": x_star}
    cache = (gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache)
    return probs, stages, cache


def forward_train(params: ModelParams, series: Array, icd: Array, labels: Array, masks=None):
    """Training-mode forward over series (N, M, T), codes (N, g) and labels
    (N,); returns (loss, cache for backward), the cache holding the labels."""
    if params.config.dropout > 0.0 and masks is None:
        raise ConfigError("training forward with dropout > 0 requires masks")
    probs, _, cache = _forward(params, series, icd, "train", masks)
    loss = head.total_loss(probs, labels)
    return loss, (*cache, labels)


def backward(params: ModelParams, cache) -> ModelParams:
    """Gradient of forward_train's loss for every trainable array."""
    gru_cache, hconv_cache, z, a_prime, gcn_cache, head_cache, labels = cache
    grads = params.zeros_like()

    d_xstar = head.head_backward(head_cache, labels, params.ffn, grads.ffn)
    d_z, d_a_tilde, d_phi = simgraph.gcn_aggregate_backward(d_xstar, gcn_cache, params.phi)
    grads.phi[...] = d_phi

    d_a, d_zeta = simgraph.threshold_backward(d_a_tilde, a_prime)
    grads.zeta[...] = d_zeta
    d_z = d_z + simgraph.similarity_backward(d_a, z)

    d_fused, d_thetas = hypergraph.hconv_stack_backward(d_z, hconv_cache, params.thetas)
    for g, d in zip(grads.thetas, d_thetas):
        g[...] = d

    d_h = d_fused[:, :params.config.hidden_size]
    encoder.encode_batch_backward(d_h, gru_cache, params.gru, grads.gru)
    return grads


def forward_eval(params: ModelParams, series: Array, icd: Array) -> tuple[Array, dict[str, Array]]:
    """Hard-threshold adjacency, no dropout; returns (scores, stages): each
    patient's death probability (N,) and the intermediate stages by name,
    in the parameter buffer's dtype.

    The only (N, N) array is the bool adjacency, N^2 bytes, so scoring does
    not set the peak memory of a process that also trains: the training
    steps' caches and loading a cohort do.
    """
    probs, stages, _ = _forward(params, series, icd, "eval", None)
    return np.ascontiguousarray(probs[:, 1]), stages
