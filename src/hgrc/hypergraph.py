"""Per-batch diagnosis hypergraph and stacked residual hypergraph convolution.

Every diagnosis code present in the batch is one hyperedge joining all
patients that carry it; patients are nodes.  The convolution operator is

    P = D^-1 H B^-1 H^T

with node degrees D_ii = sum_e H_ie and hyperedge degrees
B_ee = sum_i H_ie.  Rows of P for non-isolated nodes sum to 1, so one
application is an average over co-diagnosed patients.  A layer is
out = activation(P X Theta) + X (residual added after the activation), and
the stack applies l such layers sequentially.

P is never formed.  It is kept as two (N, K) factors, L = D^-1 H and
R = H B^-1, so P = L R^T, and applied as two-stage message passing (node ->
hyperedge -> node, as in HGNN): P X = L (R^T X) and P^T Y = R (L^T Y).
With K at most the number of codes, a layer costs O(N K w) time and
O(N (K + w)) memory instead of O(N^2 w) and O(N^2).

Code-free patients have D_ii = 0; the pseudo-inverse convention 1/0 -> 0
leaves their convolution term zero so the residual passes them through.
A batch with no codes at all has K = 0 and (N, 0) factors, so every
convolution term is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import Array, activation, activation_grad


@dataclass(frozen=True)
class Hypergraph:
    """Incidence H (N, K) with degrees D (N,) and B (K,)."""

    incidence: Array
    node_degree: Array
    edge_degree: Array

    @property
    def n_nodes(self) -> int:
        return self.incidence.shape[0]

    @property
    def n_edges(self) -> int:
        return self.incidence.shape[1]


def build_hypergraph(icd_batch: Array) -> Hypergraph:
    """Hypergraph over a batch's code matrix (N, g), dropping empty hyperedges.

    An all-zero batch yields K = 0, handled downstream as a zero operator.
    """
    icd_batch = np.asarray(icd_batch, dtype=np.float64)
    if icd_batch.ndim != 2:
        raise ShapeError(f"icd batch must be 2-D, got {icd_batch.shape}")
    if icd_batch.shape[0] < 1:
        raise ShapeError("hypergraph needs at least one node")
    if not np.all((icd_batch == 0.0) | (icd_batch == 1.0)):
        raise ConfigError("icd batch must be binary")
    h = icd_batch[:, icd_batch.sum(axis=0) > 0.0]
    return Hypergraph(incidence=h, node_degree=h.sum(axis=1), edge_degree=h.sum(axis=0))


def hconv_operator(hg: Hypergraph) -> tuple[Array, Array]:
    """The (N, K) factors (L, R) = (D^-1 H, H B^-1) of P = L R^T."""
    d_inv = np.zeros(hg.n_nodes)
    occupied = hg.node_degree > 0.0
    d_inv[occupied] = 1.0 / hg.node_degree[occupied]
    left = hg.incidence * d_inv[:, None]
    right = hg.incidence * (1.0 / hg.edge_degree)[None, :]
    return left, right


def _layer_forward(x: Array, factors: tuple[Array, Array], theta: Array, kind: str):
    left, right = factors
    px = left @ (right.T @ x)
    pre = px @ theta
    out = activation(pre, kind) + x
    return out, (px, pre)


def _layer_backward(d_out: Array, layer_cache, factors: tuple[Array, Array], theta: Array,
                    kind: str):
    px, pre = layer_cache
    left, right = factors
    d_pre = d_out * activation_grad(pre, kind)
    d_theta = px.T @ d_pre
    d_x = right @ (left.T @ (d_pre @ theta.T)) + d_out
    return d_x, d_theta


def hconv_stack(x: Array, hg: Hypergraph, thetas: list[Array], kind: str):
    """Apply the layers in sequence; returns (output, cache for backward)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != hg.n_nodes:
        raise ShapeError(f"{x.shape[0]} feature rows vs {hg.n_nodes} nodes")
    factors = hconv_operator(hg)
    layer_caches = []
    for theta in thetas:
        if theta.shape != (x.shape[1], x.shape[1]):
            raise ShapeError(f"theta shape {theta.shape}, expected square of side {x.shape[1]}")
        x, layer_cache = _layer_forward(x, factors, theta, kind)
        layer_caches.append(layer_cache)
    return x, (factors, layer_caches)


def hconv_stack_backward(d_out: Array, cache, thetas: list[Array], kind: str):
    """Gradients of the stack: returns (d_input, [d_theta per layer])."""
    factors, layer_caches = cache
    d_thetas: list[Array] = [None] * len(thetas)
    d_x = d_out
    for i in reversed(range(len(thetas))):
        d_x, d_thetas[i] = _layer_backward(d_x, layer_caches[i], factors, thetas[i], kind)
    return d_x, d_thetas
