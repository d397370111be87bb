"""Patient similarity graph: pairwise scores, threshold, GCN aggregation.

Similarity is the scaled dot product A = X X^T / w^2 with w the feature
width.  A learnable threshold zeta (from ZETA_INIT) turns A into an
adjacency: during training a sigmoid relaxation sigmoid(tau * (A - zeta)),
tau = TEMPERATURE, keeps zeta differentiable (a hard step has zero gradient
almost everywhere); at evaluation the strict indicator 1[A > zeta] is used.
Aggregation adds self-loops and applies the symmetric normalization

    X* = tanh(Dt^-1/2 (A' + I) Dt^-1/2 X Phi)

with Dt the row-sum degrees of A' + I; the cached output X* gives the tanh
derivative 1 - X*^2.  Every backward pass here is hand-derived and covered
by finite-difference checks.

Every stage computes in the features' dtype.  Training builds every stage
as a dense (N, N) array and caches it for the backward pass; N is at most
the batch size.  Evaluation scores whole cohorts and needs no backward,
so hard_adjacency builds the graph as one symmetric (N, N) bool array a
row block at a time (``numeric.row_blocks``): each block's similarities
with its own and later rows are computed and thresholded once, then
mirrored into the block's columns.  When the Cauchy-Schwarz bound
max |z|^2 / w^2, widened by a margin for rounding, cannot exceed zeta, no
pair can be an edge: each
block then scores only its own rows and the adjacency is all False.  This
is the norm pruning of all-pairs similarity search (Bayardo, Ma & Srikant,
WWW 2007), taken at the whole cohort's largest norm.  The bound is at most
(1 + L)^2 / w for L residual layers, 0.20 at the defaults and below every
trained zeta (ROADMAP item 3).  Any other zeta builds the graph exactly as
without the bound.
gcn_aggregate without a cache normalizes and multiplies one row block of
A' + I at a time, and skips a block with no edge: its rows of A' + I are
rows of I, of degree 1, so its output rows are tanh(X Phi)'s.
No (N, N) float array exists then.  Given the same adjacency, the blocked
aggregation equals the dense one bit for bit at the model's widths: a row's
degree is the same row sum, and a block's rows of the final product equal
the whole product's (a row of I times X Phi adds only exact zeros to that
row).  (OpenBLAS sends an untransposed product of at most 10^6
multiply-adds to a small-matrix kernel, so at narrow widths a block can
round apart.)  A block's similarities can differ in the last bits from
those of the whole symmetric product, so the blocked adjacency matches a
dense one except where a similarity lies within that rounding of zeta.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import Array, row_blocks, sigmoid

TEMPERATURE = 50.0  # tau, the slope of the training relaxation
ZETA_INIT = 0.4  # zeta before training; the default widths cap A at 0.20

# ------------------------------------------------------------- similarity


def similarity(x: Array, y: Array | None = None) -> Array:
    """Scaled dot-product similarity A = X Y^T / width^2; Y defaults to X.

    With Y = X the result is symmetric; hard_adjacency passes a block of
    rows as X, and as Y the rows from the block's first onward (or the
    block's own rows alone, when the norm bound rules out every edge).
    """
    x = np.asarray(x)
    y = x if y is None else np.asarray(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"similarity expects (N, width) rows, got {x.shape} and {y.shape}")
    width = x.shape[1]
    a = x @ y.T
    a /= float(width * width)
    return a


def similarity_backward(d_a: Array, x: Array) -> Array:
    """d/dX of sum(d_a * A): (d_a + d_a^T) X / width^2."""
    width = x.shape[1]
    return ((d_a + d_a.T) @ x) / float(width * width)


# -------------------------------------------------------------- threshold


def threshold(a: Array, zeta: float, mode: str) -> Array:
    """Adjacency from similarities.

    train: sigmoid(TEMPERATURE * (a - zeta)), float entries in (0, 1).
    eval:  strict indicator (a > zeta) as bools; a == zeta maps to False.
    """
    a = np.asarray(a)
    if mode == "train":
        return sigmoid(TEMPERATURE * (a - zeta))
    if mode == "eval":
        return a > zeta
    raise ConfigError(f"threshold mode must be 'train' or 'eval', got {mode!r}")


def hard_adjacency(x: Array, zeta: float) -> Array:
    """Eval-mode adjacency 1[similarity(x) > zeta] as a symmetric (N, N) bool array.

    Built one row block at a time, each block against its own rows and
    those below them, so every similarity is computed once and the largest
    float array held is one block's (rows, N - start) similarities.  The
    strip right of the block's own columns is mirrored below it, and the
    (rows, rows) square is mirrored from its strict upper triangle.

    When the cohort's Cauchy-Schwarz bound c max |z|^2 cannot exceed zeta,
    with c = (1 + 8 w eps) / w^2 and eps the machine epsilon of x's dtype
    (2^-52 in float64, 2^-23 in float32), no pair is an edge (the diagonal
    included) and the adjacency is all False.  Each block then
    scores only its own (rows, rows) square, so the traced similarity and
    threshold layers still see one call per block.  The margin covers
    rounding.  Let u = eps / 2 and g = w u / (1 - w u).  A width-w dot
    product summed in any order, with or without FMA, lies within
    g sum_k |x_k y_k| <= g |x| |y| of the exact one, and the division by
    w^2 rounds once more: a computed similarity is at most
    (1 + u)(1 + g) |z_i| |z_j| / w^2.  A squared norm sums nonnegative
    terms, so it is computed at least (1 - g) |z|^2.  c takes two float64
    roundings (its sum and its quotient), one more into a float32 x's
    dtype, and c max |z|^2 one more, so the computed bound is at least
    (1 + 16 w u)(1 - u)^4 (1 - g) max |z|^2 / w^2, which exceeds the
    similarity's ceiling for every width up to 2^33 in float64 and up to
    2^12 in float32, where w^2 is exact: to first order 15 w u - 4 u >
    (w + 1) u, true for w >= 1.  Underflow voids these relative bounds, so
    a cohort whose largest squared norm is below the square root of the
    dtype's smallest normal number (2^-511 in float64, 2^-63 in float32;
    all rows zero, say) is never bounded; nor is one whose bound is NaN.
    Otherwise the graph is built exactly as without the bound.  Its blocks
    keep passing ``x[rows.start:]``, not a copy: numpy computes a one-block
    cohort's ``x @ x.T`` (both operands one buffer) with BLAS syrk, which
    rounds differently from a product against a copy.
    """
    x = np.asarray(x)
    n, width = x.shape
    limits = np.finfo(x.dtype)
    top = np.einsum("ij,ij->i", x, x).max(initial=0.0)
    scale = (1.0 + 8.0 * width * float(limits.eps)) / float(width * width)
    if top >= np.sqrt(limits.tiny) and scale * top <= zeta:
        for rows in row_blocks(n):
            threshold(similarity(x[rows], x[rows]), zeta, "eval")
        return np.zeros((n, n), dtype=bool)
    adjacency = np.empty((n, n), dtype=bool)
    for rows in row_blocks(n):
        strip = threshold(similarity(x[rows], x[rows.start:]), zeta, "eval")
        b = rows.stop - rows.start
        adjacency[rows, rows.start:] = strip
        np.copyto(adjacency[rows, rows], strip[:, :b].T, where=np.tri(b, k=-1, dtype=bool))
        adjacency[rows.stop:, rows] = strip[:, b:].T
        # freed before the next block allocates, so its smaller arrays reuse
        # this block's space; a strip kept alive into the next block split the
        # heap and raised peak RSS by 10-24 MB in 4 of 10 score-4096 runs
        del strip
    return adjacency


def threshold_backward(d_aprime: Array, soft: Array):
    """Backward of the train-mode relaxation; returns (d_a, d_zeta)."""
    d_pre = d_aprime * soft * (1.0 - soft)
    d_a = TEMPERATURE * d_pre
    d_zeta = -TEMPERATURE * float(d_pre.sum())
    return d_a, d_zeta


# ------------------------------------------------------------ aggregation


def gcn_aggregate(x: Array, a_prime: Array, phi: Array, keep_cache: bool = True):
    """tanh(Dt^-1/2 (A' + I) Dt^-1/2 X Phi); returns (output, cache).

    a_prime may be float or bool.  Without ``keep_cache`` the cache is None
    and A' + I is built one row block at a time, twice: once for the
    degrees, once to normalize the block and multiply it into X Phi.  A
    block whose rows of a_prime are all zero is not built: its degrees are
    1 and its output rows are tanh(X Phi)'s, as the product would give.
    """
    x = np.asarray(x)
    phi = np.asarray(phi)
    a_prime = np.asarray(a_prime)
    n = x.shape[0]
    if a_prime.shape != (n, n):
        raise ShapeError(f"adjacency shape {a_prime.shape}, expected ({n}, {n})")
    if phi.shape[0] != x.shape[1]:
        raise ShapeError(f"phi rows {phi.shape[0]} vs feature width {x.shape[1]}")
    m = x @ phi
    if not keep_cache:
        blocks = [rows for rows in row_blocks(n) if a_prime[rows].any()]
        deg = np.ones(n, m.dtype)
        for rows in blocks:
            deg[rows] = _a_tilde_rows(a_prime, rows, m.dtype).sum(axis=1)
        inv_sqrt = _inv_sqrt_degrees(deg)
        out = m.copy()
        for rows in blocks:
            s_norm = _a_tilde_rows(a_prime, rows, m.dtype)
            s_norm *= inv_sqrt[rows, None]
            s_norm *= inv_sqrt[None, :]
            np.matmul(s_norm, m, out=out[rows])
        np.tanh(out, out=out)
        return out, None
    # a fresh copy: a_prime itself stays as given, threshold_backward reads it
    a_tilde = _a_tilde_rows(a_prime, slice(0, n), m.dtype)
    deg = a_tilde.sum(axis=1)
    inv_sqrt = _inv_sqrt_degrees(deg)
    s_norm = a_tilde * inv_sqrt[:, None]
    s_norm *= inv_sqrt[None, :]
    out = s_norm @ m
    np.tanh(out, out=out)
    return out, (x, a_tilde, deg, inv_sqrt, s_norm, m, out)


def _a_tilde_rows(a_prime: Array, rows: slice, dtype) -> Array:
    """Rows ``rows`` of A' + I as a fresh ``dtype`` array."""
    a_tilde = np.array(a_prime[rows], dtype=dtype)
    a_tilde[np.arange(a_tilde.shape[0]), np.arange(rows.start, rows.stop)] += 1.0
    return a_tilde


def _inv_sqrt_degrees(deg: Array) -> Array:
    if np.any(deg <= 0.0):
        raise ConfigError("aggregation degrees must be positive (negative adjacency?)")
    return 1.0 / np.sqrt(deg)


def gcn_aggregate_backward(d_out: Array, cache, phi: Array):
    """Gradients of gcn_aggregate; returns (d_x, d_a_prime, d_phi).

    The degree term makes the adjacency gradient non-obvious: with
    S_ab = At_ab * u_a * u_b and u = deg^-1/2 where deg_a = sum_b At_ab,
    perturbing At_ab moves deg_a only, so

        dAt_ab = dS_ab * u_a * u_b - 0.5 * deg_a^-3/2 * (r_a + c_a)
        r_a = sum_j dS_aj At_aj u_j,   c_a = sum_i dS_ia At_ia u_i

    and the correction is constant along each row.
    """
    x, a_tilde, deg, inv_sqrt, s_norm, m, out = cache
    d_pre = d_out * (1.0 - out * out)
    d_snorm = d_pre @ m.T
    d_m = s_norm.T @ d_pre
    d_phi = x.T @ d_m
    d_x = d_m @ phi.T

    weighted = d_snorm * a_tilde
    row_term = (weighted * inv_sqrt[None, :]).sum(axis=1)
    col_term = (weighted * inv_sqrt[:, None]).sum(axis=0)
    correction = 0.5 * deg ** -1.5 * (row_term + col_term)
    d_a_tilde = d_snorm * np.outer(inv_sqrt, inv_sqrt) - correction[:, None]
    return d_x, d_a_tilde, d_phi
