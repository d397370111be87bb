"""Similarity graph: pairwise scores, learnable threshold, GCN aggregation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc import head, simgraph
from hgrc.data import impute_mean, standardize
from hgrc.errors import ConfigError, ShapeError
from hgrc.model import ModelConfig, forward_eval, init_params
from hgrc.numeric import Rng, finite_diff_check, row_blocks, sigmoid
from hgrc.simgraph import (gcn_aggregate, gcn_aggregate_backward, hard_adjacency,
                           similarity, similarity_backward, threshold, threshold_backward)
from hgrc.synthetic import SyntheticSpec, gen_synthetic
from hgrc.train import Checkpoint, TrainConfig, predict_scores


def dense_eval_graph(z, zeta, phi):
    """The eval-mode graph as whole (N, N) float64 arrays: the bit-for-bit oracle.

    This is how evaluation built A, 1[A > zeta], A' + I and its normalization
    before it moved to row blocks; the blocked path must equal it exactly.
    """
    n, width = z.shape
    a = z @ z.T
    a /= float(width * width)
    a_tilde = (a > zeta).astype(np.float64)
    a_tilde[np.diag_indices(n)] += 1.0
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    s_norm = a_tilde * inv_sqrt[:, None]
    s_norm *= inv_sqrt[None, :]
    out = s_norm @ (z @ phi)
    return np.tanh(out, out=out)


def oracle_scores(params, x_star):
    return head.head_forward(x_star, params.ffn, None)[0][:, 1]


def zeta_between_similarities(z):
    """A zeta midway across the widest gap between similarities near their median.

    The oracle takes the similarities from one whole product and the model
    from row blocks, and the two may differ in the last bits; a zeta within
    that rounding of a similarity would leave its edge to the BLAS kernel.
    """
    a = np.sort(similarity(z), axis=None)
    if a.size == 1:
        return float(a[0]) + 1.0
    lo, hi = (4 * a.size) // 10, max((6 * a.size) // 10, (4 * a.size) // 10 + 1)
    i = lo + int(np.argmax(np.diff(a[lo:hi + 1])))
    return float(0.5 * (a[i] + a[i + 1]))


# ------------------------------------------------------------- similarity


def test_similarity_hand_values_and_symmetry():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = similarity(x)
    assert np.allclose(a, [[1.25, 2.75], [2.75, 6.25]], rtol=0, atol=1e-15)
    z = Rng(0).normal(size=(6, 4))
    a = similarity(z)
    assert np.array_equal(a, a.T)


def test_similarity_scaling_uses_squared_width():
    z = Rng(1).normal(size=(3, 5))
    assert np.allclose(similarity(z), (z @ z.T) / 25.0, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError):
        similarity(np.zeros(4))
    with pytest.raises(ShapeError):
        similarity(z, np.zeros((3, 4)))
    # a block of rows against all rows gives those rows of the whole matrix
    assert np.allclose(similarity(z[1:], z), similarity(z)[1:], rtol=0, atol=1e-15)


def test_similarity_backward_matches_finite_differences():
    x = Rng(2).normal(size=(4, 3))
    proj = Rng(3).normal(size=(4, 4))  # deliberately asymmetric

    def loss(arrays):
        return float((similarity(arrays["x"]) * proj).sum())

    d_x = similarity_backward(proj, x)
    assert finite_diff_check(loss, {"x": x}, {"x": d_x}) < 1e-7


@given(seed=st.integers(0, 2 ** 32 - 1), layers=st.integers(0, 3),
       hidden=st.integers(1, 6), n_codes=st.integers(0, 5), n=st.integers(1, 8),
       scale=st.sampled_from([0.1, 1.0, 10.0, 1000.0]))
@settings(max_examples=100, deadline=None)
def test_similarity_never_exceeds_the_residual_cap(seed, layers, hidden, n_codes, n, scale):
    # the GRU state and the codes lie in [-1, 1] and each residual layer adds
    # a tanh, so |z| <= 1 + L entrywise, every product of a width-w dot
    # product is at most (1 + L)^2 and the similarity at most (1 + L)^2 / w.
    # (1 + L)^2 and each partial sum's bound are integers, exact in float64,
    # and every rounding step is monotone, so the bound needs no tolerance;
    # large scales saturate the tanh layers and reach it
    cfg = ModelConfig(n_variables=2, n_codes=n_codes, hidden_size=hidden,
                      hconv_layers=layers, phi_width=2, ffn_hidden=(2, 2))
    rng = Rng(seed)
    params = init_params(cfg, rng)
    params.flat[...] = rng.normal(scale=scale, size=params.flat.shape)
    series = scale * rng.normal(size=(n, 2, 3))
    icd = (rng.random((n, n_codes)) < 0.5).astype(np.float64)
    z = forward_eval(params, series, icd)[1]["hconv"]
    assert np.abs(z).max() <= 1 + layers
    assert similarity(z).max() <= (1 + layers) ** 2 / cfg.fused_width


# -------------------------------------------------------------- threshold


def test_threshold_train_is_sigmoid_relaxation():
    a = np.array([[0.3, 0.5], [0.5, 0.9]])
    out = threshold(a, zeta=0.4, mode="train")
    assert np.allclose(out, sigmoid(simgraph.TEMPERATURE * (a - 0.4)), rtol=0, atol=1e-15)
    assert np.all((out > 0.0) & (out < 1.0))


def test_threshold_eval_is_strict_indicator():
    a = np.array([[0.39, 0.4], [0.41, 0.9]])
    out = threshold(a, zeta=0.4, mode="eval")
    # ties at zeta fall on the disconnected side
    assert out.dtype == bool
    assert np.array_equal(out, [[0.0, 0.0], [1.0, 1.0]])


def test_threshold_validation():
    with pytest.raises(ConfigError):
        threshold(np.zeros((2, 2)), 0.4, mode="hard")


def test_threshold_backward_matches_finite_differences():
    # at the model's slope; the extrapolated differences read 3.7e-8 here
    a = Rng(7).normal(scale=0.2, size=(3, 3)) + 0.4
    proj = Rng(8).normal(size=(3, 3))

    def loss(arrays):
        out = threshold(arrays["a"], float(arrays["zeta"]), mode="train")
        return float((out * proj).sum())

    zeta = np.array(0.37)
    soft = threshold(a, float(zeta), mode="train")
    d_a, d_zeta = threshold_backward(proj, soft)
    params = {"a": a, "zeta": zeta}
    analytic = {"a": d_a, "zeta": np.array(d_zeta)}
    assert finite_diff_check(loss, params, analytic) < 1e-7


# ------------------------------------------------------------ aggregation


def test_gcn_identity_adjacency_reduces_to_dense_layer():
    x = Rng(9).normal(size=(4, 3))
    phi = Rng(10).normal(size=(3, 2))
    out, _ = gcn_aggregate(x, np.zeros((4, 4)), phi)
    # A' = 0 means self-loops only: out = tanh(x phi)
    assert np.allclose(out, np.tanh(x @ phi), rtol=0, atol=1e-15)


def test_gcn_hand_values_symmetric_pair():
    # A' fully connects two nodes; with x = phi = I the normalized
    # adjacency is all 0.5, so every output is tanh(0.5)
    out, _ = gcn_aggregate(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    assert np.allclose(out, np.full((2, 2), np.tanh(0.5)), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_similarity_and_gcn_equal_their_formulas_bitwise(mode):
    rng = Rng(13)
    z = rng.normal(size=(12, 5))
    phi = rng.normal(size=(5, 3))
    a = similarity(z)
    assert np.array_equal(a, (z @ z.T) / 25.0)
    # zeta at the median similarity: half the pairs are edges
    a_prime = threshold(a, float(np.median(a)), mode)
    assert 0.3 < (a_prime > 0.5).mean() < 0.7
    a_before = a_prime.copy()
    out, cache = gcn_aggregate(z, a_prime, phi)
    assert np.array_equal(a_prime, a_before)  # threshold_backward reads a_prime

    a_tilde = a_prime + np.eye(12)
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    s_norm = a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
    assert np.array_equal(cache[1], a_tilde)
    assert np.array_equal(cache[4], s_norm)
    assert np.array_equal(out, np.tanh(s_norm @ (z @ phi)))
    blocked, none = gcn_aggregate(z, a_prime, phi, keep_cache=False)
    assert none is None and np.array_equal(blocked, out)


@pytest.mark.parametrize("n", [300, 513])
def test_blocked_aggregation_equals_the_cached_one_bitwise(n):
    # a soft adjacency too: each block's rows, degrees and products must
    # equal the whole-matrix arithmetic's, not only for 0/1 entries
    rng = Rng(14)
    x = rng.normal(size=(n, 7))
    phi = rng.normal(size=(7, 37))  # the default phi_width; see SMALL_MODEL
    a_prime = sigmoid(rng.normal(size=(n, n)))
    cached, _ = gcn_aggregate(x, a_prime, phi)
    blocked, _ = gcn_aggregate(x, a_prime, phi, keep_cache=False)
    assert np.array_equal(blocked, cached)


def test_aggregation_skips_row_blocks_with_no_edge_bitwise():
    # 700 patients make three row blocks; only the middle one has edges, and
    # its rows reach into the other blocks' columns, whose degrees stay 1
    n = 700
    rng = Rng(19)
    x = rng.normal(size=(n, 79))
    phi = rng.normal(size=(79, 37))
    middle = row_blocks(n)[1]
    a_prime = np.zeros((n, n), dtype=bool)
    a_prime[middle] = rng.random((middle.stop - middle.start, n)) < 0.1
    cached, _ = gcn_aggregate(x, a_prime, phi)
    blocked, _ = gcn_aggregate(x, a_prime, phi, keep_cache=False)
    assert np.array_equal(blocked, cached)
    assert np.array_equal(blocked[:middle.start], np.tanh(x[:middle.start] @ phi))


def test_aggregation_without_edges_builds_no_row_block():
    # an edgeless graph must not build any (256, N) float64 block of A' + I
    n = 2048
    rng = Rng(20)
    x = rng.normal(size=(n, 79))
    phi = rng.normal(size=(79, 37))
    a_prime = np.zeros((n, n), dtype=bool)
    tracemalloc.start()
    try:
        out, _ = gcn_aggregate(x, a_prime, phi, keep_cache=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * n * 8, peak
    assert np.array_equal(out, gcn_aggregate(x, a_prime, phi)[0])


def test_gcn_validation():
    for keep_cache in (True, False):
        with pytest.raises(ShapeError):
            gcn_aggregate(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)), keep_cache)
        with pytest.raises(ShapeError):
            gcn_aggregate(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)), keep_cache)
        with pytest.raises(ConfigError, match="degrees"):
            gcn_aggregate(np.zeros((2, 2)), np.array([[-2.0, 0.0], [0.0, 0.0]]),
                          np.zeros((2, 2)), keep_cache)


def test_gcn_backward_matches_finite_differences():
    rng = Rng(11)
    x = rng.normal(size=(4, 3))
    a_prime = sigmoid(rng.normal(size=(4, 4)))  # entries in (0, 1), no symmetry needed
    phi = rng.normal(scale=0.5, size=(3, 2))
    proj = rng.normal(size=(4, 2))

    def loss(arrays):
        out, _ = gcn_aggregate(arrays["x"], arrays["a"], arrays["phi"])
        return float((out * proj).sum())

    _, cache = gcn_aggregate(x, a_prime, phi)
    d_x, d_a_tilde, d_phi = gcn_aggregate_backward(proj, cache, phi)
    # d a_tilde equals d a_prime because a_tilde = a_prime + I
    params = {"x": x, "a": a_prime, "phi": phi}
    analytic = {"x": d_x, "a": d_a_tilde, "phi": d_phi}
    assert finite_diff_check(loss, params, analytic) < 1e-6


def test_gcn_degree_correction_is_exercised():
    # the naive gradient without the degree term is measurably wrong
    rng = Rng(12)
    x = rng.normal(size=(3, 2))
    a_prime = sigmoid(rng.normal(size=(3, 3)))
    phi = rng.normal(size=(2, 2))
    proj = rng.normal(size=(3, 2))
    out, cache = gcn_aggregate(x, a_prime, phi)
    _, d_a_tilde, _ = gcn_aggregate_backward(proj, cache, phi)
    _, a_tilde, deg, inv_sqrt, s_norm, m, out = cache
    d_pre = proj * (1.0 - out ** 2)
    naive = (d_pre @ m.T) * np.outer(inv_sqrt, inv_sqrt)
    assert not np.allclose(naive, d_a_tilde, rtol=0, atol=1e-6)

    def loss(arrays):
        o, _ = gcn_aggregate(x, arrays["a"], phi)
        return float((o * proj).sum())

    assert finite_diff_check(loss, {"a": a_prime}, {"a": d_a_tilde}) < 1e-6
    assert finite_diff_check(loss, {"a": a_prime}, {"a": naive}) > 1e-3


# ------------------------------------------------------ blocked eval graph

# The default graph widths (79 features, phi_width 37) on few variables and
# hours.  The widths matter: OpenBLAS sends an untransposed product of at
# most 10^6 multiply-adds to a small-matrix kernel, so at narrow widths a
# block's rows of the aggregation product can round apart from the whole's.
SMALL_MODEL = ModelConfig(n_variables=3)


def small_batch(n, seed):
    """(series, codes) of n patients."""
    rng = Rng(seed)
    return rng.normal(size=(n, 3, 4)), (rng.random((n, 20)) < 0.15).astype(np.float64)


def model_params(cfg, seed):
    """Initial parameters with a random FFN output layer, so scores vary."""
    params = init_params(cfg, Rng(seed))
    params.ffn["wy"][...] = Rng(seed + 1).normal(size=params.ffn["wy"].shape)
    return params


@pytest.mark.parametrize("n", [1, 2, 20, 21, 255, 256, 257, 300, 511, 513, 1000])
def test_blocked_eval_graph_equals_the_dense_one_bitwise(n):
    # row blocks of at most 256; N = 21 is the smallest a block may hold,
    # 257 the first N with two blocks and 513 the first with three
    params = model_params(SMALL_MODEL, n)
    batch = small_batch(n, 1000 + n)
    z = forward_eval(params, *batch)[1]["hconv"]
    edges = {"none": np.inf, "some": zeta_between_similarities(z), "all": -np.inf}
    for name, zeta in edges.items():
        params.zeta[...] = zeta
        scores, stages = forward_eval(params, *batch)
        assert np.array_equal(stages["hconv"], z)
        n_edges = int(hard_adjacency(z, zeta).sum())
        if name == "some":
            assert n == 1 or 0 < n_edges < n * n
        else:
            assert n_edges == {"none": 0, "all": n * n}[name]
        x_star = dense_eval_graph(z, zeta, params.phi)
        assert np.array_equal(stages["aggregated"], x_star), name
        assert np.array_equal(scores, oracle_scores(params, x_star)), name
    # a row of zero norm bounds nothing, so its block rules out no row,
    # and at zeta = 0 it has no edge
    z0 = z.copy()
    z0[::7] = 0.0
    for zeta in (*edges.values(), 0.0):
        adjacency = hard_adjacency(z0, zeta)
        x_star, _ = gcn_aggregate(z0, adjacency, params.phi, keep_cache=False)
        assert np.array_equal(x_star, dense_eval_graph(z0, zeta, params.phi)), zeta


@pytest.mark.parametrize("n", [257, 1089, 1500, 4097])
def test_eval_graph_is_symmetric(n):
    # a row block's similarities can round apart from the whole product's, so
    # s_ij computed in i's block and s_ji in j's block may differ; a zeta at
    # the smaller of such a pair splits the pair unless s_ij is computed once
    z = Rng(n).normal(size=(n, 79))
    blockwise = np.concatenate([similarity(z[rows], z) for rows in row_blocks(n)])
    i, j = np.nonzero(blockwise != blockwise.T)
    assert i.size > 0
    zeta = float(min(blockwise[i[0], j[0]], blockwise[j[0], i[0]]))
    adjacency = hard_adjacency(z, zeta)
    assert np.array_equal(adjacency, adjacency.T)


def test_eval_graph_computes_each_similarity_once(monkeypatch):
    # wrapped through the module attribute, as bench/tracing.py wraps it:
    # one similarity and one threshold call per row block, block k against
    # rows start_k onward; with zeta above the cohort's norm bound
    # max |z|^2 / w^2, block k against its own rows alone
    n = 700
    z = Rng(21).normal(size=(n, 79))
    similarity_fn, threshold_fn = simgraph.similarity, simgraph.threshold
    blocks = row_blocks(n)
    assert len(blocks) == 3
    for bounded in (False, True):
        calls = {"similarity": [], "threshold": 0}

        def similarity_spy(x, y=None):
            calls["similarity"].append((x, y))
            return similarity_fn(x, y)

        def threshold_spy(*args):
            calls["threshold"] += 1
            return threshold_fn(*args)

        if bounded:
            zeta = 1.01 * np.linalg.norm(z, axis=1).max() ** 2 / 79**2
        else:
            zeta = zeta_between_similarities(z)
        monkeypatch.setattr(simgraph, "similarity", similarity_spy)
        monkeypatch.setattr(simgraph, "threshold", threshold_spy)
        adjacency = hard_adjacency(z, zeta)
        monkeypatch.undo()
        assert len(calls["similarity"]) == calls["threshold"] == len(blocks)
        for rows, (x, y) in zip(blocks, calls["similarity"]):
            assert np.array_equal(x, z[rows])
            assert np.array_equal(y, z[rows] if bounded else z[rows.start:]), bounded
        upper = np.triu(similarity(z) > zeta)
        assert np.array_equal(adjacency, upper | np.triu(upper, 1).T)


def test_eval_graph_keeps_parallel_rows_that_reach_the_bound(monkeypatch):
    # the cohort's largest row z_i and its copies z_j (parallel rows, c = 1)
    # meet the bound max |z|^2 / w^2 with equality, so at a zeta one ulp
    # below their similarity only the rounding margin keeps the graph from
    # being ruled empty.  Each pair takes, of 50 seeded directions, the one
    # whose bare bound falls furthest below its similarity.
    n, width = 700, 79
    blocks = row_blocks(n)
    calls = []
    similarity_fn = simgraph.similarity

    def similarity_spy(x, y=None):
        a = similarity_fn(x, y)
        calls.append((y, a))
        return a

    def pair_similarity(z, i, j, zeta):
        # the adjacency, and the pair's similarity as i's block computed it
        calls.clear()
        adjacency = hard_adjacency(z, zeta)
        k = next(k for k, rows in enumerate(blocks) if rows.start <= i < rows.stop)
        y, a = calls[k]
        col = j - blocks[k].start
        assert col < y.shape[0] and np.array_equal(y[col], z[j])
        return adjacency, a[i - blocks[k].start, col]

    monkeypatch.setattr(simgraph, "similarity", similarity_spy)
    rng = Rng(23)
    base = 0.1 * rng.normal(size=(n, width))
    for i, j in [(10, 300), (240, 600), (100, n - 1)]:
        candidates = []
        for _ in range(50):
            z = base.copy()
            z[i] = rng.normal(size=width)
            z[j] = z[i]
            _, s = pair_similarity(z, i, j, 0.5 * float(z[i] @ z[j]) / width**2)
            bare = np.einsum("ij,ij->i", z, z).max() / width**2
            candidates.append(((s - bare) / np.spacing(s), z, s))
        _, z, s = max(candidates, key=lambda c: c[0])
        adjacency, s_edge = pair_similarity(z, i, j, float(np.nextafter(s, -np.inf)))
        assert s_edge == s
        assert adjacency[i, j] and adjacency[j, i]


def test_one_block_eval_graph_rounds_like_the_whole_product():
    # numpy computes x @ x.T on one buffer with syrk, which rounds apart from
    # a product against a copy; a one-block cohort rules out no row and must
    # keep the whole product's rounding
    n = 100
    z = Rng(25).normal(size=(n, 79))
    whole = similarity(z)
    i, j = np.nonzero(whole != similarity(z, z.copy()))
    assert i.size > 0
    zeta = float(np.nextafter(whole[i[0], j[0]], -np.inf))
    assert np.array_equal(hard_adjacency(z, zeta), whole > zeta)


def test_eval_graph_keeps_rows_whose_squares_underflow():
    # subnormal products round to whole units t = 2^-1074: p^2 and q^2 below
    # round to 2t and 3t and pq to 3t, so (p, q).(q, p) = 6t exceeds both
    # squared norms, 5t.  The similarity 6t / 4 rounds to 2t and the bound
    # c 5t to t: a bound taken below 2^-900 would rule out an edge
    t = 2.0 ** -1074
    p, q = np.sqrt(2.49) * 2.0 ** -537, np.sqrt(2.52) * 2.0 ** -537
    z = np.zeros((700, 2))
    z[5], z[650] = (p, q), (q, p)
    assert similarity(z[5:6], z[650:651])[0, 0] == 2 * t
    adjacency = hard_adjacency(z, t)
    assert adjacency[5, 650] and adjacency[650, 5]


def test_eval_graph_takes_each_diagonal_square_from_its_upper_triangle(monkeypatch):
    # a kernel may round s_ij and s_ji apart within one product; the strict
    # lower triangle of a block's own square must decide no edge
    n = 700
    z = Rng(22).normal(size=(n, 79))
    zeta = zeta_between_similarities(z)
    expected = hard_adjacency(z, zeta)
    similarity_fn = simgraph.similarity

    def skewed(x, y=None):
        a = similarity_fn(x, y)
        b = x.shape[0]
        a[:, :b][np.tri(b, k=-1, dtype=bool)] = np.inf
        return a

    monkeypatch.setattr(simgraph, "similarity", skewed)
    assert np.array_equal(hard_adjacency(z, zeta), expected)

def test_blocked_scoring_equals_the_dense_graph():
    # 700 patients: the eval graph runs in three row blocks
    spec = SyntheticSpec(n_patients=700, n_variables=3, window_hours=24, n_codes=20,
                         missing_rate=0.2)
    cohort = standardize(impute_mean(gen_synthetic(spec, Rng(15))))
    cfg = replace(SMALL_MODEL, n_variables=len(cohort.schema),
                  n_codes=len(cohort.code_vocab))
    params = model_params(cfg, 16)
    z = forward_eval(params, cohort.series, cohort.icd)[1]["hconv"]
    params.zeta[...] = zeta_between_similarities(z)
    ckpt = Checkpoint(config=TrainConfig(window_hours=24, model=cfg), schema=cohort.schema,
                      code_vocab=cohort.code_vocab, norm_stats=cohort.norm_stats,
                      params=params)
    x_star = dense_eval_graph(z, float(params.zeta), params.phi)
    assert np.array_equal(predict_scores(ckpt, cohort), oracle_scores(params, x_star))


def test_eval_forward_never_holds_an_n_by_n_float_array():
    # at the default widths, forward_eval at N = 2048 must peak below one
    # (N, N) float64 array, 33.5 MB; the dense graph held several at once
    n = 2048
    cfg = ModelConfig()
    params = init_params(cfg, Rng(17))
    rng = Rng(18)
    series = rng.normal(size=(n, cfg.n_variables, 6))
    icd = (rng.random((n, cfg.n_codes)) < 0.15).astype(np.float64)
    tracemalloc.start()
    try:
        forward_eval(params, series, icd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, peak
