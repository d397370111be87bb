"""Ranking and confusion metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc.errors import ConfigError, ShapeError, UndefinedMetricError
from hgrc.metrics import auprc, auroc, compute_report, confusion_counts, confusion_metrics
from hgrc.numeric import Rng

# ---------------------------------------------------------------- oracles


def auroc_pairwise(scores, labels):
    """O(n^2) Mann-Whitney count: concordant pairs plus half the ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_stepwise(scores, labels):
    """Average precision over descending unique thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        picked = scores >= t
        tp = int(labels[picked].sum())
        recall = tp / n_pos
        precision = tp / int(picked.sum())
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return ap


def auprc_loop(scores, labels):
    """The grouped average precision written as one pass over the sorted
    patients, a tie group at a time; the package's vectorized auprc must
    equal it bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    ap = 0.0
    recall_prev = 0.0
    tp = 0
    seen = 0
    n = scores.shape[0]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_labels[i:j].sum())
        seen += j - i
        recall = tp / n_pos
        precision = tp / seen
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        i = j
    return float(ap)


def confusion_loop(scores, labels, threshold):
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        if s > threshold:
            if y == 1:
                tp += 1
            else:
                fp += 1
        else:
            if y == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def random_fixture(rng, n_max=200):
    """Scores with deliberate ties (quantized grid), both classes present."""
    n = int(rng.integers(2, n_max + 1))
    scores = np.round(rng.random(n), 2)
    labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


# ------------------------------------------------------------- fixed cases


def test_auroc_fixed_case_three_quarters():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert auroc(scores, labels) == 0.75


def test_auroc_all_ties_is_half():
    scores = np.ones(10)
    labels = np.array([0, 1] * 5)
    assert auroc(scores, labels) == 0.5


def test_auroc_perfect_and_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auroc(scores, labels) == 1.0
    assert auroc(-scores, labels) == 0.0


def test_auprc_fixed_case_five_sixths():
    scores = np.array([0.9, 0.5, 0.3])
    labels = np.array([1, 0, 1])
    assert np.isclose(auprc(scores, labels), 5.0 / 6.0, rtol=0, atol=1e-15)


def test_auprc_tied_scores_form_one_step():
    scores = np.array([0.7, 0.7, 0.2])
    labels = np.array([1, 0, 0])
    # single step at 0.7: recall 1, precision 1/2
    assert np.isclose(auprc(scores, labels), 0.5, rtol=0, atol=1e-15)


def test_confusion_strict_threshold_and_zero_conventions():
    scores = np.array([0.5, 0.6, 0.4])
    labels = np.array([1, 1, 0])
    # score == threshold counts as negative
    assert confusion_counts(scores, labels, 0.5) == (1, 0, 1, 1)
    scores = np.array([0.1, 0.2])
    labels = np.array([0, 0])
    accuracy, precision, recall, f1 = confusion_metrics(scores, labels, 0.5)
    assert (accuracy, precision, recall, f1) == (1.0, 0.0, 0.0, 0.0)


def test_report_min_se_pplus_at_the_decision_threshold():
    scores = np.array([0.9, 0.8, 0.3, 0.2])
    labels = np.array([1, 0, 1, 0])
    # recall 1/2, precision 1/2
    assert compute_report(scores, labels, 0.5).min_se_pplus == 0.5
    # below 0.3: Se 1, P+ 2/3
    assert np.isclose(compute_report(scores, labels, 0.25).min_se_pplus, 2.0 / 3.0)
    # above 0.9 nothing is predicted positive: Se 0, and P+ 0/0 reads 0
    assert compute_report(scores, labels, 0.95).min_se_pplus == 0.0


# ----------------------------------------------------------------- oracles


def test_metrics_match_oracles_on_random_fixtures():
    rng = Rng(12345)
    for _ in range(300):
        scores, labels = random_fixture(rng)
        assert abs(auroc(scores, labels) - auroc_pairwise(scores, labels)) < 1e-12
        assert abs(auprc(scores, labels) - auprc_stepwise(scores, labels)) < 1e-12
        t = float(rng.random())
        assert confusion_counts(scores, labels, t) == confusion_loop(scores, labels, t)


def test_auprc_equals_the_loop_bitwise():
    rng = Rng(4242)
    for _ in range(300):
        scores, labels = random_fixture(rng, n_max=500)
        assert auprc(scores, labels) == auprc_loop(scores, labels)
    # one patient, all tied, all positive, and a near-continuous score grid
    assert auprc(np.array([0.3]), np.array([1])) == auprc_loop([0.3], [1]) == 1.0
    assert auprc(np.full(7, 0.5), np.array([1, 0, 0, 1, 0, 0, 0])) == 2.0 / 7.0
    assert auprc(np.array([0.2, 0.9, 0.9]), np.ones(3, dtype=int)) == 1.0
    scores, labels = Rng(4243).random(4096), (Rng(4244).random(4096) < 0.2).astype(int)
    assert auprc(scores, labels) == auprc_loop(scores, labels)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_auroc_rank_sum_equals_pairwise_property(seed):
    scores, labels = random_fixture(Rng(seed), n_max=60)
    assert abs(auroc(scores, labels) - auroc_pairwise(scores, labels)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_auprc_grouped_equals_stepwise_property(seed):
    scores, labels = random_fixture(Rng(seed), n_max=60)
    assert abs(auprc(scores, labels) - auprc_stepwise(scores, labels)) < 1e-12


def test_auroc_is_order_invariant():
    scores, labels = random_fixture(Rng(77))
    perm = Rng(78).permutation(len(scores))
    assert auroc(scores, labels) == auroc(scores[perm], labels[perm])
    assert auprc(scores, labels) == auprc(scores[perm], labels[perm])


# -------------------------------------------------------------- validation


def test_single_class_inputs_are_undefined():
    with pytest.raises(UndefinedMetricError):
        auroc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        auroc(np.array([0.1, 0.2]), np.array([0, 0]))
    with pytest.raises(UndefinedMetricError):
        auprc(np.array([0.1, 0.2]), np.array([0, 0]))


def test_input_validation():
    with pytest.raises(ShapeError):
        auroc(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ShapeError):
        auroc(np.zeros(3), np.array([0, 1]))
    with pytest.raises(ConfigError):
        auroc(np.array([np.nan, 0.2]), np.array([0, 1]))
    with pytest.raises(ConfigError):
        auroc(np.array([0.1, 0.2]), np.array([0, 2]))


def test_compute_report_fields():
    scores = np.array([0.9, 0.8, 0.3, 0.2])
    labels = np.array([1, 0, 1, 0])
    report = compute_report(scores, labels, 0.5)
    d = report.to_dict()
    assert d["auroc"] == 0.75
    assert d["n_patients"] == 4
    assert d["n_positive"] == 2
    assert d["decision_threshold"] == 0.5
    assert d["min_se_pplus"] == min(d["recall"], d["precision"])
    assert set(d) == {"auroc", "auprc", "accuracy", "precision", "recall", "f1",
                      "min_se_pplus", "decision_threshold", "n_patients", "n_positive"}


def test_compute_report_empty_rejected():
    with pytest.raises(UndefinedMetricError):
        compute_report(np.zeros(0), np.zeros(0, dtype=int), 0.5)
