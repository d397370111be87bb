"""Release gates, one verdict line per criterion.

Run with plain pytest; each test prints `criterion N (...): PASS/FAIL (...)`
past the capture plugin so the verdicts land in the console transcript.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from hgrc.checkpoint import load_checkpoint, save_checkpoint
from hgrc.data import impute_mean, split, standardize
from hgrc.hypergraph import build_hypergraph, hconv_stack
from hgrc.metrics import auprc, auroc, compute_report, confusion_counts
from hgrc.model import ModelConfig, forward_train, init_params
from hgrc.numeric import Rng
from hgrc.synthetic import SyntheticSpec, gen_synthetic
from hgrc.train import TrainConfig, derive_rng_streams, evaluate, train

from test_hypergraph import dense_operator, random_hypergraph
from test_metrics import auprc_stepwise, auroc_pairwise, confusion_loop, random_fixture
from test_model_grad import run_check, tiny_fixture


@contextmanager
def verdict(capsys, label):
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n{label}: FAIL ({str(exc).splitlines()[0][:160]})")
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS ({outcome['detail']})")


def prepare_splits(cohort, config):
    split_rng = derive_rng_streams(config.seed)[0]
    tr, va, te = split(cohort, config.split_ratios, split_rng)
    tr = standardize(impute_mean(tr))
    stats = tr.norm_stats
    va = standardize(impute_mean(va, stats), stats)
    te = standardize(impute_mean(te, stats), stats)
    return tr, va, te


def run_experiment(cohort, config):
    tr, va, te = prepare_splits(cohort, config)
    ckpt = train(config, tr, va)
    return ckpt, evaluate(ckpt, te), te


@pytest.fixture(scope="module")
def cohort7():
    """The shared end-to-end cohort: defaults, generation seed 7."""
    return gen_synthetic(SyntheticSpec(), Rng(7))


def test_criterion_1_gradient_integrity(capsys):
    with verdict(capsys, "criterion 1 (gradient integrity)") as v:
        params, batch = tiny_fixture()
        n_entries = sum(a.size for a in params.named_arrays().values())
        t0 = time.perf_counter()
        err = run_check(params, batch)
        secs = time.perf_counter() - t0
        v["detail"] = (f"max rel err {err:.3e} over {n_entries} entries, "
                       f"{secs:.1f} s")
        assert err < 1e-4
        assert secs < 60.0


def test_criterion_2_operator_algebra(capsys):
    with verdict(capsys, "criterion 2 (operator algebra)") as v:
        rng = Rng(202)
        worst_sum = 0.0
        worst_perm = 0.0
        for _ in range(500):
            icd = random_hypergraph(rng)
            hg = build_hypergraph(icd)
            p = dense_operator(hg)
            occupied = hg.node_degree > 0.0
            if occupied.any():
                worst_sum = max(worst_sum,
                                np.abs(p[occupied].sum(axis=1) - 1.0).max())
            if (~occupied).any():
                assert not p[~occupied].any()

            n = hg.n_nodes
            x = rng.normal(size=(n, 3))
            thetas = [rng.normal(size=(3, 3)) for _ in range(2)]
            out, _ = hconv_stack(x, hg, thetas)
            perm = rng.permutation(n)
            hg_p = build_hypergraph(icd[perm])
            out_p, _ = hconv_stack(x[perm], hg_p, thetas)
            worst_perm = max(worst_perm, np.abs(out_p - out[perm]).max())

        chain = dense_operator(build_hypergraph(
            np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])))
        chain_dev = np.abs(chain - np.array([[0.5, 0.5, 0.0],
                                             [0.25, 0.5, 0.25],
                                             [0.0, 0.5, 0.5]])).max()
        v["detail"] = (f"row-sum dev {worst_sum:.2e}, permutation dev "
                       f"{worst_perm:.2e}, 3-node fixture dev {chain_dev:.2e}")
        assert worst_sum < 1e-10
        assert worst_perm <= 1e-12
        assert chain_dev <= 1e-12


def test_criterion_3_residual_identity(capsys):
    with verdict(capsys, "criterion 3 (residual identity)") as v:
        rng = Rng(303)
        checked = 0
        for _ in range(100):
            hg = build_hypergraph(random_hypergraph(rng))
            x = rng.normal(size=(hg.n_nodes, 5))
            thetas = [np.zeros((5, 5)) for _ in range(3)]
            out, _ = hconv_stack(x, hg, thetas)
            assert out is not x
            assert np.array_equal(out, x)
            checked += 1
        v["detail"] = f"zero-weight tanh stack bitwise identity on {checked} graphs"


def test_criterion_4_metric_oracles(capsys):
    def min_se_pplus_oracle(scores, labels, threshold):
        tp, fp, _, fn = confusion_loop(scores, labels, threshold)
        se = tp / (tp + fn) if tp + fn else 0.0
        pplus = tp / (tp + fp) if tp + fp else 0.0
        return min(se, pplus)

    with verdict(capsys, "criterion 4 (metric oracles)") as v:
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
        assert abs(auprc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 5.0 / 6.0) <= 1e-12

        rng = Rng(404)
        worst = 0.0
        for _ in range(1000):
            scores, labels = random_fixture(rng)
            threshold = float(rng.integers(0, 101)) / 100.0  # on the tie grid
            worst = max(
                worst,
                abs(auroc(scores, labels) - auroc_pairwise(scores, labels)),
                abs(auprc(scores, labels) - auprc_stepwise(scores, labels)),
                abs(compute_report(scores, labels, threshold).min_se_pplus
                    - min_se_pplus_oracle(scores, labels, threshold)),
            )
            assert confusion_counts(scores, labels, threshold) == \
                confusion_loop(scores, labels, threshold)
        v["detail"] = f"worst oracle gap {worst:.2e} over 1000 fixtures"
        assert worst <= 1e-12


def test_criterion_5_end_to_end_learning(capsys, cohort7):
    with verdict(capsys, "criterion 5 (end-to-end learning + null control)") as v:
        config = TrainConfig(epochs=50, seed=7)
        t0 = time.perf_counter()
        _, report, _ = run_experiment(cohort7, config)
        secs = time.perf_counter() - t0

        null_spec = replace(SyntheticSpec(), class_separation=0.0, code_signal_strength=0.0)
        null_cohort = gen_synthetic(null_spec, Rng(7))
        _, null_report, _ = run_experiment(null_cohort, config)

        v["detail"] = (f"test auroc {report.auroc:.4f}, auprc {report.auprc:.4f}, "
                       f"{secs:.0f} s; null auroc {null_report.auroc:.4f}")
        assert report.auroc >= 0.95
        assert report.auprc >= 0.85
        assert secs < 600.0
        assert abs(null_report.auroc - 0.5) <= 0.05


def test_criterion_6_ablation_direction(capsys, cohort7):
    with verdict(capsys, "criterion 6 (ablation direction)") as v:
        full_scores, ablated_scores = [], []
        for seed in range(5):
            base = dict(epochs=2, patience=2, seed=seed)
            _, rep, _ = run_experiment(cohort7, TrainConfig(**base))
            full_scores.append(rep.auroc)
            # without the hypergraph stack; the similarity graph has no edge
            # at any trained zeta, so it has nothing to ablate
            _, rep, _ = run_experiment(cohort7, TrainConfig(
                **base, model=ModelConfig(hconv_layers=0)))
            ablated_scores.append(rep.auroc)
        full_mean = float(np.mean(full_scores))
        ablated_mean = float(np.mean(ablated_scores))
        pairs = ", ".join(f"{f:.4f}/{a:.4f}" for f, a in zip(full_scores, ablated_scores))
        v["detail"] = (f"mean test auroc over 5 seeds: full {full_mean:.4f} "
                       f"> hconv_layers=0 {ablated_mean:.4f}; per seed full/ablated {pairs}")
        assert ablated_mean < full_mean


def test_criterion_7_determinism_and_persistence(capsys, tmp_path):
    with verdict(capsys, "criterion 7 (determinism & persistence)") as v:
        cohort = gen_synthetic(
            SyntheticSpec(n_patients=80, n_variables=4, n_codes=6,
                          positive_fraction=0.4), Rng(17))
        config = TrainConfig(epochs=3, batch_size=16, seed=5,
                             model=ModelConfig(hidden_size=5, hconv_layers=2, phi_width=4,
                                               ffn_hidden=(5, 4)))
        first, first_report, te = run_experiment(cohort, config)
        second, second_report, _ = run_experiment(cohort, config)
        assert json.dumps(first.training_log) == json.dumps(second.training_log)
        assert first_report.to_dict() == second_report.to_dict()

        path = tmp_path / "model.hgrc"
        save_checkpoint(first, path)
        reloaded_report = evaluate(load_checkpoint(path), te)
        assert reloaded_report.to_dict() == first_report.to_dict()
        v["detail"] = ("repeated run and checkpoint round trip both "
                       "bit-identical (logs and metrics)")


def test_criterion_8_uniform_start_loss(capsys):
    with verdict(capsys, "criterion 8 (uniform start loss)") as v:
        params, batch = tiny_fixture()
        fresh = init_params(params.config, Rng(0))  # output layers start at zero
        loss, _ = forward_train(fresh, *batch)
        deviation = abs(loss - math.log(2.0))
        v["detail"] = f"initial per-patient loss off ln 2 by {deviation:.2e}"
        assert deviation <= 1e-6
