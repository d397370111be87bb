"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace, "--spans-out", str(spans_file))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        # a renamed layer function or a failing shape probe shows as a warning
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        assert details["warnings"] == [] and details["problems"] == []
    values = {k: v["value"] for k, v in result["metrics"].items()}
    silent = [k for k, v in values.items()
              if v <= 0 and (k.endswith(("_calls", "_per_step")) or "gflop" in k
                             or k.startswith("hypergraph.") or k.endswith("_ms"))]
    assert silent == []

    # every span of the traced run lies inside its parent
    for phase in json.loads(spans_file.read_text()):
        spans = phase["spans"]
        assert spans
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench(tmp_path, "train-b32", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_layer_function_reads_as_zero_count():
    tracer = tracing.Tracer("test", full=True)
    layers = tracing.LAYERS[:-2] + (("hgrc.train", "no_such_adam", "numeric.adam", None),)
    hgrc_src = str(ROOT / "src")
    if hgrc_src not in sys.path:
        sys.path.insert(0, hgrc_src)
    with tracing.instrument(tracer, layers):
        with tracer.span(tracing.STEP):
            pass
    values, calls = tracing.layer_metrics(tracer, tracing.STEP)
    assert values["numeric.adam_calls_per_step"] == 0.0
    assert calls["numeric.adam_ms_per_step"] == 0
    assert any("no_such_adam" in w for w in tracer.warnings)
    assert any("numeric.adam" in w and "never recorded" in w for w in tracer.warnings)


def test_gru_operation_count_follows_array_shapes():
    class Shaped:
        def __init__(self, *shape):
            self.shape = shape

    n, m, t, d = 32, 16, 48, 59
    fwd = tracing._gru_fwd((Shaped(n, m, t),), (Shaped(n, d), None))["flop"]
    bwd = tracing._gru_bwd((Shaped(n, d),), (None, Shaped(n, m, t)))["flop"]
    assert fwd == 2 * n * t * 3 * d * (m + d)
    assert bwd == 2 * fwd


def test_reference_speed_scales_stretches_and_skips_samples():
    sampler = speed.SpeedSampler()
    k = 2 * speed.REFERENCE_S  # the machine runs at half the reference speed
    sampler.samples = [(0.0, 0.1, k), (1.0, 1.1, k), (2.0, 2.1, k)]
    # 0.9 s of stretch in [0.1, 1.0] and 0.5 s in [1.1, 1.6]; the sample between is left out
    assert sampler.at_reference_speed(0.1, 1.6) == pytest.approx(1.4 / 2)
    assert sampler.at_reference_speed(0.5, 0.7) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sampler.at_reference_speed(1.5, 2.5)


def test_periodic_sampling_restores_the_alarm_handler():
    sampler = speed.SpeedSampler()
    before = signal.getsignal(signal.SIGALRM)
    with sampler.periodic():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 4
