"""Self-tests of the benchmark: hooks, span accounting, metric names, inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import run as bench
from ecvr import harness
from tracing import HOOKS, Tracer, layer_metrics, outermost, self_times
from workloads import WORKLOADS, generate, write_libsvm

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Layer self times must add up to the wall time measured around the traced
# run_experiment call within this share; the gap is the root wrapper's own
# entry and exit, a few microseconds.
SUM_TOLERANCE = 0.01


def tiny(w):
    """The workload's algorithm and compressor on a shape small enough for a test."""
    return dataclasses.replace(w, N=400, d=60, density=0.1, n=4, epochs=1.0, cadence=10)


def test_every_hook_resolves():
    before = harness.run_experiment
    tracer = Tracer()
    try:
        assert tracer.install() == []
        assert harness.run_experiment is not before
    finally:
        tracer.uninstall()
    assert harness.run_experiment is before
    assert len(HOOKS) == len({(module, path) for _, module, path in HOOKS})


def test_missing_hook_is_reported_not_raised():
    tracer = Tracer()
    try:
        missing = tracer.install((("gone", "ecvr.harness", "no_such_entry_point"),))
    finally:
        tracer.uninstall()
    assert missing == ["ecvr.harness.no_such_entry_point"]


def test_generator_is_byte_identical_per_seed(tmp_path):
    w = WORKLOADS["lsvrg-topk-dense"]
    paths = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        features, labels = generate(w, seed)
        paths.append(tmp_path / f"{name}.svm")
        write_libsvm(features, labels, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_hand_built_span_tree():
    spans = [
        ["harness.run_experiment", 0.0, 10.0, -1, None],
        ["algorithms.step", 1.0, 5.0, 0, None],
        ["compressors.apply", 1.5, 3.0, 1, None],
        ["compressors.apply", 2.0, 2.5, 2, None],  # nested, e.g. inside compose
        ["compressors.apply", 3.5, 4.0, 1, None],
        ["problem.primal_value", 6.0, 7.0, 0, None],
    ]
    assert self_times(spans).tolist() == [5.0, 2.0, 1.0, 0.5, 0.5, 1.0]
    assert outermost(spans).tolist() == [True, True, True, False, True, True]
    m = layer_metrics(spans, n=1, m=1)
    assert m["compressors.calls"] == (2.0, "count")
    assert m["compressors.ms"] == (2000.0, "ms")
    assert m["harness.record_ms"] == (1000.0, "ms")
    assert m["algorithms.step_self_ms"] == (2000.0, "ms")
    assert m["harness.self_ms"] == (5000.0, "ms")
    layers = {k: v for k, (v, _) in m.items() if k.startswith("layer.")}
    assert layers == {
        "layer.dataset_self_ms": 0.0,
        "layer.problem_self_ms": 1000.0,
        "layer.compressors_self_ms": 2000.0,
        "layer.algorithms_self_ms": 2000.0,
        "layer.harness_self_ms": 5000.0,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_traced_wall(tmp_path, name):
    w = tiny(WORKLOADS[name])
    features, labels = generate(w, 0)
    data = tmp_path / "data.svm"
    write_libsvm(features, labels, data)
    config = w.run_config(str(data), 0, str(tmp_path / "t.csv"), str(tmp_path / "t.json"))
    tracer = Tracer()
    try:
        assert tracer.install() == []
        started = time.perf_counter()
        harness.run_experiment(config)
        wall_ms = (time.perf_counter() - started) * 1e3
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, w.n, w.N // w.n)
    layer_sum = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
    assert abs(layer_sum - wall_ms) <= SUM_TOLERANCE * wall_ms
    assert metrics["algorithms.step_count"][0] > 0
    assert metrics["compressors.calls"][0] >= metrics["algorithms.step_count"][0] * w.n
    assert set(metrics) | set(bench.TRACE_UNITS) == set(benchmark_names("per_layer"))


def benchmark_names(section: str) -> list[str]:
    return [entry["name"] for entry in json.loads(BENCHMARK_JSON.read_text())[section]]


def test_benchmark_json_names_match_the_code():
    assert benchmark_names("workloads") == list(WORKLOADS)
    assert benchmark_names("end_to_end") == list(bench.END_TO_END_UNITS)
    spec = json.loads(BENCHMARK_JSON.read_text())
    for entry in spec["end_to_end"]:
        assert entry["unit"] == bench.END_TO_END_UNITS[entry["name"]]


def test_trace_digest_ignores_only_wall_ms(tmp_path):
    header = "k,epoch,bits,primal_gap,dual_gap,err_norm,wall_ms\n"
    texts = (
        header + "10,0.5,100.0,0.25,,0.125,3.5\n",
        header + "10,0.5,100.0,0.25,,0.125,9.75\n",
        header + "10,0.5,100.0,0.25,,0.126,3.5\n",
    )
    digests = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{i}.csv"
        path.write_text(text)
        digests.append(bench.trace_digest(path))
    assert digests[0] == digests[1] != digests[2]


def test_check_run_rejects_bits_that_are_not_linear_in_k():
    w = tiny(WORKLOADS["lsvrg-topk-dense"])
    features, labels = generate(w, 0)
    records = [[k, k * w.n / w.N, 10.0 * k, 0.5 / k, None, float(k)] for k in (25, 50, 75, 100)]
    records[2][2] += 1.0
    run = {"steps": 100, "records": records, "x": [0.0] * w.d, "wall_s": 1.0, "peak_rss_mb": 1.0}
    with pytest.raises(bench.BenchError, match="not linear in k"):
        bench.check_run(w, run, features, labels)
