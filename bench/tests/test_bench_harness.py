"""Tests of the benchmark harness itself (not of kgec).

Run from the repository root: ``python3 -m pytest -q bench/tests``
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from kgec import data, evaluation, model  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    gen.write_inputs(workload, 5, tmp_path / "a")
    gen.write_inputs(workload, 5, tmp_path / "b")
    gen.write_inputs(workload, 6, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert {"train.txt", "valid.txt", "test.txt", "types.tsv", "checkpoint.kgec"} <= set(first)
    assert first == _tree(tmp_path / "b")
    assert first["train.txt"] != _tree(tmp_path / "c")["train.txt"]


def test_wn18_shape():
    train, valid, test = gen.wn18_triples(3)
    assert (len(train), len(valid), len(test)) == gen.WN18_SPLITS
    rows = np.concatenate([train, valid, test])
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert np.array_equal(np.unique(train[:, [0, 2]]), np.arange(gen.WN18_ENTITIES))
    assert set(np.unique(rows[:, 1])) == set(range(2 * gen.WN18_PAIRS))
    degrees = np.bincount(rows[:, [0, 2]].ravel())
    assert degrees.max() > 20 * np.median(degrees)  # skewed


def test_self_times_of_nested_spans_add_up_to_the_root():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_self_times_count_overlapping_children_once_and_clip_them():
    # Two overlapping children [1, 5] and [3, 7], one running past the parent.
    start = np.array([0.0, 1.0, 3.0, 8.0])
    end = np.array([10.0, 5.0, 7.0, 12.0])
    parent = np.array([-1, 0, 0, 0])
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_tracer_patches_restores_and_reports_absent_targets(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.work = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    original = fake.work
    tracer = Tracer()
    seen = []
    assert tracer.patch("fake_layer:work", "fake.work", lambda c, a, k, r: seen.append(r))
    assert not tracer.patch("fake_layer:gone", "fake.gone")
    assert not tracer.patch("fake_missing_module:work", "fake.missing")
    with tracer.span("outer"):
        assert fake.work(1) == 2
        with tracer.paused():
            assert fake.work is original
            fake.work(5)
    tracer.restore()
    assert fake.work is original
    summary = tracer.summary()
    assert summary["fake.work"]["calls"] == 1
    assert seen == [2]
    assert tracer.absent == ["fake.gone", "fake.missing"]
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(summary["outer"]["total_s"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.E2E
    assert layers == run.LAYERS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert e2e["setup_s"] == ("s", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u, _ in list(e2e.values()) + list(layers.values()))
    assert not set(run.REPORTED) & set(e2e)


def test_every_traced_span_feeds_a_layer_metric():
    spans = {name for _, name, _ in run.TARGETS}
    tracer = Tracer()
    bench = types.SimpleNamespace(tracer=tracer)
    summary = {name: {"calls": 1, "total_s": 1.0, "self_s": 1.0} for name in spans}
    metrics = run.Bench.layer_metrics(bench, summary, 0.0, 1.0)
    assert set(metrics) == set(run.LAYERS)


def test_oracle_rank_agrees_with_filtered_rank():
    rng = np.random.default_rng(0)
    n, m, d = 60, 4, 8
    params = model.init_params(n, m, d, seed=1)
    rows = np.stack([rng.integers(0, n, 300), rng.integers(0, m, 300), rng.integers(0, n, 300)], axis=1)
    known = data.KnownIndex(data.Triple(*map(int, r)) for r in rows)
    for triple in rows[:40]:
        triple = data.Triple(*map(int, triple))
        for side in ("head", "tail"):
            lo, hi = run.oracle_rank(params, triple, side, rows)
            assert lo == hi == evaluation.filtered_rank(params, triple, side, known)


def test_percentile_report_names_the_highest_percentile_with_ten_samples_above():
    report = run.percentile_report(np.arange(1000.0))
    assert report["n"] == 1000
    assert report["top_pct"] == 99.0
    assert report["p50"] == pytest.approx(499.5)
    assert run.percentile_report(np.arange(10.0))["top_pct"] == 50.0
