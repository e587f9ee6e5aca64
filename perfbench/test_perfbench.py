"""The benchmark's own checks. They run whole workloads (a few minutes):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run  # noqa: E402
from perfbench.stats import (TAIL_BEYOND, TAIL_LADDER, median,  # noqa: E402
                             tail)


def _reference_tail(values, beyond):
    """Highest ladder percentile, by nearest rank on the sorted list,
    with at least ``beyond`` samples strictly above it."""
    ordered = sorted(values)
    n = len(ordered)
    found = None
    for pct in TAIL_LADDER:
        # Smallest sample with at least pct percent at or below it.
        value = next(v for v in ordered
                     if 100 * sum(w <= v for w in ordered) >= pct * n)
        if sum(v > value for v in ordered) >= beyond:
            found = (value, pct)
    if found is None:
        raise ValueError("no tail")
    return found


@pytest.mark.parametrize("seed", range(40))
def test_percentiles_match_sorted_reference(seed):
    rng = random.Random(seed)
    n = rng.randrange(2 * TAIL_BEYOND - 1, 2500)
    # Few distinct values force ties at the cut on some seeds.
    spread = rng.choice((3, 20, 10 ** 6))
    values = [rng.randrange(spread) for _ in range(n)]
    try:
        want = _reference_tail(values, TAIL_BEYOND)
    except ValueError:
        with pytest.raises(ValueError):
            tail(values)
    else:
        value, percentile = tail(values)
        assert (value, percentile) == want
        assert sum(v > value for v in values) >= TAIL_BEYOND
    ordered = sorted(values)
    mid = n // 2
    want = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    assert median(values) == want


def test_tail_percentile_follows_sample_count():
    """600 samples (one run's pool) report p95; 1000 or more report p99."""
    assert tail(list(range(600)))[1] == 95.0
    assert tail(list(range(999)))[1] == 95.0
    assert tail(list(range(1000))) == (989, 99.0)


def test_tail_needs_enough_samples():
    with pytest.raises(ValueError):
        tail(list(range(2 * TAIL_BEYOND - 1)))
    with pytest.raises(ValueError):
        tail([5] * 50)


# -- whole workloads ---------------------------------------------------------

#: Each per-layer metric, and the workload on which it must be non-zero.
SHOULD_MOVE = {
    "steady": ["soc.boot.calls", "soc.boot.host_s", "soc.mmio.calls",
               "soc.mmio.host_s", "soc.clock.events", "soc.clock.host_s",
               "gpu.shader.programs", "gpu.shader.host_s",
               "gpu.instructions", "gpu.flops", "gpu.bytes_touched",
               "core.replay.calls", "core.replay.host_s",
               "core.upload.bytes", "core.upload.skip_ratio",
               "obs.rtrace.events", "obs.rtrace.host_s",
               "obs.flight.records", "obs.flight.host_s",
               "obs.counters.host_s", "obs.timeseries.scrapes",
               "obs.timeseries.host_s", "bench.verify.host_s",
               "bench.trace_overhead", "bench.trace_total_s"],
    "churn": ["soc.alloc.pages", "soc.alloc.host_s", "soc.memory.calls",
              "soc.memory.bytes", "soc.memory.host_s",
              "gpu.mmu.translate_calls", "gpu.mmu.map_calls",
              "gpu.mmu.unmap_calls", "gpu.mmu.host_s", "gpu.tlb.hit_ratio",
              "core.load.calls", "core.load.host_s",
              "core.load.cache_hit_ratio", "core.verify.calls",
              "core.verify.host_s", "core.bind.calls", "core.bind.host_s",
              "core.reset.calls", "core.reset.host_s",
              "serve.host_s", "serve.stage.warm_ratio",
              "serve.batch.mean_size", "serve.service_ms_p50",
              "store.pack.calls", "store.pack.host_s", "store.fetch.calls",
              "store.fetch.host_s", "stack.record.calls",
              "stack.record.host_s", "bench.setup.host_s"],
    "fleet-burst": ["soc.boot.serve_calls", "core.replay.reference_calls",
                    "core.mega.calls", "core.mega.members",
                    "core.mega.host_s", "serve.queue_ms_p50",
                    "serve.queue_ms_tail", "serve.retries",
                    "serve.degraded_share", "fleet.host_s",
                    "fleet.route.calls", "fleet.route.host_s",
                    "fleet.autoscale.host_s", "fleet.affinity_ratio",
                    "fleet.autoscale.up", "fleet.workers_peak"],
}

ONLY_ON_FLEET = ["soc.boot.serve_calls", "core.mega.calls",
                 "core.mega.members", "core.mega.host_s"] + [
    name for name in run.PER_LAYER if name.startswith("fleet.")]


@pytest.fixture(scope="module")
def traced_pairs():
    """One (untraced, traced) pair of repetitions per workload."""
    return {name: (run.run_rep(name, 100, False), run.run_rep(name, 100, True))
            for name in SHOULD_MOVE}


@pytest.fixture(scope="module")
def layers(traced_pairs):
    return {name: run.per_layer(*pair)
            for name, pair in traced_pairs.items()}


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _clock) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_layer_metric_is_listed_once():
    listed = [m for metrics in SHOULD_MOVE.values() for m in metrics]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(run.PER_LAYER)


def test_fresh_processes_repeat_exactly(traced_pairs):
    """A second run in a fresh process sets up from scratch (records,
    boots) and reproduces the first run's summary exactly."""
    again = run.run_rep("steady", 100, True)
    first_untraced, first = traced_pairs["steady"]
    assert again["digest"] == first["digest"] == first_untraced["digest"]
    assert again["spans"]["counts"]["stack.record.calls"] > 0
    assert again["spans"]["counts"]["soc.boot.calls"] > 0


@pytest.mark.parametrize("workload", sorted(SHOULD_MOVE))
def test_layer_metrics_fire(layers, workload):
    values = layers[workload]
    assert [m for m in SHOULD_MOVE[workload] if not values[m] > 0] == []


def test_predicted_contrasts(layers):
    steady, churn = layers["steady"], layers["churn"]
    assert churn["core.bind.calls"] >= 10 * steady["core.bind.calls"]
    assert churn["soc.alloc.pages"] >= 10 * steady["soc.alloc.pages"]
    for name in ONLY_ON_FLEET:
        assert layers["fleet-burst"][name] > 0, name
        assert steady[name] == churn[name] == 0, name


def test_self_times_sum_to_traced_total(traced_pairs):
    for _untraced, traced in traced_pairs.values():
        spans = traced["spans"]
        assert sum(spans["self_ns"].values()) == spans["root_ns"]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
