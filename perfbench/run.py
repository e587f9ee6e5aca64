"""Serving benchmark: host and virtual clocks end to end, host time per layer.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh process (``perfbench/rep.py``): it sets
up the workload (records the zoo models, packs the vault, boots the
server or fleet), serves one seeded request stream, and verifies every
answer against the CPU reference outside the timed window.

With ``--trace 0`` the run serves the workload's distinct streams once
each, then repeats them while ``--seconds`` allows, and reports the
end-to-end metrics: ``host_rps`` is all answered requests over all
``serve()`` CPU time, ``setup_s`` and ``peak_rss_mb`` are medians over
repetitions, and the virtual metrics are exact order statistics over
the pooled answers of the distinct streams (``virt_tail_ms`` is the
highest of p50/p90/p95/p99/... with ten answers above it; see
``stats.tail``). Host CPU times are scaled by a speed probe (see
``rep.SpeedProbe``).

With ``--trace 1`` it serves the first stream untraced and then traced,
and reports the per-layer metrics of the traced run; the span log goes
to ``.perfbench/spans-<workload>-<seed>.npz``.

A repetition of the same stream must produce the same summary digest,
traced or not, and so must any earlier run of the same source tree and
seed (kept in ``.perfbench/digests.json``). A lost, duplicated or wrong
answer, or a digest that differs, fails the run with exit code 1. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import median, tail  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Wall-clock budget of one run: a repetition still running then is
#: killed and fails the run, which must end within 180 s.
DEADLINE_S = 170

#: End-to-end metrics: name -> (unit, clock).
END_TO_END = {
    "setup_s": ("s", "host CPU"),
    "host_rps": ("req/s", "host CPU"),
    "peak_rss_mb": ("MB", "host"),
    "virt_p50_ms": ("ms", "virtual"),
    "virt_tail_ms": ("ms", "virtual"),
    "slo_attain": ("ratio", "virtual"),
    "answered_share": ("ratio", "none"),
}

#: Per-layer metrics from the traced run: name -> unit. ``*.host_s``
#: is host CPU self time; the rest are exact counts and ratios.
PER_LAYER = {
    "soc.boot.calls": "count", "soc.boot.serve_calls": "count",
    "soc.boot.host_s": "s",
    "soc.alloc.pages": "count", "soc.alloc.host_s": "s",
    "soc.memory.calls": "count", "soc.memory.bytes": "bytes",
    "soc.memory.host_s": "s",
    "soc.mmio.calls": "count", "soc.mmio.host_s": "s",
    "soc.clock.events": "count", "soc.clock.host_s": "s",
    "gpu.mmu.translate_calls": "count", "gpu.mmu.map_calls": "count",
    "gpu.mmu.unmap_calls": "count", "gpu.mmu.host_s": "s",
    "gpu.tlb.hit_ratio": "ratio",
    "gpu.shader.programs": "count", "gpu.shader.host_s": "s",
    "gpu.instructions": "count", "gpu.flops": "flop",
    "gpu.bytes_touched": "bytes",
    "core.load.calls": "count", "core.load.host_s": "s",
    "core.load.cache_hit_ratio": "ratio",
    "core.verify.calls": "count", "core.verify.host_s": "s",
    "core.bind.calls": "count", "core.bind.host_s": "s",
    "core.reset.calls": "count", "core.reset.host_s": "s",
    "core.replay.calls": "count", "core.replay.reference_calls": "count",
    "core.replay.host_s": "s",
    "core.mega.calls": "count", "core.mega.members": "count",
    "core.mega.host_s": "s",
    "core.upload.bytes": "bytes", "core.upload.skip_ratio": "ratio",
    "serve.host_s": "s", "serve.stage.warm_ratio": "ratio",
    "serve.batch.mean_size": "count", "serve.queue_ms_p50": "ms",
    "serve.queue_ms_tail": "ms", "serve.service_ms_p50": "ms",
    "serve.retries": "count", "serve.degraded_share": "ratio",
    "fleet.host_s": "s", "fleet.route.calls": "count",
    "fleet.route.host_s": "s", "fleet.autoscale.host_s": "s",
    "fleet.affinity_ratio": "ratio", "fleet.autoscale.up": "count",
    "fleet.workers_peak": "count",
    "store.pack.calls": "count", "store.pack.host_s": "s",
    "store.fetch.calls": "count", "store.fetch.host_s": "s",
    "obs.rtrace.events": "count", "obs.rtrace.host_s": "s",
    "obs.flight.records": "count", "obs.flight.host_s": "s",
    "obs.counters.host_s": "s",
    "obs.timeseries.scrapes": "count", "obs.timeseries.host_s": "s",
    "stack.record.calls": "count", "stack.record.host_s": "s",
    "bench.setup.host_s": "s", "bench.verify.host_s": "s",
    "bench.trace_total_s": "s", "bench.trace_overhead": "ratio",
}

#: Span names whose self time is not reported as ``<name>.host_s``.
SPAN_METRIC = {"gpu.shader": "gpu.shader.host_s", "serve": "serve.host_s",
               "fleet": "fleet.host_s"}


def layer_clock(name: str, unit: str) -> str:
    if unit == "s" or name == "bench.trace_overhead":
        return "host CPU"
    return "virtual" if unit == "ms" else "exact"


class BenchFailure(Exception):
    """The program gave a wrong, lost or non-deterministic answer."""


def stream_seeds(seed: int, count: int):
    """The workload's distinct request-stream seeds for one run seed."""
    return [seed * 100 + k for k in range(count)]


def tree_hash() -> str:
    """Hash of the program and benchmark sources (digest ledger key)."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                             recursive=True)
                   + glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def run_rep(workload: str, stream_seed: int, traced: bool,
            spans_out: str = "", timeout: float = DEADLINE_S) -> dict:
    env = dict(os.environ)
    # One BLAS thread: helper threads would add scheduler noise to the
    # process CPU clock without serving any request faster.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--stream-seed", str(stream_seed),
           "--trace", str(int(traced))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchFailure(f"repetition {workload}/{stream_seed} exited "
                           f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def check_rep(rep: dict) -> None:
    problems = []
    if rep["mismatched"]:
        problems.append(f"{rep['mismatched']} answers differ from the CPU "
                        f"reference: {rep['mismatches'][:3]}")
    if rep["lost"]:
        problems.append(f"{rep['lost']} requests lost")
    if rep["duplicates"]:
        problems.append(f"{rep['duplicates']} requests answered twice")
    if problems:
        raise BenchFailure(f"{rep['workload']} stream {rep['stream_seed']}: "
                           + "; ".join(problems))


def check_digests(reps, workload: str) -> None:
    """Same stream, same summary: within this run and against every
    earlier run of this source tree."""
    seen = {}
    for rep in reps:
        first = seen.setdefault(rep["stream_seed"], rep["digest"])
        if first != rep["digest"]:
            raise BenchFailure(
                f"{workload} stream {rep['stream_seed']}: summary digest "
                f"{rep['digest'][:16]} != {first[:16]} on a repeat")
    path = os.path.join(ROOT, ".perfbench", "digests.json")
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except (OSError, ValueError):
        ledger = {}
    tree = ledger.setdefault(tree_hash(), {})
    for stream, digest in seen.items():
        key = f"{workload}/{stream}"
        if tree.setdefault(key, digest) != digest:
            raise BenchFailure(
                f"{key}: summary digest {digest[:16]} != "
                f"{tree[key][:16]} from an earlier run of this tree")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def end_to_end(reps, workload):
    """End-to-end metrics and notes on how they were taken."""
    distinct = {}
    for rep in reps:
        distinct.setdefault(rep["stream_seed"], rep)
    streams = list(distinct.values())
    latencies = [ns / 1e6 for rep in streams for ns in rep["latency_ns"]]
    submitted = sum(rep["submitted"] for rep in streams)
    tail_ms, tail_pct = tail(latencies)
    within = sum(ms <= workload.limit_ms for ms in latencies)
    return {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "host_rps": sum(rep["answered"] for rep in reps)
        / sum(rep["serve_s"] for rep in reps),
        "peak_rss_mb": median([rep["rss_mb"] for rep in reps]),
        "virt_p50_ms": median(latencies),
        "virt_tail_ms": tail_ms,
        "slo_attain": within / submitted,
        "answered_share": len(latencies) / submitted,
    }, {"tail_percentile": tail_pct, "answered": len(latencies),
        "submitted": submitted, "streams": len(streams),
        "repetitions": len(reps)}


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from one stream served untraced, then traced:
    counts and self times from the traced repetition, and the tracing
    overhead from the pair."""
    spans = traced["spans"]
    total = sum(spans["self_ns"].values())
    if total != spans["root_ns"]:
        raise BenchFailure(f"layer self times sum to {total} ns, "
                           f"traced total is {spans['root_ns']}")
    out = {name: 0.0 for name in PER_LAYER}
    for name, value in spans["counts"].items():
        if name in out:
            out[name] = value
    out.update(traced["layers"])
    for name, ns in spans["self_ns"].items():
        out[SPAN_METRIC.get(name, name + ".host_s")] = ns / 1e9
    skipped = spans["counts"].get("core.upload.skipped_bytes", 0)
    moved = out["core.upload.bytes"] + skipped
    out["core.upload.skip_ratio"] = skipped / moved if moved else 0.0
    queue = [ns / 1e6 for ns in traced["queue_ns"]]
    out["serve.queue_ms_p50"] = median(queue)
    try:
        out["serve.queue_ms_tail"] = tail(queue)[0]
    except ValueError:  # too few requests waited at all
        out["serve.queue_ms_tail"] = 0.0
    out["serve.service_ms_p50"] = median(
        [ns / 1e6 for ns in traced["service_ns"]])
    out["bench.trace_total_s"] = spans["root_ns"] / 1e9
    # Traced runs go unprobed, so both sides use raw process CPU time.
    out["bench.trace_overhead"] = (traced["serve_raw_s"]
                                   / untraced["serve_raw_s"] - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  {workload.streams} streams of {workload.requests} requests, "
          f"load {json.dumps(workload.load)}")
    print(f"  serving {json.dumps(workload.serving)}; "
          f"latency limit {workload.limit_ms} ms ({workload.limit_why})")

    seeds = stream_seeds(args.seed, workload.streams)
    start = time.monotonic()
    reps = []

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    def another() -> bool:
        """Every distinct stream once, then repeats while they fit."""
        if len(reps) < len(seeds):
            return True
        mean = statistics.mean(r["wall_s"] for r in reps)
        return time.monotonic() - start + mean <= min(
            args.seconds, DEADLINE_S - mean)

    try:
        if args.trace:
            spans_out = os.path.join(
                ROOT, ".perfbench",
                f"spans-{workload.name}-{args.seed}.npz")
            reps.append(run_rep(workload.name, seeds[0], False,
                                timeout=remaining()))
            reps.append(run_rep(workload.name, seeds[0], True, spans_out,
                                timeout=remaining()))
        else:
            while another():
                reps.append(run_rep(workload.name,
                                    seeds[len(reps) % len(seeds)], False,
                                    timeout=remaining()))
        for rep in reps:
            check_rep(rep)
        check_digests(reps, workload.name)
        if args.trace:
            values = per_layer(*reps)
            units = {name: (unit, layer_clock(name, unit))
                     for name, unit in PER_LAYER.items()}
            info = {"spans": spans_out}
        else:
            values, info = end_to_end(reps, workload)
            units = END_TO_END
    except (BenchFailure, subprocess.TimeoutExpired) as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1

    result_path = os.path.join(
        ROOT, ".perfbench",
        f"result-{workload.name}-{args.seed}-{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump({"values": values, "info": info, "repetitions": [
            {k: v for k, v in rep.items()
             if k not in ("latency_ns", "queue_ns", "service_ns")}
            for rep in reps]}, handle, indent=1)
    for name, value in values.items():
        unit, clock = units[name]
        print(f"  {name:28s} {value:14.6g} {unit:6s} [{clock}]")
    print("  " + ", ".join(f"{k}={v}" for k, v in info.items()))
    attempted = sum(rep["submitted"] for rep in reps)
    failed = sum(rep["shed"] + rep["lost"] + rep["mismatched"]
                 for rep in reps)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
