"""One repetition of one workload, in a process of its own.

``LOAD_CACHE`` and the recording cache are process-wide, so a second
repetition in the same process would load warm (different virtual
latencies) and set up in almost no time. ``run.py`` therefore starts
this script once per repetition; it prints one JSON object with the
repetition's raw samples on its last line.

    python3 perfbench/rep.py --workload steady --stream-seed 17 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, build  # noqa: E402

#: Loop iterations in one speed probe, and the probe's nominal host CPU
#: time: a probe that takes ``PROBE_REF_NS`` leaves a reading unscaled.
PROBE_LOOPS = 2000
PROBE_REF_NS = 150_000
#: Host CPU time between probes.
PROBE_EVERY_S = 0.01


class SpeedProbe:
    """Samples how fast this host runs Python while the workload runs.

    On a shared host, speed drifts by tens of percent over seconds and
    between runs (other tenants share the cores), and process CPU time
    drifts with it. Every ``PROBE_EVERY_S`` of process CPU a profiling-timer
    signal runs a fixed pure-Python loop and records its CPU time. A
    phase's CPU time, less the probes' own, scaled by ``PROBE_REF_NS``
    over the phase's mean probe time, is what the phase would cost on a
    host where the probe takes ``PROBE_REF_NS``.
    """

    def __init__(self) -> None:
        self.samples = []
        self.spent_ns = 0

    def _tick(self, _signum, _frame) -> None:
        # With the profiling timer armed, the process CPU clock moves
        # in scheduler ticks, so the probe reads the wall clock: the
        # process is on a core while the handler runs.
        start = time.perf_counter_ns()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i & 7
        mid = time.perf_counter_ns()
        self.samples.append(mid - start)
        self.spent_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        return time.process_time_ns(), len(self.samples), self.spent_ns

    def scaled_s(self, since, until) -> tuple:
        """(raw CPU s, probe-scaled CPU s) between two marks."""
        (t0, n0, p0), (t1, n1, p1) = since, until
        raw = (t1 - t0) - (p1 - p0)
        probes = self.samples[n0:n1]
        if not probes:
            return raw / 1e9, raw / 1e9
        mean = sum(probes) / len(probes)
        return raw / 1e9, raw * PROBE_REF_NS / mean / 1e9


def _pair_spans(events, name: str):
    """Per-request summed duration of the rtrace spans called ``name``."""
    opened, totals = {}, {}
    for event in events:
        if event.get("name") != name:
            continue
        key = (event["rid"], event["sid"])
        if event["ev"] == "begin":
            opened[key] = event["t_ns"]
        elif event["ev"] == "end" and key in opened:
            rid = event["rid"]
            totals[rid] = totals.get(rid, 0) + event["t_ns"] - opened.pop(key)
    return totals


def _layer_report(report, workload) -> dict:
    """Per-layer figures the program already reports about itself."""
    from repro.core.replayer import LOAD_CACHE
    from repro.gpu.counters import aggregate

    fleet = workload.kind == "fleet"
    nodes = report.node_reports if fleet else [report]
    counters = {}
    for node in nodes:
        for name, value in node.snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    tape = aggregate([node.gpu_counters for node in nodes])["totals"]
    warm = counters.get("serve.cache.warm", 0)
    cold = counters.get("serve.cache.cold", 0)
    batches = counters.get("serve.batches", 0)
    answered = [r for r in report.responses if r.status != "shed"]
    lookups = LOAD_CACHE.hits + LOAD_CACHE.misses
    tlb = tape.get("tlb_hits", 0) + tape.get("tlb_misses", 0)
    out = {
        "gpu.tlb.hit_ratio": tape.get("tlb_hits", 0) / tlb if tlb else 0.0,
        "gpu.instructions": tape.get("instructions", 0),
        "gpu.flops": tape.get("flops", 0),
        "gpu.bytes_touched": tape.get("bytes_touched", 0),
        "core.load.cache_hit_ratio":
            LOAD_CACHE.hits / lookups if lookups else 0.0,
        "serve.stage.warm_ratio": warm / (warm + cold) if warm + cold
        else 0.0,
        "serve.batch.mean_size": len(answered) / batches if batches
        else 0.0,
        "serve.retries": sum(r.retries for r in report.responses),
        "serve.degraded_share": sum(r.status == "degraded"
                                    for r in report.responses)
        / report.submitted,
    }
    if fleet:
        fc = report.snapshot["counters"]
        hops = fc.get("fleet.router.hops", 0)
        out.update({
            "fleet.affinity_ratio":
                fc.get("fleet.router.affinity_hits", 0) / hops if hops
                else 0.0,
            "fleet.autoscale.up": fc.get("fleet.autoscale.up", 0),
            "fleet.workers_peak":
                report.snapshot["gauges"].get("fleet.workers.peak", 0),
        })
    return out


def run(workload_name: str, stream_seed: int, traced: bool,
        spans_out: str = "") -> dict:
    workload = WORKLOADS[workload_name]
    # Once the profiling timer is armed, the process CPU clock only
    # advances in scheduler ticks, too coarse for spans: traced runs go
    # unprobed and report raw CPU time.
    probe = SpeedProbe()
    if not traced:
        probe.start()
    at_start = probe.mark()
    tracer = None
    if traced:
        from perfbench.spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if tracer is not None:
            engine, requests, store = tracer.root(
                "bench.setup", build, workload, stream_seed, workdir)
        else:
            engine, requests, store = build(workload, stream_seed, workdir)
        at_serve = probe.mark()
        report = engine.serve(requests)
        at_end = probe.mark()
        probe.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from repro.serve import verify_report
        if tracer is not None:
            mismatches = tracer.root("bench.verify", verify_report,
                                     report, store)
        else:
            mismatches = verify_report(report, store)
        engine.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = probe.scaled_s(at_start, at_serve)
    serve = probe.scaled_s(at_serve, at_end)
    summary = json.dumps(report.summary(), sort_keys=True, default=str)
    rids = [r.rid for r in report.responses]
    answered = [r for r in report.responses if r.status != "shed"]
    queue = _pair_spans(report.trace_events, "queue")
    service = _pair_spans(report.trace_events, "attempt")
    result = {
        "workload": workload_name,
        "stream_seed": stream_seed,
        "traced": traced,
        "digest": hashlib.sha256(summary.encode()).hexdigest(),
        "setup_raw_s": setup[0], "setup_s": setup[1],
        "serve_raw_s": serve[0], "serve_s": serve[1],
        "probes": len(probe.samples),
        "rss_mb": rss_mb,
        "submitted": report.submitted,
        "answered": len(answered),
        "shed": len(report.responses) - len(answered),
        "lost": len(report.lost),
        "duplicates": len(rids) - len(set(rids))
        + len(getattr(report, "duplicates", [])),
        "mismatches": mismatches[:20],
        "mismatched": len(mismatches),
        "latency_ns": [r.latency_ns for r in answered],
        "queue_ns": [queue.get(r.rid, 0) for r in answered],
        "service_ns": [service[r.rid] for r in answered
                       if r.rid in service],
        "layers": _layer_report(report, workload),
    }
    if tracer is not None:
        result["spans"] = {
            "self_ns": tracer.self_ns,
            "counts": tracer.counts,
            "root_ns": tracer.root_ns,
            "count": len(tracer.span_name),
        }
        if spans_out:
            tracer.dump(spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--stream-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    result = run(args.workload, args.stream_seed, bool(args.trace),
                 args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
