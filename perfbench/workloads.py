"""The three serving workloads, built only from the program's public API.

Each workload is an open loop in virtual time: every request arrives at
its generated ``arrival_ns`` as a clock event, and latency counts from
that due time, so the generator can never run late. ``fleet-burst``
makes every request due at once, in equal shares per model. Only the
generated ``ServeRequest`` stream reaches the program; its seed is a
benchmark argument. No workload sets deadlines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Tuple

MS = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Latency limit for ``slo_attain``, in virtual ms, and its reason.
    limit_ms: float
    limit_why: str
    #: Requests per served stream.
    requests: int
    #: Distinct streams per run; virtual metrics pool their answers.
    streams: int
    #: ``LoadgenConfig`` fields besides ``requests`` and ``seed``.
    load: Dict[str, object]
    #: Server or fleet shape, as the keyword arguments of its config.
    serving: Dict[str, object]
    kind: str   # "server" | "vault-server" | "fleet"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady",
        why=("the paper's deployment: one app replaying one recording on "
             "fresh camera frames; warm workers, so the per-action replay "
             "path does the work"),
        limit_ms=33.0, limit_why="a 30 fps frame budget",
        # Frames arrive as from a 30 fps camera. A replay takes 7.9 ms,
        # so about one answer in 25 waits for a worker and the tail
        # reads the replay itself. At 8 ms arrivals about one in five
        # waited and the p95 of 600 answers rested on a few long waits:
        # the spread of virt_tail_ms over ten seeds went up to 0.3 in
        # resampling; at 6 ms the median too moved by 0.11.
        requests=150, streams=4,
        load={"mix": (("mali", "mobilenet"),),
              "mean_interarrival_ns": 33_333_333, "deadline_ns": 0},
        serving={"families": ("mali", "mali")},
        kind="server"),
    Workload(
        name="churn",
        why=("a device switching between eight models served from a "
             "vault; most dispatches restage a different recording"),
        limit_ms=33.0,
        limit_why="a 30 fps frame budget, model switch included",
        # mali/dense-serve is left out: its 60-120 ms cold replays made
        # the tail depend on how many of them queued behind each other,
        # which moved virt_tail_ms by half between seeds. Arrivals are
        # 12 ms apart on average: at 8 ms about 94% of answers took
        # one cold restage (8-8.5 ms) and the rest queued, so the p95
        # tail sat on that knee and moved between 8.5 and 11 ms from
        # seed to seed; at 12 ms it reads the model-switch cost.
        requests=300, streams=2,
        load={"mix": (("mali", "kws"), ("mali", "mnist"),
                      ("mali", "mobilenet"), ("mali", "squeezenet"),
                      ("v3d", "mnist"), ("v3d", "kws"),
                      ("adreno", "mnist"), ("adreno", "kws")),
              "mean_interarrival_ns": 12 * MS, "deadline_ns": 0},
        serving={"families": ("mali", "mali", "v3d", "adreno"),
                 "max_batch": 4, "mega_batch": False},
        kind="vault-server"),
    Workload(
        name="fleet-burst",
        why=("a 3-node autoscaled fleet hit by flash crowds of requests "
             "with faults; every pool boots to its maximum inside the "
             "timed window and fused mega-batches answer most requests"),
        limit_ms=100.0,
        limit_why="a 10 Hz interactive budget the burst backlog must meet",
        # A stream is one flash crowd: 50 requests for each pair of the
        # mix, all due at t=0, so the latency percentiles are drain
        # times of one backlog and every pool scales to its maximum
        # exactly once (12 boots). With the loadgen spike shape, boots
        # per stream varied from 3 to 10; each costs the host time of
        # about 20 requests, so host_rps moved by 40% between seeds.
        # With pairs drawn at random, the crowd's share of mali work
        # moved the drain time, and with 5% or 10% faults the p95 sat
        # on the knee between drained and faulted answers: the spread
        # of virt_tail_ms over ten seeds reached 0.20. Equal shares and
        # 2% faults (about 12 a run) bring the spreads of p50 and p95
        # to about 0.01 and 0.05. dense-serve is left out as in churn.
        requests=200, streams=3,
        load={"mix": (("mali", "mnist"), ("mali", "kws"),
                      ("v3d", "mnist"), ("v3d", "kws")),
              "mean_interarrival_ns": 0, "deadline_ns": 0,
              "fault_rate": 0.02},
        serving={"mega_batch": True},
        kind="fleet"),
)}


def build(workload: Workload, seed: int, workdir: str
          ) -> Tuple[object, list, object]:
    """Set up one run: record the zoo models, pack the vault (under
    ``workdir``) if the workload serves from one, and build the server
    or fleet, booting its Machines. Returns ``(engine, requests,
    store)``."""
    from repro.serve import (LoadgenConfig, RecordingStore,
                             ReplayServer, ServerConfig,
                             VaultRecordingStore, generate_requests)

    mix = workload.load["mix"]
    if workload.kind == "fleet":
        requests = _crowd(workload, seed)
    else:
        requests = generate_requests(LoadgenConfig(
            requests=workload.requests, seed=seed, **workload.load))
    if workload.kind == "vault-server":
        from repro.store.vault import Vault
        store = VaultRecordingStore.pack_zoo(
            Vault(os.path.join(workdir, "vault")), mix)
    else:
        store = RecordingStore.from_zoo(mix)
    if workload.kind == "fleet":
        from repro.fleet import Fleet, FleetConfig
        return Fleet(store, FleetConfig(**workload.serving)), requests, store
    return ReplayServer(store, ServerConfig(**workload.serving)), \
        requests, store


def _crowd(workload: Workload, seed: int) -> list:
    """A flash crowd with an equal share of requests for each pair of
    the mix: one generated stream per pair, interleaved round-robin and
    renumbered. Inputs and faults still come from the generator."""
    from repro.serve import LoadgenConfig, generate_requests

    mix = workload.load["mix"]
    parts = [generate_requests(LoadgenConfig(
        requests=workload.requests // len(mix), seed=seed * len(mix) + k,
        **dict(workload.load, mix=(pair,))))
        for k, pair in enumerate(mix)]
    return [replace(request, rid=rid) for rid, request in
            enumerate(r for group in zip(*parts) for r in group)]
