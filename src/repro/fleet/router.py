"""Digest-affinity routing with power-of-two-choices fallback.

The router keys on a request's *content key* -- the (family, model)
pair plus its poison marker, which identifies the recording digest a
node would have to stage without forcing a vault fetch at routing
time. Traffic for content a node has already served lands on that node
again (its workers' load caches and its vault are warm); when every
warm node is at or over its queue threshold the router falls back to
power-of-two-choices over all candidates, which keeps the spill
load-balanced without global state.

Every decision is appended to :attr:`DigestRouter.decisions` with the
pre-route in-flight snapshot and the warm set, so the affinity
invariant ("never route to a cold node while a warm one is under its
threshold") is checkable from the log alone -- the property tests and
the determinism tests both key on this.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.obs.session import NULL_OBS


class DigestRouter:
    """Routes requests to nodes; one instance per fleet."""

    def __init__(self, nodes: int, queue_threshold: int = 8,
                 seed: int = 2026, obs=NULL_OBS):
        if nodes <= 0:
            raise ValueError("router needs at least one node")
        self.nodes = nodes
        #: A warm node at or above this many in-flight requests is
        #: considered overloaded; affinity spills to power-of-two.
        self.queue_threshold = queue_threshold
        self.obs = obs
        self._rng = random.Random(seed)
        #: Requests routed to each node and not yet completed.
        self.inflight: List[int] = [0] * nodes
        #: Per-node set of content keys the node has been sent before.
        self._warm: List[set] = [set() for _ in range(nodes)]
        #: Append-only decision log (JSON-able dicts).
        self.decisions: List[Dict[str, object]] = []

    def route(self, rid: int, key: str,
              candidates: Sequence[int]) -> int:
        """Pick a node for one request; updates in-flight and warm
        state and logs the decision."""
        if not candidates:
            raise ValueError("route() needs at least one candidate")
        before = list(self.inflight)
        warm = [n for n in candidates if key in self._warm[n]]
        pick = None
        reason = ""
        if warm:
            best = min(warm, key=lambda n: (self.inflight[n], n))
            if self.inflight[best] < self.queue_threshold:
                pick, reason = best, "affinity"
                self.obs.counter("fleet.router.affinity_hits").inc()
            else:
                # Every warm node is overloaded: spill, but record
                # that affinity was tried.
                self.obs.counter("fleet.router.overload_spills").inc()
        if pick is None:
            if len(candidates) == 1:
                pick = candidates[0]
                reason = "spill-only" if warm else "only"
            else:
                a, b = self._rng.sample(list(candidates), 2)
                pick = a if (self.inflight[a], a) <= \
                    (self.inflight[b], b) else b
                reason = "spill-p2c" if warm else "p2c"
            self.obs.counter("fleet.router.p2c_picks").inc()
        self.decisions.append({
            "rid": rid, "key": key, "node": pick, "reason": reason,
            "inflight": before, "warm": sorted(warm)})
        self._warm[pick].add(key)
        self.inflight[pick] += 1
        return pick

    def note_done(self, node: int) -> None:
        """One routed request reached a terminal answer on ``node``."""
        self.inflight[node] -= 1
