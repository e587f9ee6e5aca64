"""Host-time spans around the calls into each layer's public functions.

A :class:`Tracer` replaces a layer entry point (a method on a class, or
a function in the module namespace that calls it) with a wrapper that
records one span per outermost call: the layer name, host CPU start and
end (``process_time_ns``), the parent span and the request id where the
call carries one. A call into the same layer from inside that layer's
own span (``PhysicalMemory.write_u64`` calling ``write``) adds no span,
so counts and bytes are not double-counted.

Self time is computed as the spans close: a span's duration minus the
durations of the spans nested directly inside it. Every span hangs off
one of the benchmark's own root spans (``bench.setup``, the serve call,
``bench.verify``), so the self times of all layers sum exactly to the
summed root durations.

The wrappers must be installed before any Machine, store or server is
built: the compiled executor captures bound methods when it binds.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

_now = time.process_time_ns


class Tracer:
    """In-memory span log plus per-layer counters and self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # One row per span, column-wise to keep millions of spans small.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_rid = array("q")
        #: Open spans: [span index, name id, start ns, child ns, rid].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.root_ns = 0
        #: Set while the serve call is on the stack.
        self.in_serve = False

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns[name] = 0
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, name: str, rid: int = -1) -> Optional[list]:
        """Open a span; returns None (no span) when ``name`` is already
        the innermost open span."""
        stack = self._stack
        nid = self._id(name)
        parent = -1
        if stack:
            top = stack[-1]
            if top[1] == nid:
                return None
            parent = top[0]
            if rid < 0:
                rid = top[4]
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_rid.append(rid)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [index, nid, 0, 0, rid]
        stack.append(frame)
        frame[2] = _now()
        return frame

    def leave(self, frame: list) -> None:
        end = _now()
        self._stack.pop()
        index, nid, start, child, _rid = frame
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_ns[self.names[nid]] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_ns += duration

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a root span of the benchmark's own."""
        if self._stack:
            raise RuntimeError(f"root span {name} opened inside a span")
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(frame)

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None,
             after: Optional[Callable] = None,
             rid_arg: Optional[int] = None,
             always_count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs)`` runs once per span, ``always_count`` on
        every call (nested same-layer calls included), ``after(result,
        args)`` on the value a spanned call returns, and ``rid_arg``
        names the positional argument that holds the request id.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if always_count is not None:
                always_count(args, kwargs)
            rid = args[rid_arg] if rid_arg is not None \
                and len(args) > rid_arg else -1
            frame = tracer.enter(name, rid)
            if frame is None:
                return fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def dump(self, path: str) -> None:
        """Write every span to a compressed ``.npz``: ``names`` holds the
        layer names, ``name`` indexes into it, ``start``/``end`` are
        host CPU ns, ``parent`` is a span index (-1 for a root) and
        ``rid`` the request id (-1 where unknown)."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            rid=np.frombuffer(self.span_rid, dtype=np.int64))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics time."""
    import repro.bench.workloads as bench_workloads
    import repro.core.replayer as replayer_mod
    import repro.gpu.device as device
    from repro.core.compiled import CompiledProgram
    from repro.core.replayer import Replayer
    from repro.fleet.autoscale import PoolAutoscaler
    from repro.fleet.engine import Fleet
    from repro.fleet.router import DigestRouter
    from repro.gpu.counters import CounterTape
    from repro.gpu.mmu import GpuMmu, PageTableBuilder
    from repro.obs.flight import FlightRecorder
    from repro.obs.rtrace import RequestTracer
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.serve.engine import ReplayServer
    from repro.soc.clock import VirtualClock
    from repro.soc.machine import Machine
    from repro.soc.memory import PageAllocator, PhysicalMemory
    from repro.soc.mmio import MmioBus
    from repro.store.vault import Vault

    t = tracer

    def counter(key: str, amount=lambda a, k: 1):
        return lambda args, kwargs: t.count(key, amount(args, kwargs))

    def boot(args, kwargs):
        t.count("soc.boot.calls")
        if t.in_serve:
            t.count("soc.boot.serve_calls")

    t.wrap(Machine, "create", "soc.boot", count=boot)

    for attr, pages in (("alloc_page", lambda a, k: 1),
                        ("alloc_pages", lambda a, k: a[1] if len(a) > 1
                         else k["count"]),
                        ("free_page", lambda a, k: 0),
                        ("free_pages", lambda a, k: 0)):
        t.wrap(PageAllocator, attr, "soc.alloc",
               count=counter("soc.alloc.pages", pages))

    def memory(nbytes):
        def note(args, kwargs):
            t.count("soc.memory.calls")
            t.count("soc.memory.bytes", nbytes(args, kwargs))
        return note

    for attr, nbytes in (("read", lambda a, k: a[2]),
                         ("write", lambda a, k: len(a[2])),
                         ("read_u32", lambda a, k: 4),
                         ("write_u32", lambda a, k: 4),
                         ("read_u64", lambda a, k: 8),
                         ("write_u64", lambda a, k: 8)):
        t.wrap(PhysicalMemory, attr, "soc.memory", count=memory(nbytes))

    for attr in ("read", "write"):
        t.wrap(MmioBus, attr, "soc.mmio", count=counter("soc.mmio.calls"))
    for attr in ("schedule", "advance", "advance_to_next_event"):
        t.wrap(VirtualClock, attr, "soc.clock",
               always_count=counter("soc.clock.events"))

    for attr in ("translate", "read_va", "write_va"):
        t.wrap(GpuMmu, attr, "gpu.mmu",
               always_count=(counter("gpu.mmu.translate_calls")
                             if attr == "translate" else None))
    t.wrap(PageTableBuilder, "map_page", "gpu.mmu",
           always_count=counter("gpu.mmu.map_calls"))
    t.wrap(PageTableBuilder, "unmap_page", "gpu.mmu",
           always_count=counter("gpu.mmu.unmap_calls"))

    for attr in ("execute_program", "execute_program_batched"):
        t.wrap(device, attr, "gpu.shader",
               count=counter("gpu.shader.programs"))

    t.wrap(Replayer, "load", "core.load", count=counter("core.load.calls"))
    t.wrap(replayer_mod, "verify_recording", "core.verify",
           count=counter("core.verify.calls"))
    t.wrap(CompiledProgram, "bind", "core.bind",
           count=counter("core.bind.calls"))
    t.wrap(Replayer, "reset_session", "core.reset",
           count=counter("core.reset.calls"))

    def replay_count(args, kwargs):
        t.count("core.replay.calls")
        if not args[0].fast_path:
            t.count("core.replay.reference_calls")

    def uploads(result, args):
        t.count("core.upload.bytes", result.stats.upload_bytes)
        t.count("core.upload.skipped_bytes",
                result.stats.upload_skipped_bytes)

    t.wrap(Replayer, "replay", "core.replay", count=replay_count,
           after=uploads)

    def mega_count(args, kwargs):
        t.count("core.mega.calls")
        t.count("core.mega.members", len(args[1]))

    t.wrap(Replayer, "replay_mega", "core.mega", count=mega_count,
           after=uploads)

    def serve_root(owner, name):
        fn = owner.__dict__["serve"]

        def serve(*args, **kwargs):
            t.in_serve = True
            try:
                return t.root(name, fn, *args, **kwargs)
            finally:
                t.in_serve = False

        owner.serve = serve

    serve_root(ReplayServer, "serve")
    serve_root(Fleet, "fleet")
    t.wrap(DigestRouter, "route", "fleet.route",
           count=counter("fleet.route.calls"), rid_arg=1)
    t.wrap(PoolAutoscaler, "maybe_scale", "fleet.autoscale")

    t.wrap(Vault, "pack", "store.pack", count=counter("store.pack.calls"))
    t.wrap(Vault, "fetch", "store.fetch",
           count=counter("store.fetch.calls"))

    for attr in ("begin", "end", "mark", "finish"):
        t.wrap(RequestTracer, attr, "obs.rtrace",
               count=counter("obs.rtrace.events"), rid_arg=1)
    t.wrap(FlightRecorder, "record", "obs.flight",
           count=counter("obs.flight.records"))
    t.wrap(CounterTape, "record_kernel", "obs.counters")
    t.wrap(TimeSeriesCollector, "scrape", "obs.timeseries",
           count=counter("obs.timeseries.scrapes"))

    t.wrap(bench_workloads, "record_inference", "stack.record",
           count=counter("stack.record.calls"))
