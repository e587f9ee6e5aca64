"""Compiled replay programs: the serve loop's fast path.

The reference interpreter (:mod:`repro.core.interpreter`) walks the
action list with an ``isinstance`` chain, resolves register names
through the nano driver's map on every access, and looks pacing
intervals up per action. That cost is paid on *every* replay -- the
opposite of the steady-state serve regime (same recording, new inputs,
many times) that replay is supposed to win.

``compile_program`` lowers a *verified* recording once:

- every action becomes a small spec tuple with its register name
  pre-resolved to an absolute MMIO address (via
  :meth:`NanoGpuDriver.resolve`) and its dump bytes/digest pre-fetched;
- the pacing schedule becomes a flat array of minimum intervals;
- Upload actions are pre-grouped into an upload plan (address, size,
  content digest per segment) so resident-dump behaviour is
  inspectable before running anything.

A :class:`CompiledProgram` is machine-independent data bound to a
board configuration (family + MMIO base + register map), so the
replayer's content-addressed load cache can share it between replayer
instances. :meth:`CompiledProgram.bind` attaches it to one nano driver,
building per-action closures (bound-method dispatch, no ``isinstance``)
that the executor runs in a tight loop.

The fast path must be *observably identical* to the reference
interpreter: same outputs, same :class:`InterpreterStats`, same
chokepoint/trace events at the same virtual times. Only wall-clock
time differs. The differential suite in
``tests/core/test_compiled_fastpath.py`` holds this line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import actions as act
from repro.core.interpreter import (ACTION_OVERHEAD_NS,
                                    IMPLICIT_IRQ_TIMEOUT_NS,
                                    InterpreterOptions, InterpreterStats)
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording
from repro.errors import (ReplayAborted, ReplayDivergence, ReplayError,
                          ReplayTimeout)
from repro.obs.metrics import LATENCY_BUCKETS_NS

#: Per-action flags checked in the executor's main loop (cheap integer
#: tests replacing the interpreter's post-dispatch ``isinstance``).
FLAG_KICK = 1
FLAG_IRQ_EXIT = 2


@dataclass(frozen=True)
class UploadSegment:
    """One entry of a program's precomputed upload plan."""

    action_index: int
    addr: int
    dump_index: int
    size: int
    digest: str


class CompiledProgram:
    """A verified recording lowered for fast repeated replay.

    Holds no reference to a specific machine; ``board_key`` records
    the (family, mmio_base) the register addresses were resolved
    against, and :meth:`bind` refuses a mismatched nano driver.
    """

    def __init__(self, recording: Recording,
                 specs: List[Tuple], names: List[str],
                 srcs: List[str], flags: List[int],
                 intervals: List[int],
                 upload_plan: List[UploadSegment],
                 board_key: Tuple[str, int]):
        self.recording = recording
        self.specs = specs
        self.names = names
        self.srcs = srcs
        self.flags = flags
        self.intervals = intervals
        self.upload_plan = upload_plan
        self.board_key = board_key
        self._superblocks: Optional[Dict[int, "Superblock"]] = None

    def __len__(self) -> int:
        return len(self.specs)

    def superblocks(self) -> Dict[int, "Superblock"]:
        """Superblock index for the mega-batch executor (lazy, cached).

        Purely derived data: the normal :class:`CompiledExecutor` never
        reads it, so the existing fast path is untouched.
        """
        if self._superblocks is None:
            self._superblocks = compile_superblocks(self)
        return self._superblocks

    def bind(self, nano: NanoGpuDriver) -> "CompiledExecutor":
        if (nano.family, nano.mmio_base) != self.board_key:
            raise ReplayError(
                f"compiled program targets {self.board_key}, nano "
                f"driver is ({nano.family!r}, {nano.mmio_base:#x})")
        return CompiledExecutor(self, nano)


# Spec kinds (first element of each spec tuple).
_REG_WRITE = 0
_REG_READ_ONCE = 1
_REG_READ_WAIT = 2
_SET_PGTABLE = 3
_MAP = 4
_UNMAP = 5
_UPLOAD = 6
_WAIT_IRQ = 7
_IRQ_ENTER = 8
_IRQ_EXIT = 9
_SYNTH_COPY = 10
_UNKNOWN = 11


def compile_program(recording: Recording,
                    nano: NanoGpuDriver) -> CompiledProgram:
    """Lower ``recording`` against ``nano``'s board configuration.

    Must only be called after :func:`~repro.core.verifier.
    verify_recording` accepted the recording: compilation resolves
    every register name eagerly and assumes dump indices are in range.
    """
    specs: List[Tuple] = []
    names: List[str] = []
    srcs: List[str] = []
    flags: List[int] = []
    intervals: List[int] = []
    upload_plan: List[UploadSegment] = []

    for index, action in enumerate(recording.actions):
        names.append(type(action).__name__)
        srcs.append(action.src)
        intervals.append(action.min_interval_ns)
        flag = 0
        if isinstance(action, act.RegWrite):
            if action.is_job_kick:
                flag |= FLAG_KICK
            specs.append((_REG_WRITE, nano.resolve(action.reg),
                          action.val, action.mask))
        elif isinstance(action, act.RegReadOnce):
            specs.append((_REG_READ_ONCE, nano.resolve(action.reg),
                          action.val, action.ignore, action.reg))
        elif isinstance(action, act.RegReadWait):
            specs.append((_REG_READ_WAIT, nano.resolve(action.reg),
                          action.mask, action.val, action.timeout_ns,
                          action.reg))
        elif isinstance(action, act.SetGpuPgtable):
            specs.append((_SET_PGTABLE, action.memattr))
        elif isinstance(action, act.MapGpuMem):
            specs.append((_MAP, action.addr, action.num_pages,
                          action.raw_pte_flags))
        elif isinstance(action, act.UnmapGpuMem):
            specs.append((_UNMAP, action.addr, action.num_pages))
        elif isinstance(action, act.Upload):
            dump = recording.dumps[action.dump_index]
            specs.append((_UPLOAD, action.addr, dump.data, dump.digest,
                          dump.size))
            upload_plan.append(UploadSegment(
                index, action.addr, action.dump_index, dump.size,
                dump.digest))
        elif isinstance(action, act.WaitIrq):
            specs.append((_WAIT_IRQ, action.timeout_ns))
        elif isinstance(action, act.IrqEnter):
            specs.append((_IRQ_ENTER,))
        elif isinstance(action, act.IrqExit):
            flag |= FLAG_IRQ_EXIT
            specs.append((_IRQ_EXIT,))
        elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
            specs.append((_SYNTH_COPY, type(action).__name__))
        else:
            specs.append((_UNKNOWN, type(action).__name__))
        flags.append(flag)

    return CompiledProgram(recording, specs, names, srcs, flags,
                           intervals, upload_plan,
                           (nano.family, nano.mmio_base))


@dataclass(frozen=True)
class Superblock:
    """A run of consecutive RegWrite actions fused into one dispatch.

    The mega-batch executor pays one dispatch overhead and one pacing
    computation for the whole run instead of one per action: the block
    occupies ``max(pacing_ns, ACTION_OVERHEAD_NS + length *
    MMIO_ACCESS_NS)`` of virtual time from its start, where
    ``pacing_ns`` is the sum of the members' minimum intervals.
    """

    start: int
    end: int          # half-open [start, end)
    pacing_ns: int    # sum of member minimum pacing intervals

    @property
    def length(self) -> int:
        return self.end - self.start


def compile_superblocks(program: CompiledProgram) -> Dict[int, Superblock]:
    """Index maximal RegWrite runs (length >= 2) by their start action.

    The action right before the input-deposit point
    (``prologue_len - 1``) is never fused: deposits must still fire
    between that action and the next, exactly as in the unfused path.
    """
    blocks: Dict[int, Superblock] = {}
    barrier = program.recording.meta.prologue_len - 1
    specs = program.specs
    intervals = program.intervals
    i, n = 0, len(specs)
    while i < n:
        if specs[i][0] != _REG_WRITE or i == barrier:
            i += 1
            continue
        j = i
        while j < n and specs[j][0] == _REG_WRITE and j != barrier:
            j += 1
        if j - i >= 2:
            blocks[i] = Superblock(i, j, sum(intervals[i:j]))
        i = j
    return blocks


class CompiledExecutor:
    """A compiled program bound to one nano driver and obs session.

    Reusable across replays: ``execute`` resets per-run state. The
    per-action closures are built once at bind time and capture the
    nano driver's bound methods plus pre-created obs counters, so the
    hot loop does no name resolution, no ``isinstance`` dispatch and
    no metric-registry lookups.
    """

    def __init__(self, program: CompiledProgram, nano: NanoGpuDriver):
        self.program = program
        self.nano = nano
        self.obs = nano.machine.obs
        self.stats = InterpreterStats()
        self._actions_track = self.obs.track("replay", "actions")
        self._jobs_track = self.obs.track("replay", "jobs")
        self._job_span = None
        self._flight = nano.flight
        self._steps: List[Callable[[int], None]] = [
            self._build_step(i) for i in range(len(program))]

    # -- closure factory ----------------------------------------------------

    def _build_step(self, index: int) -> Callable[[int], None]:
        spec = self.program.specs[index]
        src = self.program.srcs[index]
        kind = spec[0]
        nano = self.nano
        obs = self.obs
        # With observability off every counter is a null object; build
        # closures without the no-op calls so the hot loop pays for
        # metrics only when a session is attached. (The executor is
        # re-bound when the machine's obs session changes.)
        live = obs.enabled

        if kind == _REG_WRITE:
            _, addr, val, mask = spec
            write_at = nano.reg_write_at
            if not live:
                def step(i, _w=write_at, _a=addr, _v=val, _m=mask):
                    _w(_a, _v, _m)
                return step
            ctr = obs.counter("replay.reg_writes")

            def step(i, _w=write_at, _c=ctr, _a=addr, _v=val, _m=mask):
                _c.inc()
                _w(_a, _v, _m)
            return step

        if kind == _REG_READ_ONCE:
            _, addr, val, ignore, reg = spec
            read_at = nano.reg_read_at
            ctr = obs.counter("replay.reg_reads") if live else None

            def step(i):
                if ctr is not None:
                    ctr.inc()
                value = read_at(addr)
                if not ignore and value != val:
                    raise ReplayDivergence(
                        f"register {reg} read {value:#x}, recorded "
                        f"{val:#x}", i, src)
            return step

        if kind == _REG_READ_WAIT:
            _, addr, mask, val, timeout_ns, reg = spec
            poll_at = nano.reg_poll_at
            ctr = obs.counter("replay.reg_polls") if live else None

            def step(i):
                if ctr is not None:
                    ctr.inc()
                if not poll_at(addr, mask, val, timeout_ns):
                    raise ReplayTimeout(
                        f"poll of {reg} (mask {mask:#x}, want "
                        f"{val:#x}) timed out", i, src)
            return step

        if kind == _SET_PGTABLE:
            _, memattr = spec
            set_pgtable = nano.set_gpu_pgtable

            def step(i):
                set_pgtable(memattr)
            return step

        if kind == _MAP:
            _, addr, num_pages, pte_flags = spec
            map_mem = nano.map_gpu_mem

            def step(i):
                map_mem(addr, num_pages, pte_flags)
            return step

        if kind == _UNMAP:
            _, addr, num_pages = spec
            unmap_mem = nano.unmap_gpu_mem

            def step(i):
                unmap_mem(addr, num_pages)
            return step

        if kind == _UPLOAD:
            _, addr, data, digest, size = spec
            upload = nano.upload
            clock = nano.clock
            if not live:
                def step(i):
                    t0 = clock.now()
                    uploaded = upload(addr, data, digest=digest)
                    stats = self.stats
                    stats.upload_ns += clock.now() - t0
                    stats.upload_bytes += uploaded
                    skipped = size - uploaded
                    if skipped:
                        stats.upload_skipped_bytes += skipped
                return step
            uploads_ctr = obs.counter("replay.uploads")
            bytes_ctr = obs.counter("replay.upload_bytes")
            skip_ctr = obs.counter("replay.upload_skipped_bytes")

            def step(i):
                t0 = clock.now()
                uploaded = upload(addr, data, digest=digest)
                stats = self.stats
                stats.upload_ns += clock.now() - t0
                stats.upload_bytes += uploaded
                uploads_ctr.inc()
                bytes_ctr.inc(uploaded)
                skipped = size - uploaded
                if skipped:
                    stats.upload_skipped_bytes += skipped
                    skip_ctr.inc(skipped)
            return step

        if kind == _WAIT_IRQ:
            _, timeout_ns = spec
            wait_irq = nano.wait_irq
            clock = nano.clock
            if not live:
                def step(i):
                    stats = self.stats
                    stats.irqs_waited += 1
                    t0 = clock.now()
                    ok = wait_irq(timeout_ns)
                    stats.irq_wait_ns += clock.now() - t0
                    if not ok:
                        raise ReplayTimeout(
                            "no GPU interrupt arrived in time", i, src)
                return step
            ctr = obs.counter("replay.irq_waits")
            hist = obs.histogram("replay.irq_wait_ns",
                                 LATENCY_BUCKETS_NS)

            def step(i):
                stats = self.stats
                stats.irqs_waited += 1
                ctr.inc()
                t0 = clock.now()
                ok = wait_irq(timeout_ns)
                waited = clock.now() - t0
                stats.irq_wait_ns += waited
                hist.observe(waited)
                if not ok:
                    raise ReplayTimeout(
                        "no GPU interrupt arrived in time", i, src)
            return step

        if kind == _IRQ_ENTER:
            wait_irq = nano.wait_irq
            clock = nano.clock
            enter = nano.enter_irq_context
            if not live:
                def step(i):
                    if nano.pending_irqs == 0:
                        t0 = clock.now()
                        ok = wait_irq(IMPLICIT_IRQ_TIMEOUT_NS)
                        self.stats.irq_wait_ns += clock.now() - t0
                        if not ok:
                            raise ReplayTimeout(
                                "no GPU interrupt for asynchronous irq "
                                "context", i, src)
                    enter()
                return step
            ctr = obs.counter("replay.irq_waits")
            hist = obs.histogram("replay.irq_wait_ns",
                                 LATENCY_BUCKETS_NS)

            def step(i):
                if nano.pending_irqs == 0:
                    # Record-time interrupt preempted the CPU; replay
                    # synchronizes on its arrival here instead.
                    ctr.inc()
                    t0 = clock.now()
                    ok = wait_irq(IMPLICIT_IRQ_TIMEOUT_NS)
                    waited = clock.now() - t0
                    self.stats.irq_wait_ns += waited
                    hist.observe(waited)
                    if not ok:
                        raise ReplayTimeout(
                            "no GPU interrupt for asynchronous irq "
                            "context", i, src)
                enter()
            return step

        if kind == _IRQ_EXIT:
            exit_irq = nano.exit_irq_context

            def step(i):
                exit_irq()
            return step

        if kind == _SYNTH_COPY:
            _, type_name = spec

            def step(i):
                raise ReplayError(
                    f"{type_name} actions are synthesized by the "
                    "replayer", i, src)
            return step

        _, type_name = spec

        def step(i):
            raise ReplayError(f"unknown action {type_name}", i, src)
        return step

    # -- execution ----------------------------------------------------------

    def execute(self, options: Optional[InterpreterOptions] = None,
                deposit_inputs: Optional[Callable[[], None]] = None,
                start_index: int = 0,
                should_yield: Optional[Callable[[], bool]] = None
                ) -> InterpreterStats:
        """Run the program; semantics mirror ``ReplayInterpreter``.

        ``options.use_recorded_intervals`` is not supported here -- the
        replayer routes that (and checkpointing) to the reference
        interpreter.
        """
        options = options or InterpreterOptions()
        if options.use_recorded_intervals:
            raise ReplayError(
                "compiled programs pace with minimum intervals; use "
                "the reference interpreter for recorded intervals")
        self.stats = InterpreterStats()
        self._job_span = None
        stats = self.stats
        obs = self.obs
        emit = obs.enabled
        clock = self.nano.clock
        clock_now = clock.now
        clock_advance = clock.advance
        steps = self._steps
        names = self.program.names
        srcs = self.program.srcs
        flags = self.program.flags
        intervals = self.program.intervals
        prologue_len = self.program.recording.meta.prologue_len
        actions_ctr = obs.counter("replay.actions")
        pacing_ctr = obs.counter("replay.pacing_wait_ns")
        actions_track = self._actions_track
        jobs_track = self._jobs_track
        extra_delay = options.extra_delay_ns
        delay_range = options.extra_delay_range

        if start_index > 0 and deposit_inputs is not None:
            # Resuming mid-stream (checkpoint restore): inputs are
            # already in GPU memory from the original attempt.
            deposit_inputs = None

        flight = self._flight
        flight_record = flight.record

        # Loop-local accumulators, written back in ``finally`` so a
        # divergence mid-stream leaves stats as the reference path
        # would.
        executed = 0
        pacing_total = 0
        last_end = clock_now()
        try:
            for index in range(start_index, len(steps)):
                flight.action_index = index
                if should_yield is not None and should_yield():
                    raise ReplayAborted("preempted by the environment",
                                        index, srcs[index])

                interval = intervals[index]
                if extra_delay and (delay_range is None or
                                    delay_range[0] <= index
                                    < delay_range[1]):
                    interval += extra_delay
                target = last_end + interval
                now = clock_now()
                if target > now:
                    # Pacing wait and dispatch overhead are one clock
                    # advance; events still fire at their due times, so
                    # this is invisible in virtual time.
                    wait = target - now
                    pacing_total += wait
                    if emit:
                        pacing_ctr.inc(wait)
                    flight_record(now, "Pacing", (wait,))
                    t_start = target
                    clock_advance(wait + ACTION_OVERHEAD_NS)
                else:
                    t_start = now
                    clock_advance(ACTION_OVERHEAD_NS)

                steps[index](index)
                executed += 1
                if emit:
                    actions_ctr.inc()
                    obs.complete(names[index], actions_track, t_start,
                                 clock_now(), cat="replay-action",
                                 args={"index": index,
                                       "src": srcs[index]})
                flag = flags[index]
                if flag:
                    if flag & FLAG_KICK:
                        if stats.first_kick_at_ns < 0:
                            stats.first_kick_at_ns = clock_now()
                        stats.jobs_kicked += 1
                        flight_record(clock_now(), "JobKick",
                                      (stats.jobs_kicked - 1,))
                        if self._job_span is not None:
                            obs.end(self._job_span)
                        self._job_span = obs.begin(
                            f"job[{stats.jobs_kicked - 1}]", jobs_track,
                            cat="replay-job", args={"index": index})
                    if flag & FLAG_IRQ_EXIT:
                        if self._job_span is not None:
                            obs.end(self._job_span)
                            self._job_span = None
                last_end = clock_now()

                if deposit_inputs is not None and \
                        index == prologue_len - 1:
                    deposit_inputs()
                    deposit_inputs = None
                    last_end = clock_now()
        except BaseException:
            # Mirror the reference interpreter's span hygiene: a
            # failed replay must not leak an open job span.
            if self._job_span is not None:
                obs.end(self._job_span)
                self._job_span = None
            raise
        finally:
            stats.actions_executed += executed
            stats.pacing_wait_ns += pacing_total

        if deposit_inputs is not None:
            # Degenerate recording with no prologue: deposit up front.
            deposit_inputs()
        return stats
