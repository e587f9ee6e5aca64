"""The nano GPU driver (Section 5.2): ~600 SLoC of hardware access.

The only GPU knowledge the replayer ships: the per-family register map
(names -> MMIO offsets), the reset/power bring-up sequence, the
page-table encoding of its own SKU, and a bare-minimum interrupt
handler that does nothing but flag arrival -- interrupt *handling* is
the recording's job (the actions that follow a WaitIrq).

Register access goes through the machine's MMIO bus at resolved
addresses, exactly as a user-level replayer would through mmap'd
registers.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReplayError, VerificationError
from repro.gpu import adreno as adreno_hw
from repro.gpu import mali as mali_hw
from repro.gpu import v3d as v3d_hw
from repro.gpu.mmu import PageTableBuilder
from repro.soc.machine import Machine
from repro.soc.memory import PAGE_SIZE
from repro.units import MS, SEC, US

MMIO_ACCESS_NS = 150
POLL_STEP_NS = 10 * US
#: Throughput of loading memory dumps into GPU memory.
UPLOAD_BW = 1 * 1024 ** 3
#: Per-PTE cost of building/patching page tables.
PTE_PATCH_NS = 120
#: Per-page cache-maintenance cost when checkpointing GPU memory: each
#: page must be cleaned/invalidated through an uncached mapping, which
#: is why dumping all GPU memory is so much slower than re-executing
#: (the Section 7.5 checkpoint-vs-reexecution trade-off).
PAGE_SYNC_NS = 45 * US
#: Cost of the content-hash comparison that proves an upload's bytes
#: are already GPU-resident (the replay fast path's skip check).
RESIDENT_CHECK_NS = 250


class NanoGpuDriver:
    """Minimal GPU access layer shared by every replayer deployment."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.clock = machine.clock
        gpu = machine.require_gpu()
        self.family = gpu.family
        self.model_name = gpu.model_name
        self.mmio_base = machine.board.gpu_mmio_base
        self.irq_number = machine.board.gpu_irq
        # The shipped register map: names resolved to MMIO addresses.
        self._reg_offsets: Dict[str, int] = {
            d.name: d.offset for d in gpu.regs.defs()}
        self._fmt = gpu.mmu.fmt  # the replayer's own SKU format
        self._pt: Optional[PageTableBuilder] = None
        self._regions: Dict[int, Tuple[List[int], int]] = {}
        #: GPU-resident dump state: upload VA -> (content digest, size).
        #: Entries are dropped whenever the bytes underneath might have
        #: changed (unmap, fresh map, CPU writes, memory release).
        self._resident: Dict[int, Tuple[str, int]] = {}
        #: Sorted resident base addresses + the largest resident dump,
        #: so the per-GPU-write overlap check is a bisect, not a scan.
        self._resident_bases: List[int] = []
        self._resident_max = 0
        self._irq_count = 0
        self._irq_connected = False
        self.in_irq_context = False
        self.reg_io_count = 0
        self._reg_fingerprint: Optional[str] = None
        # The machine's always-on flight recorder. The nano driver is
        # the chokepoint both the interpreter and the compiled fast
        # path funnel through, so recording here keeps the two paths'
        # event streams identical by construction.
        self.flight = machine.flight
        # The GPU's emulated performance-counter tape: register writes
        # and skipped resident uploads are session-level costs, and
        # this driver is likewise the chokepoint they all cross.
        self.counters = gpu.counters
        self._in_poll = False

    # -- register map (the §5.1 name->address resolution) -----------------------

    def register_names(self) -> Set[str]:
        return set(self._reg_offsets)

    def register_map_fingerprint(self) -> str:
        """Content digest of this board's register map: the MMIO base
        plus every (name, offset) pair. Two drivers with equal
        fingerprints verify and compile recordings identically, so the
        fingerprint keys the content-addressed load cache."""
        if self._reg_fingerprint is None:
            h = hashlib.sha256()
            h.update(f"{self.family}:{self.mmio_base:#x}".encode())
            for name in sorted(self._reg_offsets):
                h.update(f"|{name}={self._reg_offsets[name]:#x}".encode())
            self._reg_fingerprint = h.hexdigest()
        return self._reg_fingerprint

    def resolve(self, reg: str) -> int:
        offset = self._reg_offsets.get(reg)
        if offset is None:
            raise VerificationError(
                f"recording names unknown register {reg!r}")
        return self.mmio_base + offset

    def reg_read(self, reg: str) -> int:
        return self.reg_read_at(self.resolve(reg))

    def reg_write(self, reg: str, value: int,
                  mask: int = 0xFFFFFFFF) -> None:
        self.reg_write_at(self.resolve(reg), value, mask)

    def reg_poll(self, reg: str, mask: int, value: int,
                 timeout_ns: int) -> bool:
        return self.reg_poll_at(self.resolve(reg), mask, value,
                                timeout_ns)

    # Pre-resolved variants: compiled action programs resolve register
    # names once at compile time and hit MMIO by absolute address on
    # the hot loop. Timing and accounting are identical to the named
    # variants -- the name lookup itself costs no virtual time.

    def reg_read_at(self, addr: int) -> int:
        self.clock.advance(MMIO_ACCESS_NS)
        self.reg_io_count += 1
        value = self.machine.mmio.read(addr)
        if not self._in_poll:
            self.flight.record(self.clock.now(), "RegRead",
                               (addr, value))
        return value

    def reg_write_at(self, addr: int, value: int,
                     mask: int = 0xFFFFFFFF) -> None:
        self.clock.advance(MMIO_ACCESS_NS)
        self.reg_io_count += 1
        if self.counters.enabled:
            self.counters.note_mmio_write()
        if mask != 0xFFFFFFFF:
            current = self.machine.mmio.read(addr)
            value = (current & ~mask) | (value & mask)
        self.machine.mmio.write(addr, value)
        self.flight.record(self.clock.now(), "RegWrite",
                           (addr, value, mask))

    def reg_poll_at(self, addr: int, mask: int, value: int,
                    timeout_ns: int) -> bool:
        # One summarized flight event per poll, not one per read: a
        # long poll would otherwise flush the whole ring.
        deadline = self.clock.now() + timeout_ns
        self._in_poll = True
        polls = 0
        last = 0
        try:
            while True:
                last = self.reg_read_at(addr)
                polls += 1
                if (last & mask) == value:
                    ok = True
                    break
                if self.clock.now() >= deadline:
                    ok = False
                    break
                self.clock.advance(min(POLL_STEP_NS,
                                       deadline - self.clock.now()))
        finally:
            self._in_poll = False
        self.flight.record(self.clock.now(), "RegPoll",
                           (addr, mask, value, polls, ok, last))
        return ok

    # -- interrupts ------------------------------------------------------------------

    def connect_irq(self) -> None:
        if not self._irq_connected:
            self.machine.irq.connect(self.irq_number, self._irq_stub)
            self._irq_connected = True

    def disconnect_irq(self) -> None:
        if self._irq_connected:
            self.machine.irq.connect(self.irq_number, None)
            self._irq_connected = False

    def _irq_stub(self, line: int) -> None:
        """The bare-minimum handler: note arrival, nothing else."""
        del line
        self._irq_count += 1
        self.machine.obs.counter("nano.irqs").inc()
        self.machine.irq.ack(self.irq_number)

    def wait_irq(self, timeout_ns: int) -> bool:
        t0 = self.clock.now()
        deadline = t0 + timeout_ns
        ok = True
        while self._irq_count == 0:
            if self.clock.now() >= deadline:
                ok = False
                break
            fired = self.clock.advance_to_next_event(limit_ns=deadline)
            if not fired and self._irq_count == 0:
                ok = False
                break
        self.flight.record(self.clock.now(), "WaitIrq",
                           (timeout_ns, ok, self.clock.now() - t0))
        return ok

    @property
    def pending_irqs(self) -> int:
        return self._irq_count

    def enter_irq_context(self) -> None:
        if self._irq_count > 0:
            self._irq_count -= 1
        self.in_irq_context = True
        self.flight.record(self.clock.now(), "IrqEnter")

    def exit_irq_context(self) -> None:
        self.in_irq_context = False
        self.flight.record(self.clock.now(), "IrqExit")

    def clear_irq_state(self) -> None:
        self._irq_count = 0
        self.in_irq_context = False

    # -- GPU bring-up / reset (per-family Table 1 knowledge) --------------------------

    def init_gpu(self) -> None:
        """Acquire the GPU: reset, unmask interrupts, power the cores.

        Also scrubs any previous session's GPU memory -- a fresh init
        is the clean-handoff point between apps (Section 5.3: no data
        leaks across replayer sessions)."""
        obs = self.machine.obs
        self.flight.record(self.clock.now(), "Reset", ("init",))
        with obs.span("nano:init-gpu", obs.track("replay", "nano"),
                      cat="nano", args={"family": self.family}):
            self.connect_irq()
            self.clear_irq_state()
            self._family_reset()
            self.release_memory()
        # Observe GPU-side writes so resident-dump tracking never
        # claims bytes the GPU itself has since overwritten.
        self.machine.gpu.mmu.write_observer = self._drop_resident

    def soft_reset(self) -> None:
        """Reset without touching replayer memory state (recovery path)."""
        obs = self.machine.obs
        obs.counter("nano.resets").inc()
        self.flight.record(self.clock.now(), "Reset", ("soft",))
        with obs.span("nano:reset", obs.track("replay", "nano"),
                      cat="nano"):
            self._family_reset()
        self.clear_irq_state()

    def _family_reset(self) -> None:
        if self.family == "mali":
            self._mali_reset_and_power()
        elif self.family == "adreno":
            self._adreno_reset_and_power()
        else:
            self._v3d_reset()

    def flush_and_reset(self) -> None:
        """Preemption path: clean caches + TLB, then soft reset (§5.3)."""
        if self.family == "mali":
            self.reg_write("GPU_COMMAND", mali_hw.CMD_CLEAN_CACHES)
            self.reg_poll("GPU_IRQ_RAWSTAT",
                          mali_hw.IRQ_CLEAN_CACHES_COMPLETED,
                          mali_hw.IRQ_CLEAN_CACHES_COMPLETED, 2 * MS)
            self.reg_write("GPU_IRQ_CLEAR",
                           mali_hw.IRQ_CLEAN_CACHES_COMPLETED)
            self.reg_write("AS0_COMMAND", mali_hw.AS_CMD_FLUSH_PT)
        elif self.family == "adreno":
            self.reg_write("UCHE_CACHE_FLUSH", adreno_hw.UCHE_FLUSH)
            self.reg_poll("UCHE_CACHE_FLUSH", adreno_hw.UCHE_FLUSH, 0,
                          2 * MS)
            self.reg_write("SMMU_TLBIALL", 1)
        else:
            self.reg_write("L2TCACTL", v3d_hw.L2T_FLUSH)
            self.reg_poll("L2TCACTL", v3d_hw.L2T_FLUSH, 0, 2 * MS)
        self.soft_reset()

    def _mali_reset_and_power(self) -> None:
        self.reg_write("GPU_COMMAND", mali_hw.CMD_SOFT_RESET)
        if not self.reg_poll("GPU_IRQ_RAWSTAT",
                             mali_hw.IRQ_RESET_COMPLETED,
                             mali_hw.IRQ_RESET_COMPLETED, 10 * MS):
            raise ReplayError("nano driver: GPU reset timed out")
        self.reg_write("GPU_IRQ_CLEAR", mali_hw.IRQ_RESET_COMPLETED)
        self.reg_write("JOB_IRQ_MASK", 0xFFFFFFFF)
        self.reg_write("MMU_IRQ_MASK", 0xFFFFFFFF)
        self.reg_write("GPU_IRQ_MASK", 0)
        self.reg_write("L2_PWRON", 1)
        if not self.reg_poll("L2_READY", 1, 1, 5 * MS):
            raise ReplayError("nano driver: L2 power-up timed out")
        present = self.reg_read("SHADER_PRESENT")
        self.reg_write("SHADER_PWRON", present)
        if not self.reg_poll("SHADER_READY", present, present, 5 * MS):
            raise ReplayError("nano driver: shader power-up timed out")

    def _adreno_reset_and_power(self) -> None:
        self.reg_write("RBBM_SW_RESET_CMD", 1)
        if not self.reg_poll("RBBM_RESET_STATUS", 1, 1, 10 * MS):
            raise ReplayError("nano driver: adreno reset timed out")
        self.reg_write("RBBM_INT_0_MASK",
                       adreno_hw.INT_CP_DONE | adreno_hw.INT_RBBM_ERROR
                       | adreno_hw.INT_SMMU_FAULT)
        self.reg_write("GDSC_PWR_CTRL", 1)
        if not self.reg_poll("GDSC_PWR_STATUS", 1, 1, 5 * MS):
            raise ReplayError("nano driver: GDSC power-up timed out")
        self.reg_write("SPTP_PWR_CTRL", 1)
        if not self.reg_poll("SPTP_PWR_STATUS", 1, 1, 5 * MS):
            raise ReplayError("nano driver: SPTP power-up timed out")

    def _v3d_reset(self) -> None:
        if self.reg_read("CTL_IDENT") == 0xFFFFFFFF:
            raise ReplayError(
                "v3d reads as unpowered; the deployment environment "
                "must configure GPU power/clocks before replay "
                "(host kernel, or the recording's firmware sequence)")
        self.reg_write("CTL_RESET", 1)
        if not self.reg_poll("CTL_STATUS", v3d_hw.STATUS_IDLE,
                             v3d_hw.STATUS_IDLE, 5 * MS):
            raise ReplayError("nano driver: v3d reset timed out")
        self.reg_write("CTL_INT_MSK",
                       v3d_hw.INT_FRDONE | v3d_hw.INT_CTERR
                       | v3d_hw.INT_MMU_FAULT)

    # -- GPU memory (MapGPUMem / Upload / CopyTo / CopyFrom) -----------------------------

    def _require_pt(self) -> PageTableBuilder:
        if self._pt is None:
            self._pt = PageTableBuilder(
                self.machine.memory, self.machine.gpu_allocator,
                self._fmt, tag="replayer-pgtable")
        return self._pt

    def map_gpu_mem(self, va: int, num_pages: int,
                    raw_pte_flags: int) -> None:
        """Allocate fresh physical pages for ``va`` and map them.

        The PTE permission bits come from the recording in the *source
        SKU's* raw encoding and are decoded with this SKU's format --
        the relocation-with-patching of Section 5.2. Re-mapping an
        identical region is a no-op so that replay sessions persist
        GPU memory across recordings (per-layer chaining).
        """
        existing = self._regions.get(va)
        if existing is not None:
            if existing[1] == num_pages:
                return
            raise ReplayError(
                f"replay re-maps VA {va:#x} with different size")
        _valid, _pa, perms = self._fmt.decode_pte(raw_pte_flags)
        pas = self.machine.gpu_allocator.alloc_pages(num_pages,
                                                     "replayer-mem")
        pt = self._require_pt()
        for i, pa in enumerate(pas):
            # Fresh pages are zero-filled by the allocator: no stale
            # data leaks to the GPU (§5.1, "no sensitive data").
            pt.map_page(va + i * PAGE_SIZE, pa, perms)
        self.clock.advance(PTE_PATCH_NS * num_pages)
        self._regions[va] = (pas, num_pages)
        self._drop_resident(va, num_pages * PAGE_SIZE)
        self.flight.record(self.clock.now(), "MemMap", (va, num_pages))

    def unmap_gpu_mem(self, va: int, num_pages: int) -> None:
        entry = self._regions.pop(va, None)
        if entry is None:
            raise ReplayError(f"replay unmaps unmapped VA {va:#x}")
        pas, mapped_pages = entry
        del num_pages
        pt = self._require_pt()
        for i in range(mapped_pages):
            pt.unmap_page(va + i * PAGE_SIZE)
        self.machine.gpu_allocator.free_pages(pas)
        self._drop_resident(va, mapped_pages * PAGE_SIZE)
        self.flight.record(self.clock.now(), "MemUnmap",
                           (va, mapped_pages))

    def set_gpu_pgtable(self, memattr: int) -> None:
        self.flight.record(self.clock.now(), "SetPgtable", (memattr,))
        root = self._require_pt().root_pa
        if self.family == "mali":
            self.reg_write("AS0_TRANSTAB_LO", root & 0xFFFFFFFF)
            self.reg_write("AS0_TRANSTAB_HI", root >> 32)
            self.reg_write("AS0_MEMATTR", memattr)
            self.reg_write("AS0_COMMAND", mali_hw.AS_CMD_UPDATE)
        elif self.family == "adreno":
            self.reg_write("SMMU_TTBR0_LO", root & 0xFFFFFFFF)
            self.reg_write("SMMU_TTBR0_HI", root >> 32)
            self.reg_write("SMMU_CR0", memattr)
            self.reg_write("SMMU_TLBIALL", 1)
        else:
            self.reg_write("MMU_PT_PA_BASE", root >> 12)
            self.reg_write("MMU_CTRL", v3d_hw.MMU_CTRL_ENABLE
                           | v3d_hw.MMU_CTRL_TLB_CLEAR)

    def _cpu_access(self, va: int, size: int,
                    data: Optional[bytes] = None) -> bytes:
        pt = self._require_pt()
        out = bytearray()
        cursor = va
        remaining = size
        offset = 0
        while remaining > 0:
            entry = pt.lookup(cursor)
            if entry is None:
                raise ReplayError(
                    f"replay touches unmapped GPU VA {cursor:#x}")
            pa, _perms = entry
            in_page = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - in_page)
            if data is None:
                out += self.machine.memory.read(pa + in_page, chunk)
            else:
                self.machine.memory.write(pa + in_page,
                                          data[offset:offset + chunk])
            cursor += chunk
            offset += chunk
            remaining -= chunk
        return bytes(out)

    # -- resident-dump tracking (the replay fast path) ------------------------------------

    def _drop_resident(self, va: int, size: int) -> None:
        """Forget resident dumps overlapping [va, va+size).

        Called on every GPU-side store via the MMU write observer, so
        it must be cheap when nothing overlaps: a sorted index of base
        addresses narrows the scan to entries that could start inside
        ``[va - largest_dump, va + size)``, instead of walking every
        resident entry per write.
        """
        if not self._resident:
            return
        end = va + size
        bases = self._resident_bases
        lo = bisect.bisect_left(bases, va - self._resident_max + 1)
        hi = bisect.bisect_left(bases, end)
        if lo >= hi:
            return
        stale = [base for base in bases[lo:hi]
                 if va < base + self._resident[base][1]]
        for base in stale:
            del self._resident[base]
            bases.remove(base)

    def forget_resident(self) -> None:
        """Drop all resident-dump knowledge, forcing the next replay to
        re-upload everything (benchmark baselines, paranoia mode)."""
        self._resident.clear()
        self._resident_bases.clear()
        self._resident_max = 0

    def upload(self, va: int, data: bytes,
               digest: Optional[str] = None) -> int:
        """Load dump bytes at ``va``; returns the bytes actually moved.

        When ``digest`` (or the computed content hash) matches what a
        previous upload left at the same address -- and nothing has
        dirtied the range since -- the copy is skipped entirely: the
        bytes are already GPU-resident. Repeated replays of one
        recording and §5.4 delay-injection retries hit this path.

        ``data`` may be any C-contiguous read-only buffer (``bytes`` or
        a read-only ``memoryview`` into a vault chunk buffer): residency
        hashing, length checks and per-page writes all operate on the
        view without materializing an intermediate ``bytes`` copy.
        """
        if digest is None:
            digest = hashlib.sha256(data).hexdigest()
        if self._resident.get(va) == (digest, len(data)):
            self.clock.advance(RESIDENT_CHECK_NS)
            if self.counters.enabled:
                self.counters.note_upload_skipped(len(data))
            self.flight.record(self.clock.now(), "Upload",
                               (va, len(data), 0))
            return 0
        self.clock.advance(max(1, len(data) * SEC // UPLOAD_BW))
        self._drop_resident(va, len(data))
        self._cpu_access(va, len(data), data)
        self._resident[va] = (digest, len(data))
        bisect.insort(self._resident_bases, va)
        self._resident_max = max(self._resident_max, len(data))
        self.flight.record(self.clock.now(), "Upload",
                           (va, len(data), len(data)))
        return len(data)

    def copy_to_gpu(self, gaddr: int, data: bytes) -> None:
        self.clock.advance(max(1, len(data) * SEC // UPLOAD_BW))
        self._drop_resident(gaddr, len(data))
        self._cpu_access(gaddr, len(data), data)
        self.flight.record(self.clock.now(), "CopyToGpu",
                           (gaddr, len(data)))

    def copy_from_gpu(self, gaddr: int, size: int) -> bytes:
        self.clock.advance(max(1, size * SEC // UPLOAD_BW))
        out = self._cpu_access(gaddr, size)
        self.flight.record(self.clock.now(), "CopyFromGpu",
                           (gaddr, size))
        return out

    # -- checkpoint support (§5.3) --------------------------------------------------------

    def mapped_bytes(self) -> int:
        return sum(pages * PAGE_SIZE for _pas, pages in
                   self._regions.values())

    def snapshot_memory(self) -> Dict[int, bytes]:
        """Copy every mapped region (the expensive part of checkpoints)."""
        out: Dict[int, bytes] = {}
        total_pages = 0
        for va, (_pas, pages) in self._regions.items():
            out[va] = self._cpu_access(va, pages * PAGE_SIZE)
            total_pages += pages
        self.clock.advance(max(1, self.mapped_bytes() * SEC // UPLOAD_BW)
                           + PAGE_SYNC_NS * total_pages)
        return out

    def restore_memory(self, snapshot: Dict[int, bytes]) -> None:
        total_pages = 0
        for va, data in snapshot.items():
            self._drop_resident(va, len(data))
            self._cpu_access(va, len(data), data)
            total_pages += (len(data) + PAGE_SIZE - 1) // PAGE_SIZE
        self.clock.advance(max(1, self.mapped_bytes() * SEC // UPLOAD_BW)
                           + PAGE_SYNC_NS * total_pages)

    # -- teardown ------------------------------------------------------------------------------

    def release_memory(self) -> None:
        """Free every mapped region and the page tables themselves."""
        self.forget_resident()
        for va in list(self._regions):
            pas, pages = self._regions.pop(va)
            if self._pt is not None:
                for i in range(pages):
                    self._pt.unmap_page(va + i * PAGE_SIZE)
            self.machine.gpu_allocator.free_pages(pas)
        if self._pt is not None:
            self._pt.destroy()
            self._pt = None

    def release(self) -> None:
        self.release_memory()
        self.disconnect_irq()
        mmu = self.machine.gpu.mmu
        if mmu.write_observer is self._drop_resident:
            mmu.write_observer = None
