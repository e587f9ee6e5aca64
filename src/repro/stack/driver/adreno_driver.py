"""The Adreno kernel driver (drm/msm-like).

Ring-buffer submission: at context creation the driver allocates a
ring in GPU memory and programs CP_RB_BASE/SIZE; each job submit
appends one packet pointing at the shader blob and rings the doorbell
(CP_RB_WPTR). Synchronous submission is enforced the way Table 1
describes for Adreno -- the submit path checks that previously
submitted work retired (RPTR caught up) before flushing a new command.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import DriverError
from repro.gpu import adreno as hw
from repro.gpu import jobs as jobfmt
from repro.soc.machine import Machine
from repro.stack.driver.base import GpuDriver
from repro.stack.driver.ioctl import IoctlCode
from repro.stack.driver.memory import ContextMemory, MemFlags
from repro.stack.driver.sched import JobQueue, JobState
from repro.units import MIB, MS, SEC

MAP_PAGE_NS = 300
CTX_INIT_NS = int(1.5 * MS)
RING_BYTES = 1 * MIB

_SRC = "drivers/gpu/drm/msm/adreno"


class AdrenoDriver(GpuDriver):
    """Driver for the Adreno 6xx family."""

    name = "msm_adreno"

    def __init__(self, machine: Machine):
        super().__init__(machine)
        if self.gpu.family != "adreno":
            raise DriverError("AdrenoDriver requires an Adreno GPU")
        self.queue = JobQueue(self, num_slots=2, depth=2)
        self.ctx: Optional[ContextMemory] = None
        self.mmu_faults: List[Dict[str, int]] = []
        self._ring_va = 0
        self._wptr = 0
        self._inflight: List[int] = []  # FIFO of slots, retire order
        self._job_counter = 0
        self.ioctls.register(IoctlCode.MEM_ALLOC, self._ioctl_mem_alloc)
        self.ioctls.register(IoctlCode.MEM_FREE, self._ioctl_mem_free)
        self.ioctls.register(IoctlCode.JOB_SUBMIT, self._ioctl_job_submit)
        self.ioctls.register(IoctlCode.JOB_WAIT, self._ioctl_job_wait)
        self.ioctls.register(IoctlCode.CACHE_FLUSH, self._ioctl_cache_flush)

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> None:
        if self.opened:
            return
        self.connect_irq()
        gpu_id = self.reg_read("RBBM_GPU_ID", f"{_SRC}/adreno_gpu.c:id")
        if gpu_id != hw.ADRENO_GPU_ID:
            raise DriverError(f"unexpected adreno id {gpu_id:#x}")
        self.reset_gpu()
        self.reg_write("RBBM_INT_0_MASK",
                       hw.INT_CP_DONE | hw.INT_RBBM_ERROR
                       | hw.INT_SMMU_FAULT,
                       f"{_SRC}/a6xx_gpu.c:irq_enable")
        self._power_up()
        self.opened = True

    def close(self) -> None:
        if not self.opened:
            return
        if self.ctx is not None:
            self.destroy_context()
        self.reset_gpu()
        self.disconnect_irq()
        self.opened = False

    def reset_gpu(self) -> None:
        self.pending_hw_ops += 1
        self.outstanding_jobs = 0
        self._inflight.clear()
        self._wptr = 0
        self.queue.abort_all()
        self.reg_write("RBBM_SW_RESET_CMD", 1,
                       f"{_SRC}/a6xx_gpu.c:a6xx_recover")
        ok = self.reg_poll("RBBM_RESET_STATUS", 1, 1,
                           f"{_SRC}/a6xx_gpu.c:reset_wait",
                           timeout_ns=10 * MS)
        self.pending_hw_ops -= 1
        if not ok:
            raise DriverError("adreno reset timed out")

    def _power_up(self) -> None:
        self.pending_hw_ops += 1
        self.reg_write("GDSC_PWR_CTRL", 1, f"{_SRC}/a6xx_gmu.c:gdsc_on")
        ok = self.reg_poll("GDSC_PWR_STATUS", 1, 1,
                           f"{_SRC}/a6xx_gmu.c:gdsc_wait",
                           timeout_ns=5 * MS)
        if not ok:
            self.pending_hw_ops -= 1
            raise DriverError("GDSC power-up timed out")
        self.reg_write("SPTP_PWR_CTRL", 1, f"{_SRC}/a6xx_gmu.c:sptp_on")
        ok = self.reg_poll("SPTP_PWR_STATUS", 1, 1,
                           f"{_SRC}/a6xx_gmu.c:sptp_wait",
                           timeout_ns=5 * MS)
        self.pending_hw_ops -= 1
        if not ok:
            raise DriverError("SPTP power-up timed out")

    # -- context --------------------------------------------------------------------

    def create_context(self) -> ContextMemory:
        self.require_open()
        if self.ctx is not None:
            raise DriverError("adreno driver models a single context")
        self.clock.advance(CTX_INIT_NS)
        self.ctx = ContextMemory(self.machine.memory,
                                 self.machine.gpu_allocator,
                                 self.gpu.mmu.fmt, tag="adreno-ctx")
        root = self.ctx.page_table.root_pa
        self.reg_write("SMMU_TTBR0_LO", root & 0xFFFFFFFF,
                       f"{_SRC}/msm_iommu.c:ttbr0_lo")
        self.reg_write("SMMU_TTBR0_HI", root >> 32,
                       f"{_SRC}/msm_iommu.c:ttbr0_hi")
        self.reg_write("SMMU_CR0", hw.SMMU_ENABLE,
                       f"{_SRC}/msm_iommu.c:cr0_enable")
        self.reg_write("SMMU_TLBIALL", 1,
                       f"{_SRC}/msm_iommu.c:tlbiall")
        # The command ring lives in (executable) GPU memory.
        ring = self.ctx.alloc(RING_BYTES, MemFlags.job_binary(),
                              tag="ringbuffer")
        self._ring_va = ring.va
        self._wptr = 0
        self.trace_mem_map(ring.va, ring.num_pages,
                           MemFlags.job_binary().value, "ringbuffer",
                           f"{_SRC}/msm_ringbuffer.c:new")
        self.reg_write("CP_RB_BASE_LO", ring.va & 0xFFFFFFFF,
                       f"{_SRC}/msm_ringbuffer.c:rb_base_lo")
        self.reg_write("CP_RB_BASE_HI", ring.va >> 32,
                       f"{_SRC}/msm_ringbuffer.c:rb_base_hi")
        self.reg_write("CP_RB_SIZE", RING_BYTES,
                       f"{_SRC}/msm_ringbuffer.c:rb_size")
        return self.ctx

    def destroy_context(self) -> None:
        if self.ctx is None:
            return
        self.ctx.destroy()
        self.ctx = None
        self._ring_va = 0

    def require_ctx(self) -> ContextMemory:
        if self.ctx is None:
            raise DriverError("no GPU context")
        return self.ctx

    # -- ioctls -----------------------------------------------------------------------------

    def _ioctl_mem_alloc(self, size: int, flags: MemFlags, tag: str = ""):
        ctx = self.require_ctx()
        region = ctx.alloc(size, flags, tag)
        self.clock.advance(MAP_PAGE_NS * region.num_pages)
        self.trace_mem_map(region.va, region.num_pages, flags.value, tag,
                           f"{_SRC}/msm_gpummu.c:msm_gpummu_map")
        self.reg_write("SMMU_TLBIALL", 1,
                       f"{_SRC}/msm_iommu.c:tlbiall")
        return region.va

    def _ioctl_mem_free(self, va: int):
        ctx = self.require_ctx()
        region = ctx.region_at(va)
        self.trace_mem_unmap(region.va, region.num_pages,
                             f"{_SRC}/msm_gpummu.c:msm_gpummu_unmap")
        ctx.free(region.va)
        self.reg_write("SMMU_TLBIALL", 1,
                       f"{_SRC}/msm_iommu.c:tlbiall")

    def _ioctl_job_submit(self, chain_va: int, affinity: int) -> int:
        self.require_ctx()
        self._maybe_rewind_ring()
        return self.queue.submit(chain_va, affinity)

    def _ioctl_job_wait(self, job_id: int, timeout_ns: int = 10 * SEC):
        state = self.queue.wait(job_id, timeout_ns,
                                src=f"{_SRC}/msm_gpu.c:wait_fence")
        if state is JobState.FAILED:
            raise DriverError(f"adreno job {job_id} failed "
                              f"(faults: {self.mmu_faults[-1:]})")
        return state.name

    def _ioctl_cache_flush(self):
        self.flush_caches()

    def flush_caches(self) -> None:
        """UCHE flush: set the bit, poll until the hardware clears it."""
        self.pending_hw_ops += 1
        self.reg_write("UCHE_CACHE_FLUSH", hw.UCHE_FLUSH,
                       f"{_SRC}/a6xx_gpu.c:uche_flush")
        ok = self.reg_poll("UCHE_CACHE_FLUSH", hw.UCHE_FLUSH, 0,
                           f"{_SRC}/a6xx_gpu.c:uche_flush_wait",
                           timeout_ns=5 * MS)
        self.pending_hw_ops -= 1
        if not ok:
            raise DriverError("UCHE flush timed out")

    def _maybe_rewind_ring(self) -> None:
        """Rewind the ring when idle and running out of packet space."""
        if self.outstanding_jobs or self.queue.running_count:
            return
        if self._wptr + 64 * jobfmt.RING_PKT_SIZE <= RING_BYTES:
            return
        self.rewind_ring()

    def rewind_ring(self) -> None:
        """Reset ring pointers (GPU must be idle).

        Also used by the recorder at session start so a recording
        always begins from ring offset zero -- the state the replayer's
        nano driver reconstructs.
        """
        if self.outstanding_jobs or self.queue.running_count:
            raise DriverError("cannot rewind the ring with jobs in "
                              "flight")
        self.reg_write("CP_RB_BASE_LO", self._ring_va & 0xFFFFFFFF,
                       f"{_SRC}/msm_ringbuffer.c:rewind")
        self._wptr = 0

    # -- hardware kick ----------------------------------------------------------------------------

    def kick_hardware(self, slot: int, record) -> None:
        ctx = self.require_ctx()
        if self._wptr + jobfmt.RING_PKT_SIZE > RING_BYTES:
            raise DriverError("ring buffer overflow")
        # On Adreno the submit ioctl's second argument is the blob size.
        packet = jobfmt.encode_ring_packet(record.chain_va, record.affinity)
        ctx.cpu_write(self._ring_va + self._wptr, packet)
        self._job_counter += 1
        self.trace_job_kick(slot, record.chain_va, self._job_counter,
                            f"{_SRC}/a6xx_gpu.c:a6xx_submit")
        self.outstanding_jobs += 1
        self._inflight.append(slot)
        self._wptr += jobfmt.RING_PKT_SIZE
        self.reg_write("CP_RB_WPTR", self._wptr,
                       f"{_SRC}/a6xx_gpu.c:a6xx_flush")

    # -- interrupt handler --------------------------------------------------------------------------

    def handle_irq(self) -> None:
        status = self.reg_read("RBBM_INT_0_STATUS",
                               f"{_SRC}/a6xx_gpu.c:a6xx_irq")
        if not status:
            return
        self.reg_write("RBBM_INT_CLEAR_CMD", status,
                       f"{_SRC}/a6xx_gpu.c:int_clear")
        failed = bool(status & (hw.INT_RBBM_ERROR | hw.INT_SMMU_FAULT))
        if status & hw.INT_SMMU_FAULT:
            self.mmu_faults.append({
                "status": self.reg_read("SMMU_FSR",
                                        f"{_SRC}/msm_iommu.c:fsr"),
                "address": self.reg_read("SMMU_FAR_LO",
                                         f"{_SRC}/msm_iommu.c:far"),
            })
        if status & hw.INT_CP_DONE or failed:
            # Progress check: where has the CP retired to?
            self.reg_read("CP_RB_RPTR", f"{_SRC}/a6xx_gpu.c:rptr")
            if self._inflight:
                slot = self._inflight.pop(0)
                self.outstanding_jobs = max(0, self.outstanding_jobs - 1)
                self.queue.on_slot_complete(slot, failed)
