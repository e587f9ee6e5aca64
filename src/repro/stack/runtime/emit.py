"""Job-binary emission: how runtimes lay jobs out in GPU memory.

Per GPU family, this builds the bytes the hardware will parse: a Mali
job-chain descriptor pointing at the shader blob, or a v3d control
list (Adreno ring packets are appended by the driver). Every encoding
comes from :mod:`repro.gpu.jobs`. The layout is position-dependent
(descriptors embed absolute GPU VAs), which is why recordings restore
dumps at the exact recorded virtual addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.errors import RuntimeApiError
from repro.gpu import jobs as jobfmt
from repro.units import align_up

#: Shader blob alignment inside a job-binary region.
SHADER_ALIGN = 64


@dataclass(frozen=True)
class EmittedJob:
    """Where a job landed in GPU memory."""

    region_va: int
    chain_va: int
    #: Second ioctl argument: Mali affinity mask / v3d list end VA.
    submit_arg: int
    total_size: int


class JobEmitter:
    """Base class: lays out shader blobs plus launch structures."""

    def layout_size(self, shader_blobs: List[bytes]) -> int:
        raise NotImplementedError

    def emit(self, region_va: int,
             write: Callable[[int, bytes], None],
             shader_blobs: List[bytes],
             submit_arg: int) -> EmittedJob:
        raise NotImplementedError


class MaliJobEmitter(JobEmitter):
    """One job chain: descriptors first, shader blobs behind them."""

    def layout_size(self, shader_blobs: List[bytes]) -> int:
        size = len(shader_blobs) * align_up(jobfmt.MALI_JOB_DESC_SIZE,
                                            SHADER_ALIGN)
        for blob in shader_blobs:
            size += align_up(len(blob), SHADER_ALIGN)
        return size

    def emit(self, region_va: int, write, shader_blobs, submit_arg):
        if not shader_blobs:
            raise RuntimeApiError("cannot emit an empty job chain")
        desc_stride = align_up(jobfmt.MALI_JOB_DESC_SIZE, SHADER_ALIGN)
        shader_base = region_va + len(shader_blobs) * desc_stride
        # Place shaders, remembering their VAs.
        shader_vas: List[Tuple[int, int]] = []
        cursor = shader_base
        for blob in shader_blobs:
            write(cursor, blob)
            shader_vas.append((cursor, len(blob)))
            cursor += align_up(len(blob), SHADER_ALIGN)
        # Chain the descriptors.
        for i, (sva, ssize) in enumerate(shader_vas):
            next_va = region_va + (i + 1) * desc_stride \
                if i + 1 < len(shader_vas) else 0
            desc = jobfmt.MaliJobDescriptor(
                jobfmt.MALI_JOB_TYPE_COMPUTE, next_va, sva, ssize)
            write(region_va + i * desc_stride, jobfmt.encode_mali_job(desc))
        return EmittedJob(region_va, region_va, submit_arg,
                          cursor - region_va)


class V3dJobEmitter(JobEmitter):
    """A control list of EXEC packets followed by HALT; shaders behind."""

    def layout_size(self, shader_blobs: List[bytes]) -> int:
        size = align_up(len(shader_blobs) * jobfmt.CL_EXEC_SIZE
                        + jobfmt.CL_HALT_SIZE, SHADER_ALIGN)
        for blob in shader_blobs:
            size += align_up(len(blob), SHADER_ALIGN)
        return size

    def emit(self, region_va: int, write, shader_blobs, submit_arg):
        if not shader_blobs:
            raise RuntimeApiError("cannot emit an empty control list")
        list_size = align_up(len(shader_blobs) * jobfmt.CL_EXEC_SIZE
                             + jobfmt.CL_HALT_SIZE, SHADER_ALIGN)
        shader_base = region_va + list_size
        shader_vas: List[Tuple[int, int]] = []
        cursor = shader_base
        for blob in shader_blobs:
            write(cursor, blob)
            shader_vas.append((cursor, len(blob)))
            cursor += align_up(len(blob), SHADER_ALIGN)
        packets = b"".join(jobfmt.encode_cl_exec(sva, ssize)
                           for sva, ssize in shader_vas)
        packets += jobfmt.encode_cl_halt()
        write(region_va, packets)
        end_va = region_va + len(packets)
        return EmittedJob(region_va, region_va, end_va, cursor - region_va)


class AdrenoJobEmitter(JobEmitter):
    """Adreno jobs are a bare shader blob; the *driver* appends the
    ring packet pointing at it (ring-buffer submission)."""

    def layout_size(self, shader_blobs: List[bytes]) -> int:
        return sum(align_up(len(blob), SHADER_ALIGN)
                   for blob in shader_blobs)

    def emit(self, region_va: int, write, shader_blobs, submit_arg):
        if len(shader_blobs) != 1:
            raise RuntimeApiError(
                "adreno submission takes one shader blob per packet")
        blob = shader_blobs[0]
        write(region_va, blob)
        # submit_arg carries the blob size to the driver's submit ioctl.
        return EmittedJob(region_va, region_va, len(blob),
                          align_up(len(blob), SHADER_ALIGN))


def emitter_for_family(family: str) -> JobEmitter:
    if family == "mali":
        return MaliJobEmitter()
    if family == "v3d":
        return V3dJobEmitter()
    if family == "adreno":
        return AdrenoJobEmitter()
    raise RuntimeApiError(f"no job emitter for GPU family {family!r}")
