"""The job-binary codec: the one module that knows how a GPU finds work.

Job binaries carry small dispatch structures in GPU memory, linked by
GPU virtual addresses: **Mali job chains** (fixed-size descriptors
linked by ``next_va``), **v3d control lists** (EXEC/BRANCH/HALT
packets) and **Adreno ring packets** (consumed from a ring buffer
between ``CP_RB_RPTR`` and the ``CP_RB_WPTR`` doorbell).

This module is the single codec for all three families: encoders,
decoders, walkers over a ``read(va, size)`` callback, kick decode and
VA rebase. The device models, the runtime emitters and drivers, the
v3d recorder, recording surgery and the doctor all call it, so every
tool accepts exactly the bytes the device accepts.

The replay side (``repro.core`` apart from the recorder) never imports
this module: to the replayer a job binary is opaque memory contents,
restored at its recorded virtual addresses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Tuple

from repro.errors import JobDecodeError

#: ``read(va, size) -> bytes``: how a walker fetches GPU memory.
ReadFn = Callable[[int, int], bytes]


@dataclass(frozen=True)
class Dispatch:
    """One shader dispatch a kick reaches: the dispatch structure
    (descriptor / EXEC packet / ring packet) and the program it names."""

    desc_va: int
    desc_size: int
    shader_va: int
    shader_size: int


# --------------------------------------------------------------------------
# Mali: a "job chain" of sub-job descriptors.
# --------------------------------------------------------------------------

MALI_JOB_MAGIC = 0x4D43424A  # "JBCM"
MALI_JOB_TYPE_COMPUTE = 1

_MALI_JOB = struct.Struct("<IIQQII")  # magic, type, next_va, shader_va,
#                                       shader_size, reserved
MALI_JOB_DESC_SIZE = _MALI_JOB.size

MAX_CHAIN_LENGTH = 4096


@dataclass(frozen=True)
class MaliJobDescriptor:
    """One sub-job of a Mali job chain."""

    job_type: int
    next_va: int
    shader_va: int
    shader_size: int


def encode_mali_job(desc: MaliJobDescriptor) -> bytes:
    return _MALI_JOB.pack(MALI_JOB_MAGIC, desc.job_type, desc.next_va,
                          desc.shader_va, desc.shader_size, 0)


def decode_mali_job(blob: bytes) -> MaliJobDescriptor:
    if len(blob) < MALI_JOB_DESC_SIZE:
        raise JobDecodeError("truncated Mali job descriptor")
    magic, job_type, next_va, shader_va, shader_size, _ = \
        _MALI_JOB.unpack_from(blob, 0)
    if magic != MALI_JOB_MAGIC:
        raise JobDecodeError(f"bad Mali job magic {magic:#x}")
    return MaliJobDescriptor(job_type, next_va, shader_va, shader_size)


def walk_mali_chain(head_va: int, read: ReadFn
                    ) -> List[Tuple[int, MaliJobDescriptor]]:
    """Walk a job chain via ``read(va, size)``; returns (va, desc) pairs.

    ``read`` is typically ``mmu.read_va`` with execute access -- the
    GPU fetches descriptors from executable pages, which is exactly the
    property the Mali recorder's dump heuristic exploits. Chains longer
    than :data:`MAX_CHAIN_LENGTH` (cycles included) are rejected.
    """
    out: List[Tuple[int, MaliJobDescriptor]] = []
    va = head_va
    while va != 0:
        if len(out) >= MAX_CHAIN_LENGTH:
            raise JobDecodeError("job chain too long (cycle?)")
        desc = decode_mali_job(read(va, MALI_JOB_DESC_SIZE))
        out.append((va, desc))
        va = desc.next_va
    return out


def rebase_mali_jobs(blob: bytes, delta: int) -> bytes:
    """Shift every descriptor in ``blob`` by ``delta``; a zero
    ``next_va`` (end of chain) stays zero."""
    if len(blob) % MALI_JOB_DESC_SIZE:
        raise JobDecodeError("truncated Mali job descriptor")
    out = bytearray()
    for pos in range(0, len(blob), MALI_JOB_DESC_SIZE):
        desc = decode_mali_job(blob[pos:pos + MALI_JOB_DESC_SIZE])
        out += encode_mali_job(replace(
            desc, next_va=desc.next_va + delta if desc.next_va else 0,
            shader_va=desc.shader_va + delta))
    return bytes(out)


# --------------------------------------------------------------------------
# v3d: flat control lists of packets, possibly branching to other lists.
# --------------------------------------------------------------------------

CL_HALT = 0
CL_EXEC_SHADER = 1
CL_BRANCH = 2

_CL_EXEC = struct.Struct("<BQI")  # opcode, shader_va, shader_size
_CL_BRANCH = struct.Struct("<BQ")  # opcode, target_va
_CL_HALT = struct.Struct("<B")

CL_EXEC_SIZE = _CL_EXEC.size        # 13 bytes
CL_BRANCH_SIZE = _CL_BRANCH.size    # 9 bytes
CL_HALT_SIZE = _CL_HALT.size        # 1 byte
_CL_SIZES = {CL_HALT: CL_HALT_SIZE, CL_EXEC_SHADER: CL_EXEC_SIZE,
             CL_BRANCH: CL_BRANCH_SIZE}

MAX_CL_PACKETS = 16384


@dataclass(frozen=True)
class ControlListEntry:
    """One parsed control-list packet; ``va`` is where it sits."""

    opcode: int
    shader_va: int = 0
    shader_size: int = 0
    target_va: int = 0
    va: int = 0

    @property
    def size(self) -> int:
        return _CL_SIZES[self.opcode]


def encode_cl_exec(shader_va: int, shader_size: int) -> bytes:
    return _CL_EXEC.pack(CL_EXEC_SHADER, shader_va, shader_size)


def encode_cl_branch(target_va: int) -> bytes:
    return _CL_BRANCH.pack(CL_BRANCH, target_va)


def encode_cl_halt() -> bytes:
    return _CL_HALT.pack(CL_HALT)


def _cl_packet_size(opcode: int, va: int) -> int:
    size = _CL_SIZES.get(opcode)
    if size is None:
        raise JobDecodeError(
            f"unknown control-list opcode {opcode} at {va:#x}")
    return size


def decode_cl_packet(blob: bytes, va: int = 0) -> ControlListEntry:
    """Decode the packet at the start of ``blob``, placed at ``va``."""
    if not blob:
        raise JobDecodeError("truncated control-list packet")
    opcode = blob[0]
    if len(blob) < _cl_packet_size(opcode, va):
        raise JobDecodeError(f"truncated control-list packet at {va:#x}")
    if opcode == CL_EXEC_SHADER:
        _, shader_va, size = _CL_EXEC.unpack_from(blob)
        return ControlListEntry(CL_EXEC_SHADER, shader_va, size, va=va)
    if opcode == CL_BRANCH:
        _, target = _CL_BRANCH.unpack_from(blob)
        return ControlListEntry(CL_BRANCH, target_va=target, va=va)
    return ControlListEntry(CL_HALT, va=va)


def walk_control_list(base_va: int, read: ReadFn
                      ) -> List[ControlListEntry]:
    """Parse packets starting at ``base_va`` until a HALT.

    Follows BRANCH packets into other lists, mirroring the pointer
    chasing the v3d recorder must perform (Section 6.2).
    """
    out: List[ControlListEntry] = []
    va = base_va
    while True:
        if len(out) >= MAX_CL_PACKETS:
            raise JobDecodeError("control list too long (cycle?)")
        head = read(va, 1)
        size = _cl_packet_size(head[0], va)
        entry = decode_cl_packet(head if size == 1 else read(va, size), va)
        out.append(entry)
        if entry.opcode == CL_HALT:
            return out
        va = entry.target_va if entry.opcode == CL_BRANCH else va + size


def rebase_control_list(blob: bytes, delta: int) -> bytes:
    """Shift every shader and branch pointer in a packet blob."""
    out = bytearray()
    pos = 0
    while pos < len(blob):
        entry = decode_cl_packet(blob[pos:pos + CL_EXEC_SIZE], pos)
        if entry.opcode == CL_EXEC_SHADER:
            out += encode_cl_exec(entry.shader_va + delta,
                                  entry.shader_size)
        elif entry.opcode == CL_BRANCH:
            out += encode_cl_branch(entry.target_va + delta)
        else:
            out += encode_cl_halt()
        pos += entry.size
    return bytes(out)


# --------------------------------------------------------------------------
# Adreno: fixed-size packets in a ring buffer.
# --------------------------------------------------------------------------

_RING_PKT = struct.Struct("<IIQ")  # magic, shader size, shader VA
RING_PKT_MAGIC = 0x37544B50  # "PKT7"
RING_PKT_SIZE = _RING_PKT.size


def encode_ring_packet(shader_va: int, shader_size: int) -> bytes:
    return _RING_PKT.pack(RING_PKT_MAGIC, shader_size, shader_va)


def decode_ring_packet(blob: bytes, va: int = 0) -> Dispatch:
    """Decode the packet at the start of ``blob``, placed at ``va``."""
    if len(blob) < RING_PKT_SIZE:
        raise JobDecodeError(f"truncated ring packet at {va:#x}")
    magic, shader_size, shader_va = _RING_PKT.unpack_from(blob)
    if magic != RING_PKT_MAGIC:
        raise JobDecodeError(f"bad ring packet magic {magic:#x} at "
                             f"{va:#x}")
    return Dispatch(va, RING_PKT_SIZE, shader_va, shader_size)


def walk_ring(base: int, size: int, rptr: int, wptr: int,
              read: ReadFn) -> Iterator[Dispatch]:
    """Yield the packets between offsets ``rptr`` and ``wptr``.

    Applies the command processor's doorbell checks first (a ring is
    programmed, ``wptr`` is packet-aligned and inside it), then decodes
    one packet per step: packets before a faulting one have already
    been handed to the caller when the fault is raised, as on the
    device.
    """
    if size == 0 or wptr % RING_PKT_SIZE or wptr > size:
        raise JobDecodeError(
            f"bad ring doorbell: wptr {wptr} for a {size}-byte ring")
    for offset in range(rptr, wptr, RING_PKT_SIZE):
        yield decode_ring_packet(read(base + offset, RING_PKT_SIZE),
                                 base + offset)


def rebase_ring(blob: bytes, delta: int) -> bytes:
    """Shift the shader pointer of every packet in ``blob``."""
    if len(blob) % RING_PKT_SIZE:
        raise JobDecodeError("truncated ring packet")
    out = bytearray()
    for pos in range(0, len(blob), RING_PKT_SIZE):
        packet = decode_ring_packet(blob[pos:pos + RING_PKT_SIZE], pos)
        out += encode_ring_packet(packet.shader_va + delta,
                                  packet.shader_size)
    return bytes(out)


# --------------------------------------------------------------------------
# All families: kicks, dispatches, rebasing.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Kick:
    """What a job-kick register write points the GPU at."""

    family: str
    #: First Mali descriptor / control-list packet / ring packet.
    chain_va: int
    #: The kick write: Mali JS command, v3d list end VA, Adreno WPTR.
    value: int
    slot: int = 0           # Mali job slot
    affinity: int = 0       # Mali core affinity mask
    ring_base: int = 0
    ring_size: int = 0
    rptr: int = 0           # Adreno ring offset the window starts at


def decode_kick(reg: str, value: int, peek: Callable[[str], int],
                rptr: int = 0) -> Kick:
    """Decode the kick write ``reg = value``; ``peek(name)`` returns
    the latched value of another register, ``rptr`` the Adreno ring
    offset the command processor resumes from."""
    if reg.startswith("JS") and reg.endswith("_COMMAND"):
        slot = int(reg[2:-len("_COMMAND")])
        head = (peek(f"JS{slot}_HEAD_HI") << 32) \
            | peek(f"JS{slot}_HEAD_LO")
        return Kick("mali", head, value, slot=slot,
                    affinity=peek(f"JS{slot}_AFFINITY"))
    if reg == "CT0QEA":
        return Kick("v3d", peek("CT0QBA"), value)
    if reg == "CP_RB_WPTR":
        base = (peek("CP_RB_BASE_HI") << 32) | peek("CP_RB_BASE_LO")
        return Kick("adreno", base + rptr, value, ring_base=base,
                    ring_size=peek("CP_RB_SIZE"), rptr=rptr)
    raise JobDecodeError(f"{reg!r} is not a job-kick register")


def encode_kick(kick: Kick) -> List[Tuple[str, int]]:
    """The register writes that latch ``kick`` and fire it, the kick
    write last: the inverse of :func:`decode_kick`."""
    if kick.family == "mali":
        js = f"JS{kick.slot}"
        return [(f"{js}_HEAD_LO", kick.chain_va & 0xFFFFFFFF),
                (f"{js}_HEAD_HI", kick.chain_va >> 32),
                (f"{js}_AFFINITY", kick.affinity),
                (f"{js}_COMMAND", kick.value)]
    if kick.family == "v3d":
        return [("CT0QBA", kick.chain_va), ("CT0QEA", kick.value)]
    return [("CP_RB_BASE_LO", kick.ring_base & 0xFFFFFFFF),
            ("CP_RB_BASE_HI", kick.ring_base >> 32),
            ("CP_RB_SIZE", kick.ring_size), ("CP_RB_WPTR", kick.value)]


def rebase_kick(kick: Kick, delta: int) -> Kick:
    """``kick`` with every VA it latches shifted by ``delta`` (ring
    offsets are relative to the ring base and do not move)."""
    return replace(
        kick, chain_va=kick.chain_va + delta,
        value=kick.value + delta if kick.family == "v3d" else kick.value,
        ring_base=kick.ring_base + delta if kick.family == "adreno"
        else kick.ring_base)


def walk_kick(kick: Kick, read: ReadFn) -> Iterator[Dispatch]:
    """Yield the dispatches ``kick`` starts, in execution order.

    Mali and v3d structures are walked whole before the first yield
    (the device reads the chain before any shader); Adreno packets are
    yielded one at a time, as the command processor consumes them.
    """
    if kick.family == "mali":
        for va, desc in walk_mali_chain(kick.chain_va, read):
            yield Dispatch(va, MALI_JOB_DESC_SIZE, desc.shader_va,
                           desc.shader_size)
    elif kick.family == "v3d":
        for entry in walk_control_list(kick.chain_va, read):
            if entry.opcode == CL_EXEC_SHADER:
                yield Dispatch(entry.va, CL_EXEC_SIZE, entry.shader_va,
                               entry.shader_size)
    else:
        yield from walk_ring(kick.ring_base, kick.ring_size, kick.rptr,
                             kick.value, read)


_REBASE = {"mali": rebase_mali_jobs, "v3d": rebase_control_list,
           "adreno": rebase_ring}


def rebase(family: str, blob: bytes, delta: int) -> bytes:
    """Re-encode a ``family`` dispatch-structure blob with every VA it
    holds shifted by ``delta``; bytes that do not decode raise."""
    return _REBASE[family](blob, delta)
