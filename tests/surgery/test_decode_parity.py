"""Surgery decodes dispatch structures exactly as the GPU does.

The analyzer and the composer walk Mali chains, v3d control lists and
Adreno ring packets through :mod:`repro.gpu.jobs`, the codec the device
models run. Each case here is one the device refuses; surgery must
refuse it too (as :class:`SurgeryError`) rather than slice or rebase a
job the GPU would never run.
"""

import pytest

from repro.bench.workloads import get_recorded
from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.errors import SurgeryError
from repro.gpu import jobs
from repro.gpu.isa import Instruction, Op, Program, TensorRef, \
    encode_program
from repro.surgery import analyze_recording, compose, slice_job
from repro.surgery.slicer import Slice

CHAIN_VA = 0x10_0000
SHADER_VA = 0x20_0000
DATA_VA = 0x30_0000

SHADER = encode_program(Program([Instruction(
    Op.COPY, (TensorRef(DATA_VA, (4,)), TensorRef(DATA_VA + 16, (4,))))]))


def handmade(family, uploads, regs, kick):
    """A one-kick recording: uploads, register writes, then the kick."""
    actions = [act.Upload(addr=va, dump_index=i)
               for i, (va, _data) in enumerate(uploads)]
    actions += [act.RegWrite(reg=reg, val=val) for reg, val in regs]
    actions.append(act.RegWrite(reg=kick[0], val=kick[1],
                                is_job_kick=True))
    meta = RecordingMeta(family=family, workload=f"{family}-handmade",
                         n_jobs=1)
    return Recording(meta, actions,
                     [MemoryDump(va, data) for va, data in uploads])


def mali_chain(length):
    size = jobs.MALI_JOB_DESC_SIZE
    chain = b"".join(
        jobs.encode_mali_job(jobs.MaliJobDescriptor(
            jobs.MALI_JOB_TYPE_COMPUTE,
            CHAIN_VA + (i + 1) * size if i + 1 < length else 0,
            SHADER_VA, len(SHADER)))
        for i in range(length))
    return handmade("mali", [(CHAIN_VA, chain), (SHADER_VA, SHADER)],
                    [("JS0_HEAD_LO", CHAIN_VA), ("JS0_HEAD_HI", 0),
                     ("JS0_AFFINITY", 0xF)],
                    ("JS0_COMMAND", 1))


def adreno_ring(wptr, ring_size, packets=4):
    ring = b"".join(jobs.encode_ring_packet(SHADER_VA, len(SHADER))
                    for _ in range(packets))
    return handmade("adreno", [(CHAIN_VA, ring), (SHADER_VA, SHADER)],
                    [("CP_RB_BASE_LO", CHAIN_VA), ("CP_RB_BASE_HI", 0),
                     ("CP_RB_SIZE", ring_size)],
                    ("CP_RB_WPTR", wptr))


def test_mali_chain_length_limit_matches_the_gpu():
    analysis = analyze_recording(mali_chain(jobs.MAX_CHAIN_LENGTH))
    assert len(analysis.jobs[0].kernels) == jobs.MAX_CHAIN_LENGTH
    with pytest.raises(SurgeryError, match="too long"):
        analyze_recording(mali_chain(jobs.MAX_CHAIN_LENGTH + 1))


def test_adreno_aligned_window_decodes():
    analysis = analyze_recording(adreno_ring(2 * jobs.RING_PKT_SIZE, 64))
    assert [k.desc_va for k in analysis.jobs[0].kernels] == [
        CHAIN_VA, CHAIN_VA + jobs.RING_PKT_SIZE]


@pytest.mark.parametrize("wptr,ring_size", [
    (jobs.RING_PKT_SIZE + 1, 4 * jobs.RING_PKT_SIZE),
    (3 * jobs.RING_PKT_SIZE, 2 * jobs.RING_PKT_SIZE),
], ids=["unaligned-wptr", "wptr-past-ring"])
def test_adreno_doorbell_checks_match_the_gpu(wptr, ring_size):
    with pytest.raises(SurgeryError, match="doorbell"):
        analyze_recording(adreno_ring(wptr, ring_size))


@pytest.fixture(scope="module")
def adreno_slice():
    parent = get_recorded("adreno", "mnist")[0].recording
    return slice_job(parent, 0, expect_outputs=False)


@pytest.mark.parametrize("trailer", [
    b"\x11" * jobs.RING_PKT_SIZE,
    jobs.encode_ring_packet(SHADER_VA, 64)[:-1],
], ids=["bad-magic", "partial-packet"])
def test_composer_rejects_undecodable_ring_bytes(adreno_slice, trailer):
    """A ring dump carrying bytes past the kicked window that are not a
    ring packet: the rebase must refuse them, not repack them."""
    recording = adreno_slice.recording
    ring_base = adreno_slice.manifest.structure["ring_base"]
    dumps = [MemoryDump(d.va, bytes(d.data) + trailer)
             if d.va == ring_base else d for d in recording.dumps]
    tampered = Slice(Recording(recording.meta, recording.actions, dumps),
                     adreno_slice.manifest)
    assert analyze_recording(tampered.recording).jobs  # window is fine
    with pytest.raises(SurgeryError, match="does not decode"):
        compose([tampered], [0])
