"""Job-binary formats: Mali job chains, v3d control lists and Adreno
ring packets -- decode, walk, kick decode and VA rebase."""

import pathlib
import re

import pytest

from repro.errors import JobDecodeError
from repro.gpu import jobs


def flat_reader(blobs):
    """``read(va, size)`` over a {va: bytes} map of placed blobs."""
    memory = {}
    for base, blob in blobs.items():
        for i, byte in enumerate(blob):
            memory[base + i] = byte

    def read(va, size):
        return bytes(memory[va + i] for i in range(size))
    return read


def assert_kick_codec(kick, delta=0x10_0000):
    """encode_kick inverts decode_kick; rebase_kick moves the chain."""
    *latched, (reg, value) = jobs.encode_kick(kick)
    assert jobs.decode_kick(reg, value, dict(latched).__getitem__,
                            kick.rptr) == kick
    moved = jobs.rebase_kick(kick, delta)
    assert moved.chain_va == kick.chain_va + delta
    assert jobs.rebase_kick(moved, -delta) == kick


class TestMaliJobChain:
    def test_descriptor_roundtrip(self):
        desc = jobs.MaliJobDescriptor(1, 0x2000, 0x3000, 128)
        assert jobs.decode_mali_job(jobs.encode_mali_job(desc)) == desc

    def test_bad_magic(self):
        blob = bytearray(jobs.encode_mali_job(
            jobs.MaliJobDescriptor(1, 0, 0, 0)))
        blob[0] ^= 1
        with pytest.raises(JobDecodeError):
            jobs.decode_mali_job(bytes(blob))

    def test_truncated(self):
        with pytest.raises(JobDecodeError):
            jobs.decode_mali_job(b"\x00" * 4)

    def test_walk_chain(self):
        store = {}

        def put(va, desc):
            store[va] = jobs.encode_mali_job(desc)

        put(0x100, jobs.MaliJobDescriptor(1, 0x200, 0xA000, 64))
        put(0x200, jobs.MaliJobDescriptor(1, 0x300, 0xB000, 64))
        put(0x300, jobs.MaliJobDescriptor(1, 0, 0xC000, 64))

        def read(va, size):
            return store[va][:size]

        chain = jobs.walk_mali_chain(0x100, read)
        assert [va for va, _d in chain] == [0x100, 0x200, 0x300]
        assert [d.shader_va for _va, d in chain] == [0xA000, 0xB000,
                                                     0xC000]

    def test_walk_detects_cycles(self):
        blob = jobs.encode_mali_job(
            jobs.MaliJobDescriptor(1, 0x100, 0xA000, 64))
        with pytest.raises(JobDecodeError):
            jobs.walk_mali_chain(0x100, lambda va, size: blob[:size])

    @pytest.mark.parametrize("length,ok", [(jobs.MAX_CHAIN_LENGTH, True),
                                           (jobs.MAX_CHAIN_LENGTH + 1,
                                            False)])
    def test_chain_length_boundary(self, length, ok):
        size = jobs.MALI_JOB_DESC_SIZE

        def read(va, n):
            index = (va - 0x1000) // size
            next_va = va + size if index + 1 < length else 0
            return jobs.encode_mali_job(
                jobs.MaliJobDescriptor(1, next_va, 0xA000, 64))[:n]

        if ok:
            assert len(jobs.walk_mali_chain(0x1000, read)) == length
        else:
            with pytest.raises(JobDecodeError):
                jobs.walk_mali_chain(0x1000, read)

    @pytest.mark.parametrize("delta", [0x10_0000, -0x800])
    def test_rebase_roundtrip(self, delta):
        blob = (jobs.encode_mali_job(
                    jobs.MaliJobDescriptor(1, 0x4020, 0x5000, 64))
                + jobs.encode_mali_job(
                    jobs.MaliJobDescriptor(1, 0, 0x5040, 96)))
        moved = jobs.rebase("mali", blob, delta)
        first = jobs.decode_mali_job(moved)
        last = jobs.decode_mali_job(moved[jobs.MALI_JOB_DESC_SIZE:])
        assert (first.next_va, first.shader_va) == (0x4020 + delta,
                                                    0x5000 + delta)
        assert (last.next_va, last.shader_va) == (0, 0x5040 + delta)
        assert jobs.rebase("mali", moved, -delta) == blob

    def test_rebase_rejects_partial_descriptor(self):
        blob = jobs.encode_mali_job(jobs.MaliJobDescriptor(1, 0, 0, 0))
        with pytest.raises(JobDecodeError):
            jobs.rebase("mali", blob[:-1], 0x1000)

    def test_kick_decode(self):
        regs = {"JS1_HEAD_LO": 0x2000, "JS1_HEAD_HI": 0x1,
                "JS1_AFFINITY": 0xF}
        kick = jobs.decode_kick("JS1_COMMAND", 1,
                                lambda name: regs.get(name, 0))
        assert (kick.family, kick.slot, kick.affinity) == ("mali", 1, 0xF)
        assert kick.chain_va == 0x1_0000_2000
        assert_kick_codec(kick)


class TestV3dControlList:
    def test_single_exec_then_halt(self):
        memory = {}
        packets = jobs.encode_cl_exec(0xA000, 96) + jobs.encode_cl_halt()
        for i, byte in enumerate(packets):
            memory[0x100 + i] = byte

        def read(va, size):
            return bytes(memory[va + i] for i in range(size))

        entries = jobs.walk_control_list(0x100, read)
        assert len(entries) == 2
        assert entries[0].opcode == jobs.CL_EXEC_SHADER
        assert entries[0].shader_va == 0xA000
        assert entries[0].shader_size == 96
        assert entries[1].opcode == jobs.CL_HALT

    def test_branch_follows_pointer(self):
        read = flat_reader({
            0x100: jobs.encode_cl_exec(0xA000, 32)
            + jobs.encode_cl_branch(0x500),
            0x500: jobs.encode_cl_exec(0xB000, 32) + jobs.encode_cl_halt()})
        entries = jobs.walk_control_list(0x100, read)
        opcodes = [e.opcode for e in entries]
        assert opcodes == [jobs.CL_EXEC_SHADER, jobs.CL_BRANCH,
                           jobs.CL_EXEC_SHADER, jobs.CL_HALT]
        assert entries[2].shader_va == 0xB000
        # Every entry knows where it sits, also after the branch.
        assert [e.va for e in entries] == [
            0x100, 0x100 + jobs.CL_EXEC_SIZE, 0x500,
            0x500 + jobs.CL_EXEC_SIZE]
        assert [e.size for e in entries] == [
            jobs.CL_EXEC_SIZE, jobs.CL_BRANCH_SIZE, jobs.CL_EXEC_SIZE,
            jobs.CL_HALT_SIZE]

    def test_unknown_packet(self):
        with pytest.raises(JobDecodeError):
            jobs.walk_control_list(0, lambda va, size: b"\x77" * size)

    def test_branch_cycle_detected(self):
        packet = jobs.encode_cl_branch(0x0)

        def read(va, size):
            return packet[:size]

        with pytest.raises(JobDecodeError):
            jobs.walk_control_list(0, read)

    @pytest.mark.parametrize("delta", [0x10_0000, -0x80])
    def test_rebase_roundtrip(self, delta):
        blob = (jobs.encode_cl_exec(0xA000, 32)
                + jobs.encode_cl_branch(0x500)
                + jobs.encode_cl_exec(0xB000, 48) + jobs.encode_cl_halt())
        moved = jobs.rebase("v3d", blob, delta)
        assert len(moved) == len(blob)
        entries = [jobs.decode_cl_packet(moved[pos:]) for pos in
                   (0, jobs.CL_EXEC_SIZE,
                    jobs.CL_EXEC_SIZE + jobs.CL_BRANCH_SIZE)]
        assert entries[0].shader_va == 0xA000 + delta
        assert entries[1].target_va == 0x500 + delta
        assert entries[2].shader_va == 0xB000 + delta
        assert jobs.rebase("v3d", moved, -delta) == blob

    def test_rebase_rejects_unknown_and_truncated_packets(self):
        with pytest.raises(JobDecodeError):
            jobs.rebase("v3d", b"\x77", 0x1000)
        with pytest.raises(JobDecodeError):
            jobs.rebase("v3d", jobs.encode_cl_exec(0xA000, 32)[:-1], 0x10)

    def test_kick_decode(self):
        kick = jobs.decode_kick("CT0QEA", 0x140,
                                {"CT0QBA": 0x100}.__getitem__)
        assert (kick.family, kick.chain_va, kick.value) == ("v3d", 0x100,
                                                            0x140)
        assert_kick_codec(kick)
        assert jobs.rebase_kick(kick, 0x1000).value == 0x1140
        with pytest.raises(JobDecodeError):
            jobs.decode_kick("CT0QBA", 0x100, lambda name: 0)


RING_BASE = 0x8000


def ring_reader(packets, ring_base=RING_BASE):
    return flat_reader({ring_base: b"".join(packets)})


class TestAdrenoRing:
    PACKETS = [jobs.encode_ring_packet(0xA000 + 0x100 * i, 64 + i)
               for i in range(3)]
    SIZE = 4 * jobs.RING_PKT_SIZE

    def walk(self, packets, rptr, wptr, size=SIZE):
        return jobs.walk_ring(RING_BASE, size, rptr, wptr,
                              ring_reader(packets))

    def test_packet_roundtrip(self):
        packet = jobs.decode_ring_packet(jobs.encode_ring_packet(0xA000, 64),
                                         0x40)
        assert packet == jobs.Dispatch(0x40, jobs.RING_PKT_SIZE, 0xA000, 64)

    def test_good_window(self):
        got = list(self.walk(self.PACKETS, 0, 3 * jobs.RING_PKT_SIZE))
        assert [p.desc_va for p in got] == [
            RING_BASE + i * jobs.RING_PKT_SIZE for i in range(3)]
        assert [(p.shader_va, p.shader_size) for p in got] == [
            (0xA000, 64), (0xA100, 65), (0xA200, 66)]
        resumed = list(self.walk(self.PACKETS, jobs.RING_PKT_SIZE,
                                 3 * jobs.RING_PKT_SIZE))
        assert resumed == got[1:]

    def test_bad_magic_after_good_packets(self):
        bad = bytearray(self.PACKETS[1])
        bad[0] ^= 0xFF
        packets = self.walk([self.PACKETS[0], bytes(bad)], 0,
                            2 * jobs.RING_PKT_SIZE)
        # One packet at a time: the first is handed out before the
        # second faults, as on the command processor.
        assert next(packets).shader_va == 0xA000
        with pytest.raises(JobDecodeError):
            next(packets)

    @pytest.mark.parametrize("wptr,size", [
        (jobs.RING_PKT_SIZE + 1, SIZE),         # unaligned wptr
        (5 * jobs.RING_PKT_SIZE, SIZE),         # wptr past the ring
        (jobs.RING_PKT_SIZE, 0),                # no ring programmed
    ])
    def test_bad_doorbell(self, wptr, size):
        with pytest.raises(JobDecodeError):
            next(self.walk(self.PACKETS, 0, wptr, size))

    @pytest.mark.parametrize("delta", [0x10_0000, -0x800])
    def test_rebase_roundtrip(self, delta):
        blob = b"".join(self.PACKETS)
        moved = jobs.rebase("adreno", blob, delta)
        assert jobs.decode_ring_packet(moved).shader_va == 0xA000 + delta
        assert jobs.rebase("adreno", moved, -delta) == blob

    def test_rebase_rejects_bad_magic(self):
        blob = bytearray(b"".join(self.PACKETS))
        blob[jobs.RING_PKT_SIZE] ^= 0xFF
        with pytest.raises(JobDecodeError):
            jobs.rebase("adreno", bytes(blob), 0x1000)

    def test_kick_decode(self):
        regs = {"CP_RB_BASE_LO": RING_BASE, "CP_RB_SIZE": self.SIZE}
        kick = jobs.decode_kick("CP_RB_WPTR", 2 * jobs.RING_PKT_SIZE,
                                lambda name: regs.get(name, 0),
                                rptr=jobs.RING_PKT_SIZE)
        assert kick.family == "adreno"
        assert kick.chain_va == RING_BASE + jobs.RING_PKT_SIZE
        assert (kick.ring_base, kick.ring_size, kick.rptr, kick.value) == (
            RING_BASE, self.SIZE, jobs.RING_PKT_SIZE,
            2 * jobs.RING_PKT_SIZE)
        assert_kick_codec(kick)
        dispatches = list(jobs.walk_kick(kick, ring_reader(self.PACKETS)))
        assert dispatches == [jobs.Dispatch(
            RING_BASE + jobs.RING_PKT_SIZE, jobs.RING_PKT_SIZE, 0xA100, 65)]


def test_replay_side_never_imports_the_codec():
    """Job binaries stay opaque to the replayer: nothing in repro.core
    but the recorder imports repro.gpu.jobs."""
    core = pathlib.Path(jobs.__file__).resolve().parents[1] / "core"
    importers = sorted(
        path.name for path in core.glob("*.py")
        if path.name != "recorder.py"
        and re.search(r"repro\.gpu\.jobs|from repro\.gpu import .*\bjobs\b",
                      path.read_text()))
    assert importers == []
