"""GPU virtual memory: page-table formats, the GPU MMU, table builders.

The paper's GPU model (Section 3.2) requires GPU virtual memory: the
replayer may load memory dumps to physical pages *of its choice* and
patch the page tables for relocation. To make that real, both record
and replay machines allocate physical pages in different orders, and
every GPU access goes through the MMU modelled here.

Three page-table-entry formats are provided, matching Section 6.4's
cross-SKU experience: the regular Mali format, the LPAE variant used by
the low-end SKU whose *permission bits sit in a different order* (the
cross-GPU patch re-arranges them), and the v3d format which has no
permission bits at all (forcing the recorder's conservative dumps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import GpuPageFault, SocError
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory

# Permission bits (logical, format-independent).
PERM_R = 1
PERM_W = 2
PERM_X = 4

# Virtual address split: 4 KiB pages, 512-entry L1 tables, 512-entry L0
# root -> 1 GiB of GPU virtual address space per context.
_OFFSET_BITS = 12
_L1_BITS = 9
_L0_BITS = 9
L1_SPAN = 1 << (_OFFSET_BITS + _L1_BITS)  # 2 MiB per L1 table
VA_SPACE_SIZE = 1 << (_OFFSET_BITS + _L1_BITS + _L0_BITS)  # 1 GiB


def split_va(va: int) -> Tuple[int, int, int]:
    """Split a VA into (l0_index, l1_index, page_offset)."""
    if va < 0 or va >= VA_SPACE_SIZE:
        raise GpuPageFault(va, "r", "outside GPU VA space")
    offset = va & (PAGE_SIZE - 1)
    l1 = (va >> _OFFSET_BITS) & ((1 << _L1_BITS) - 1)
    l0 = (va >> (_OFFSET_BITS + _L1_BITS)) & ((1 << _L0_BITS) - 1)
    return l0, l1, offset


class PteFormat:
    """Encodes/decodes page-table entries for one GPU family."""

    name = "abstract"
    pte_size = 8
    has_permissions = True

    def encode_pte(self, pa: int, perms: int) -> int:
        raise NotImplementedError

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        """Returns (valid, pa, perms)."""
        raise NotImplementedError

    def encode_table_ptr(self, pa: int) -> int:
        raise NotImplementedError

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        raise NotImplementedError


class MaliPteFormat(PteFormat):
    """Regular Mali Bifrost format: valid, R, W, X at bits 0..3."""

    name = "mali"
    pte_size = 8
    has_permissions = True

    _VALID = 1 << 0
    _R = 1 << 1
    _W = 1 << 2
    _X = 1 << 3
    _TABLE = 1 << 4

    def encode_pte(self, pa: int, perms: int) -> int:
        value = self._VALID | (pa & ~(PAGE_SIZE - 1))
        if perms & PERM_R:
            value |= self._R
        if perms & PERM_W:
            value |= self._W
        if perms & PERM_X:
            value |= self._X
        return value

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if not value & self._VALID:
            return False, 0, 0
        perms = 0
        if value & self._R:
            perms |= PERM_R
        if value & self._W:
            perms |= PERM_W
        if value & self._X:
            perms |= PERM_X
        return True, value & ~0xFFF & ~(self._TABLE), perms

    def encode_table_ptr(self, pa: int) -> int:
        return self._VALID | self._TABLE | (pa & ~(PAGE_SIZE - 1))

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        if not (value & self._VALID and value & self._TABLE):
            return False, 0
        return True, value & ~0xFFF


class MaliLpaePteFormat(MaliPteFormat):
    """LPAE variant (Mali G31): permission bits in a *different order*.

    X sits at bit 1, R at bit 2, W at bit 3. A G31 recording replayed
    on G71 without re-arranging these bits yields wrong permissions --
    the exact incompatibility Section 6.4's patch item (1) fixes.
    """

    name = "mali-lpae"
    _X = 1 << 1
    _R = 1 << 2
    _W = 1 << 3


class AdrenoPteFormat(PteFormat):
    """Adreno SMMU format: 8-byte entries, permissions at bits 6..8.

    A third layout again (Table 1 row 5): recordings do not port
    between families, only between SKUs sharing a format.
    """

    name = "adreno-smmu"
    pte_size = 8
    has_permissions = True

    _VALID = 1 << 0
    _TABLE = 1 << 1
    _R = 1 << 6
    _W = 1 << 7
    _X = 1 << 8

    def encode_pte(self, pa: int, perms: int) -> int:
        value = self._VALID | (pa & ~(PAGE_SIZE - 1))
        if perms & PERM_R:
            value |= self._R
        if perms & PERM_W:
            value |= self._W
        if perms & PERM_X:
            value |= self._X
        return value

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if not value & self._VALID or value & self._TABLE:
            return False, 0, 0
        perms = 0
        if value & self._R:
            perms |= PERM_R
        if value & self._W:
            perms |= PERM_W
        if value & self._X:
            perms |= PERM_X
        return True, value & ~0xFFF, perms

    def encode_table_ptr(self, pa: int) -> int:
        return self._VALID | self._TABLE | (pa & ~(PAGE_SIZE - 1))

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        if not (value & self._VALID and value & self._TABLE):
            return False, 0
        return True, value & ~0xFFF


class V3dPteFormat(PteFormat):
    """v3d format: 4-byte PTEs, page number at bits 4..31, no perms."""

    name = "v3d"
    pte_size = 4
    has_permissions = False

    _VALID = 1 << 0
    _TABLE = 1 << 1

    def encode_pte(self, pa: int, perms: int) -> int:
        del perms  # v3d page tables lack permission bits (Section 6.2).
        return self._VALID | ((pa >> 12) << 4)

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if not value & self._VALID or value & self._TABLE:
            return False, 0, 0
        return True, ((value >> 4) << 12), PERM_R | PERM_W | PERM_X

    def encode_table_ptr(self, pa: int) -> int:
        return self._VALID | self._TABLE | ((pa >> 12) << 4)

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        if not (value & self._VALID and value & self._TABLE):
            return False, 0
        return True, (value >> 4) << 12


PTE_FORMATS: Dict[str, PteFormat] = {
    fmt.name: fmt
    for fmt in (MaliPteFormat(), MaliLpaePteFormat(), V3dPteFormat(),
                AdrenoPteFormat())
}


class GpuMmu:
    """The GPU-side MMU: walks page tables living in physical memory."""

    def __init__(self, memory: PhysicalMemory, fmt: PteFormat):
        self.memory = memory
        self.fmt = fmt
        self.base_pa: Optional[int] = None
        self.enabled = False
        self._tlb: Dict[Tuple[int, str], int] = {}
        self.fault_count = 0
        #: Emulated TLB performance counters (plain ints on the hot
        #: path; the device's CounterTape samples deltas per kernel).
        self.tlb_hits = 0
        self.tlb_misses = 0
        #: Optional observer of GPU-side VA writes: ``fn(va, size)``.
        #: The replayer's nano driver subscribes so its GPU-resident
        #: dump tracking sees buffers the GPU itself overwrites.
        self.write_observer = None
        #: Coherent-TLB mode. The simulated TLB is an implementation
        #: cache, not architectural state: with shootdown, any physical
        #: write to a page this MMU has walked tables from clears the
        #: cache, so translations can never go stale and architectural
        #: flush commands have nothing left to invalidate. Cached
        #: translations then survive across replays, removing a full
        #: page-table walk per touched page per replay. Set False to
        #: get the historical behaviour (flush commands discard the
        #: TLB) -- the replay fast-path benchmark does, to measure the
        #: pre-optimization baseline.
        self.coherent_tlb = True
        self._table_pages: set = set()
        self._subscribe(memory)

    def _subscribe(self, memory: PhysicalMemory) -> None:
        prev = memory.write_hook
        if prev is None:
            memory.write_hook = self._on_phys_write
        else:
            def chained(pa: int, size: int,
                        _prev=prev, _mine=self._on_phys_write) -> None:
                _prev(pa, size)
                _mine(pa, size)
            memory.write_hook = chained

    def _on_phys_write(self, pa: int, size: int) -> None:
        """Shootdown: a write landed in a page-table page we walked."""
        tables = self._table_pages
        if not tables or not self.coherent_tlb:
            return
        first = pa >> 12
        last = (pa + size - 1) >> 12
        if first in tables or (last != first and any(
                page in tables for page in range(first + 1, last + 1))):
            self._tlb.clear()
            tables.clear()

    def set_base(self, base_pa: int) -> None:
        changed = base_pa != self.base_pa
        self.base_pa = base_pa
        self.enabled = base_pa != 0
        if changed or not self.coherent_tlb:
            self._tlb.clear()
            self._table_pages.clear()

    def flush_tlb(self) -> None:
        if self.coherent_tlb:
            # Shootdown keeps the cache coherent with table memory;
            # the architectural flush has nothing to invalidate.
            return
        self._tlb.clear()
        self._table_pages.clear()

    def translate(self, va: int, access: str) -> int:
        """Translate one VA; raises :class:`GpuPageFault` on failure."""
        if not self.enabled or self.base_pa is None:
            raise GpuPageFault(va, access, "MMU disabled")
        page_va = va & ~(PAGE_SIZE - 1)
        cached = self._tlb.get((page_va, access))
        if cached is not None:
            self.tlb_hits += 1
            return cached | (va & (PAGE_SIZE - 1))
        self.tlb_misses += 1
        l0, l1, offset = split_va(va)
        l0_entry = self.memory.read_u64(self.base_pa + l0 * 8) \
            if self.fmt.pte_size == 8 else \
            self.memory.read_u32(self.base_pa + l0 * 4)
        valid, l1_pa = self.fmt.decode_table_ptr(l0_entry)
        if not valid:
            self.fault_count += 1
            raise GpuPageFault(va, access, "no L1 table")
        pte = self.memory.read_u64(l1_pa + l1 * 8) \
            if self.fmt.pte_size == 8 else \
            self.memory.read_u32(l1_pa + l1 * 4)
        valid, pa, perms = self.fmt.decode_pte(pte)
        if not valid:
            self.fault_count += 1
            raise GpuPageFault(va, access, "invalid PTE")
        if self.fmt.has_permissions:
            needed = {"r": PERM_R, "w": PERM_W, "x": PERM_X}[access]
            if not perms & needed:
                self.fault_count += 1
                raise GpuPageFault(va, access, "permission denied")
        self._table_pages.add(self.base_pa >> 12)
        self._table_pages.add(l1_pa >> 12)
        self._tlb[(page_va, access)] = pa
        return pa | offset

    # -- bulk access (gather/scatter across non-contiguous pages) ----------

    def read_va(self, va: int, size: int, access: str = "r") -> bytes:
        # Page-at-a-time gather. The TLB probe is inlined: the shader
        # cores stream entire weight tensors through here, so the
        # per-page constant factor is the GPU model's hot path.
        tlb = self._tlb
        mem_read = self.memory.read
        page_mask = PAGE_SIZE - 1
        chunks = []
        cursor = va
        remaining = size
        while remaining > 0:
            offset = cursor & page_mask
            chunk = min(remaining, PAGE_SIZE - offset)
            base = tlb.get((cursor - offset, access))
            if base is None:
                pa = self.translate(cursor, access)
            else:
                self.tlb_hits += 1
                pa = base | offset
            chunks.append(mem_read(pa, chunk))
            cursor += chunk
            remaining -= chunk
        return b"".join(chunks)

    def write_va(self, va: int, data: bytes) -> None:
        if self.write_observer is not None:
            self.write_observer(va, len(data))
        cursor = va
        offset = 0
        while offset < len(data):
            pa = self.translate(cursor, "w")
            chunk = min(len(data) - offset,
                        PAGE_SIZE - (cursor & (PAGE_SIZE - 1)))
            self.memory.write(pa, data[offset:offset + chunk])
            cursor += chunk
            offset += chunk


class PageTableBuilder:
    """CPU-side construction and maintenance of GPU page tables.

    Used by the full driver *and* by the replayer's nano driver; both
    sides need exactly the interface knowledge Table 1 lists -- the
    register pointing at the tables and the PTE encoding.
    """

    def __init__(self, memory: PhysicalMemory, allocator: PageAllocator,
                 fmt: PteFormat, tag: str = "pgtable"):
        self.memory = memory
        self.allocator = allocator
        self.fmt = fmt
        self.tag = tag
        self.root_pa = allocator.alloc_page(tag)
        self._l1_tables: Dict[int, int] = {}  # l0 index -> l1 table pa
        self._mappings: Dict[int, Tuple[int, int]] = {}  # va page -> (pa, perms)

    def _entry_io(self, pa: int) -> Tuple:
        if self.fmt.pte_size == 8:
            return self.memory.read_u64, self.memory.write_u64
        return self.memory.read_u32, self.memory.write_u32

    def map_page(self, va: int, pa: int, perms: int) -> None:
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise SocError("mappings must be page-aligned")
        l0, l1, _ = split_va(va)
        _, write_entry = self._entry_io(0)
        l1_pa = self._l1_tables.get(l0)
        if l1_pa is None:
            l1_pa = self.allocator.alloc_page(self.tag)
            self._l1_tables[l0] = l1_pa
            write_entry(self.root_pa + l0 * self.fmt.pte_size,
                        self.fmt.encode_table_ptr(l1_pa))
        write_entry(l1_pa + l1 * self.fmt.pte_size,
                    self.fmt.encode_pte(pa, perms))
        self._mappings[va] = (pa, perms)

    def unmap_page(self, va: int) -> None:
        if va not in self._mappings:
            raise SocError(f"VA {va:#x} is not mapped")
        l0, l1, _ = split_va(va)
        _, write_entry = self._entry_io(0)
        write_entry(self._l1_tables[l0] + l1 * self.fmt.pte_size, 0)
        del self._mappings[va]

    def lookup(self, va: int) -> Optional[Tuple[int, int]]:
        """(pa, perms) of a mapped page VA, or None."""
        return self._mappings.get(va & ~(PAGE_SIZE - 1))

    def mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (va, pa, perms) for every mapped page, VA-sorted."""
        for va in sorted(self._mappings):
            pa, perms = self._mappings[va]
            yield va, pa, perms

    def table_pages(self) -> List[int]:
        """Physical pages holding the tables themselves."""
        return [self.root_pa] + sorted(self._l1_tables.values())

    def destroy(self) -> None:
        """Free the table pages (mapped data pages belong to the caller)."""
        self.allocator.free_pages(self.table_pages())
        self._l1_tables.clear()
        self._mappings.clear()


def walk_page_table(memory: PhysicalMemory, root_pa: int,
                    fmt: PteFormat) -> List[Tuple[int, int, int]]:
    """Walk a page table in memory, returning (va, pa, perms) triples.

    This is what the recorder does to capture the GPU virtual address
    space: it only needs the root register value and the PTE encoding.
    """
    entries: List[Tuple[int, int, int]] = []
    read_entry = memory.read_u64 if fmt.pte_size == 8 else memory.read_u32
    for l0 in range(1 << _L0_BITS):
        l0_value = read_entry(root_pa + l0 * fmt.pte_size)
        valid, l1_pa = fmt.decode_table_ptr(l0_value)
        if not valid:
            continue
        for l1 in range(1 << _L1_BITS):
            pte = read_entry(l1_pa + l1 * fmt.pte_size)
            valid, pa, perms = fmt.decode_pte(pte)
            if not valid:
                continue
            va = (l0 << (_OFFSET_BITS + _L1_BITS)) | (l1 << _OFFSET_BITS)
            entries.append((va, pa, perms))
    return entries
