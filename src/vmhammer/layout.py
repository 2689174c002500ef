"""VM memory layouts over physical address space, and mitigation planners.

A layout is a list of disjoint regions, each owned by a VM, by the hypervisor,
or marked unused. Planners place VMs so that an attacker VM cannot disturb a
victim VM: plan_siloz gives every VM disjoint (bank tuple, subarray) sets,
plan_citadel leaves whole guard rows between row-contiguous allocations.
Both scan one array of per-block ids (group ids for siloz, chunk rows for
citadel) built once from the mapping's columns. plan_layout is the one
dispatch from a mitigation name to its planner.

Footprints (which row of which bank a region touches) are computed exactly for
any validated linear mapping by splitting the region into aligned power-of-two
blocks and enumerating each block's image with ``gf2.span`` over the mapping's
columns, XORed with the image of the block's base. A footprint keeps the row
tuples as a sorted array of packed coordinate vectors with the column bits
cleared; aggressor discovery works on those arrays and caches nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .dram import InvariantError
from .mapping import AddressMapping, DramCoordinate, Geometry

__all__ = [
    "UNUSED",
    "HYPERVISOR",
    "UNALLOCATED",
    "MITIGATIONS",
    "Region",
    "MemoryLayout",
    "RowFootprint",
    "SilozPlan",
    "AggressorSite",
    "PlanError",
    "check_layout",
    "classify_pa",
    "row_footprint",
    "pack_layout",
    "plan_layout",
    "plan_siloz",
    "plan_citadel",
    "find_aggressors",
    "boundary_fallback",
    "row_chunk_stride",
    "group_stride",
]

UNUSED = "unused"
HYPERVISOR = "hypervisor"
UNALLOCATED = "unallocated"
MITIGATIONS = ("none", "siloz", "citadel")

BankTuple = tuple[int, int, int, int]


class PlanError(ValueError):
    """No layout satisfying the requested mitigation exists."""


@dataclass(frozen=True)
class Region:
    owner: str
    start_pa: int
    size: int

    @property
    def end_pa(self) -> int:
        return self.start_pa + self.size

    def contains(self, pa: int) -> bool:
        return self.start_pa <= pa < self.end_pa

    def to_dict(self, pa_digits: int = 8) -> dict:
        return {
            "owner": self.owner,
            "start_pa": f"0x{self.start_pa:0{pa_digits}x}",
            "size": self.size,
        }


@dataclass(frozen=True)
class MemoryLayout:
    regions: tuple[Region, ...]

    def region_of(self, owner: str) -> Region:
        for region in self.regions:
            if region.owner == owner:
                return region
        raise KeyError(f"no region owned by {owner!r}")

    def to_dict(self, pa_digits: int = 8) -> dict:
        return {"regions": [r.to_dict(pa_digits) for r in self.regions]}


def classify_pa(layout: MemoryLayout, pa: int) -> str:
    """Owner of the byte at pa: a VM id, unused, hypervisor, or unallocated."""
    for region in layout.regions:
        if region.contains(pa):
            return region.owner
    return UNALLOCATED


def check_layout(layout: MemoryLayout, geometry: Geometry) -> list[str]:
    """Structural violations of a layout, as human-readable strings.

    Checks bounds, row-granularity alignment (multiples of ``columns``, one
    bank's row worth), pairwise disjointness, and duplicate VM owners. An
    empty list means the layout is well formed.
    """
    violations = []
    total = geometry.total_bytes
    gran = geometry.columns
    for i, region in enumerate(layout.regions):
        label = f"regions[{i}] ({region.owner})"
        if region.size <= 0:
            violations.append(f"{label}: size must be positive, got {region.size}")
            continue
        if region.start_pa % gran or region.size % gran:
            violations.append(
                f"{label}: start 0x{region.start_pa:x}/size 0x{region.size:x} "
                f"not aligned to the 0x{gran:x}-byte row granularity"
            )
        if region.start_pa < 0 or region.end_pa > total:
            violations.append(
                f"{label}: [0x{region.start_pa:x}, 0x{region.end_pa:x}) exceeds "
                f"the 0x{total:x}-byte address space"
            )
    ordered = sorted(
        (r for r in layout.regions if r.size > 0), key=lambda r: (r.start_pa, r.end_pa)
    )
    for a, b in zip(ordered, ordered[1:]):
        if b.start_pa < a.end_pa:
            violations.append(
                f"regions overlap: {a.owner} [0x{a.start_pa:x}, 0x{a.end_pa:x}) and "
                f"{b.owner} [0x{b.start_pa:x}, 0x{b.end_pa:x})"
            )
    seen: set[str] = set()
    for region in layout.regions:
        if region.owner == UNUSED:
            continue
        if region.owner in seen:
            violations.append(f"duplicate owner: {region.owner}")
        seen.add(region.owner)
    return violations


# -- footprints ---------------------------------------------------------------


def _stride_free_of(mapping: AddressMapping, coord_bits: int) -> int:
    """Largest power-of-two stride whose aligned blocks keep constant every
    coordinate-vector bit set in ``coord_bits``: 2**k for the lowest PA bit k
    that feeds one of them."""
    for k, column in enumerate(mapping.columns):
        if column & coord_bits:
            return 1 << k
    return mapping.geometry.total_bytes


def row_chunk_stride(mapping: AddressMapping) -> int:
    """Largest stride whose aligned blocks keep the row index constant."""
    geo = mapping.geometry
    return _stride_free_of(mapping, (geo.rows - 1) << geo.coord_offsets[4])


def group_stride(mapping: AddressMapping) -> int:
    """Largest stride whose aligned blocks stay inside one subarray group."""
    geo = mapping.geometry
    above_subarray = geo.rows - geo.rows_per_subarray  # row bits naming the subarray
    return _stride_free_of(mapping, above_subarray << geo.coord_offsets[4])


def _aligned_blocks(start: int, size: int) -> list[tuple[int, int]]:
    """Split [start, start+size) into (base, log2size) aligned blocks."""
    blocks = []
    pos, end = start, start + size
    while pos < end:
        k = (pos & -pos).bit_length() - 1 if pos else (end - pos).bit_length()
        while (1 << k) > end - pos:
            k -= 1
        blocks.append((pos, k))
        pos += 1 << k
    return blocks


@dataclass(frozen=True, eq=False)
class RowFootprint:
    """Exact set of row tuples a PA region touches: a sorted int64 array of
    distinct packed coordinate vectors with the column bits cleared, so
    sorted by row first (the top field)."""

    geometry: Geometry
    packed: np.ndarray

    # cached_property writes the instance dict directly, so it coexists with
    # frozen
    @cached_property
    def groups(self) -> frozenset[tuple[BankTuple, int]]:
        geo = self.geometry
        # clearing the in-subarray row bits leaves one vector per group
        in_subarray = (geo.rows_per_subarray - 1) << geo.coord_offsets[4]
        out = set()
        for vec in set((self.packed & ~in_subarray).tolist()):
            ch, rk, bg, bk, row, _ = geo.unpack(vec)
            out.add(((ch, rk, bg, bk), geo.subarray_of(row)))
        return frozenset(out)


def row_footprint(mapping: AddressMapping, region: Region) -> RowFootprint:
    """Exact footprint of a region under a validated mapping."""
    geo = mapping.geometry
    if region.size > 0 and (region.start_pa < 0 or region.end_pa > geo.total_bytes):
        raise ValueError(
            f"region [0x{region.start_pa:x}, 0x{region.end_pa:x}) exceeds the address space"
        )
    row_tuple = (1 << geo.coord_offsets[5]) - 1  # every coordinate bit but the column
    images = [column & row_tuple for column in mapping.columns]
    parts = [np.zeros(0, dtype=np.int64)]
    for base, k in _aligned_blocks(region.start_pa, region.size):
        anchor = geo.pack(mapping.pa_to_coord(base)) & row_tuple
        parts.append(gf2.span(gf2.reduce_basis(images[:k])) ^ anchor)
    # sort and drop neighbouring repeats: np.unique is far slower on int64
    packed = np.sort(np.concatenate(parts))
    keep = np.ones(len(packed), dtype=bool)
    keep[1:] = packed[1:] != packed[:-1]
    return RowFootprint(geo, packed[keep])


# -- planners -----------------------------------------------------------------


def _block_ids(mapping: AddressMapping, block: int, coord_bits: int) -> np.ndarray:
    """One id per aligned ``block``-byte block, in PA order.

    A block's bytes map, masked to ``coord_bits``, onto one coset of the span
    of the masked low columns; its id is that coset's least member. Two blocks
    therefore either share every masked vector or share none.
    """
    k = block.bit_length() - 1
    masked = [column & coord_bits for column in mapping.columns]
    ids = gf2.span(masked[k:])
    for vector in gf2.reduce_basis(masked[:k]):
        np.minimum(ids, ids ^ vector, out=ids)
    return ids


def _check_vm_sizes(mapping: AddressMapping, vm_sizes: Sequence[int], unit: int) -> None:
    geo = mapping.geometry
    if not vm_sizes:
        raise PlanError("no VM sizes given")
    for i, size in enumerate(vm_sizes):
        if size <= 0 or size % unit:
            raise PlanError(
                f"vm{i} size 0x{size:x} must be a positive multiple of 0x{unit:x}"
            )
    if sum(vm_sizes) > geo.total_bytes:
        raise PlanError(
            f"requested 0x{sum(vm_sizes):x} bytes exceed the 0x{geo.total_bytes:x}-byte space"
        )


def _check_guard_rows(guard_global_rows: int) -> None:
    """At least one guard row; checked under every mitigation, not only the
    one that places guard rows."""
    if guard_global_rows < 1:
        raise PlanError(f"guard_global_rows must be >= 1, got {guard_global_rows}")


@dataclass(frozen=True)
class SilozPlan:
    layout: MemoryLayout
    groups: dict[str, frozenset[tuple[BankTuple, int]]]
    contained: dict[str, bool]

    def to_dict(self, pa_digits: int = 8) -> dict:
        return {
            "layout": self.layout.to_dict(pa_digits),
            "groups": {
                vm: sorted(
                    [":".join(str(x) for x in bt), sub] for bt, sub in groups
                )
                for vm, groups in self.groups.items()
            },
            "contained": dict(self.contained),
        }


def pack_layout(mapping: AddressMapping, vm_sizes: Sequence[int]) -> MemoryLayout:
    """Unmitigated baseline: VMs packed back-to-back from PA 0."""
    mapping.inverse_columns  # fail fast on non-invertible mappings
    _check_vm_sizes(mapping, vm_sizes, mapping.geometry.columns)
    regions = []
    pos = 0
    for i, size in enumerate(vm_sizes):
        regions.append(Region(f"vm{i}", pos, size))
        pos += size
    return MemoryLayout(tuple(regions))


def plan_siloz(mapping: AddressMapping, vm_sizes: Sequence[int]) -> SilozPlan:
    """Greedy subarray-group isolation: ascending PA, lowest feasible start.

    Every VM gets one contiguous PA range whose (bank tuple, subarray) set is
    disjoint from every other VM's. The candidate starts are the multiples of
    the group stride and the ends of VMs already placed; each VM takes the
    lowest one whose blocks share no group with a placed VM. A VM whose range
    stays inside a single subarray group is reported as contained.
    """
    mapping.inverse_columns  # fail fast on non-invertible mappings
    geo = mapping.geometry
    # an invertible mapping has at most log2(columns) low PA bits that feed
    # only column bits, so no aligned block wider than a row stays in one row
    gran = geo.columns
    _check_vm_sizes(mapping, vm_sizes, gran)
    stride = max(group_stride(mapping), gran)
    # every candidate start and every VM end is a multiple of block, so each
    # candidate range is a run of whole blocks
    block = min([stride] + [size & -size for size in vm_sizes])
    in_subarray = (geo.rows_per_subarray - 1) << geo.coord_offsets[4]
    group_bits = ((1 << geo.coord_offsets[5]) - 1) & ~in_subarray
    ids, labels = np.unique(_block_ids(mapping, block, group_bits), return_inverse=True)
    used = np.zeros(len(ids), dtype=bool)
    n_blocks = len(labels)
    candidate = np.zeros(n_blocks + 1, dtype=bool)
    candidate[:: stride // block] = True
    placed: list[Region] = []
    groups: dict[str, frozenset] = {}
    contained: dict[str, bool] = {}
    for i, size in enumerate(vm_sizes):
        owner = f"vm{i}"
        n = size // block
        # a placed VM's own blocks are used, so no free window overlaps it
        taken = np.concatenate(([0], np.cumsum(used[labels])))
        free = candidate[: n_blocks - n + 1] & (taken[n:] == taken[: n_blocks - n + 1])
        if not free.any():
            raise PlanError(
                f"cannot place {owner} (0x{size:x} bytes) in a free subarray-group set; "
                f"group granularity is 0x{stride:x} bytes"
            )
        first = int(free.argmax())
        used[labels[first : first + n]] = True
        candidate[first + n] = True
        region = Region(owner, first * block, size)
        placed.append(region)
        groups[owner] = row_footprint(mapping, region).groups
        contained[owner] = len({sub for _, sub in groups[owner]}) == 1
    layout = MemoryLayout(tuple(sorted(placed, key=lambda r: r.start_pa)))
    return SilozPlan(layout, groups, contained)


def plan_citadel(
    mapping: AddressMapping, vm_sizes: Sequence[int], guard_global_rows: int
) -> MemoryLayout:
    """Row-contiguous VM ranges separated by whole unused guard rows.

    Walks PA space in row-chunks (the largest stride keeping the row index
    constant). Each VM takes the lowest chunk window whose row indices form a
    contiguous range lying strictly more than guard_global_rows above the
    previous VM's highest row. Chunks skipped between consecutive VM ranges
    (the guard rows plus any stragglers of earlier rows) are marked unused;
    guard-row chunks that are not between the VM ranges stay unallocated.
    """
    mapping.inverse_columns  # fail fast on non-invertible mappings
    geo = mapping.geometry
    _check_guard_rows(guard_global_rows)
    stride = row_chunk_stride(mapping)
    if stride < geo.columns:
        raise PlanError(
            "mapping routes row bits below the column width "
            f"(row chunk 0x{stride:x} < 0x{geo.columns:x}); global rows are not "
            "representable as whole row-aligned chunks"
        )
    _check_vm_sizes(mapping, vm_sizes, stride)
    offset = geo.coord_offsets[4]
    rows = _block_ids(mapping, stride, (geo.rows - 1) << offset) >> offset
    n_chunks = len(rows)
    regions: list[Region] = []
    pos = 0
    prev_hi = -1 - guard_global_rows  # so the first VM needs min_row > -1
    for i, size in enumerate(vm_sizes):
        owner = f"vm{i}"
        n = size // stride
        cand = pos
        bound = prev_hi + guard_global_rows
        while True:
            if cand + n > n_chunks:
                raise PlanError(
                    f"cannot place {owner}: no chunk window clears guard rows "
                    f"{prev_hi + 1}..{bound} (offending row {bound})"
                )
            window = rows[cand : cand + n]
            below = np.nonzero(window <= bound)[0]
            if below.size:
                cand += int(below[-1]) + 1
                continue
            distinct = np.unique(window)
            if int(distinct[-1]) - int(distinct[0]) + 1 != len(distinct):
                cand += 1
                continue
            break
        if cand > pos:
            regions.append(Region(UNUSED, pos * stride, (cand - pos) * stride))
        regions.append(Region(owner, cand * stride, size))
        pos = cand + n
        prev_hi = int(rows[cand : cand + n].max())
    return MemoryLayout(tuple(regions))


def plan_layout(
    mapping: AddressMapping, mitigation: str, vm_sizes: Sequence[int], guard_global_rows: int
) -> tuple[MemoryLayout, SilozPlan | None]:
    """The layout a mitigation plans for the VMs, and the siloz plan (None
    for the other mitigations).

    Every planner checks the sizes first, so a malformed layout here is a
    planner bug.
    """
    _check_guard_rows(guard_global_rows)
    siloz_plan = None
    if mitigation == "none":
        layout = pack_layout(mapping, vm_sizes)
    elif mitigation == "siloz":
        siloz_plan = plan_siloz(mapping, vm_sizes)
        layout = siloz_plan.layout
    elif mitigation == "citadel":
        layout = plan_citadel(mapping, vm_sizes, guard_global_rows)
    else:
        raise ValueError(f"unknown mitigation {mitigation!r}")
    violations = check_layout(layout, mapping.geometry)
    if violations:
        raise InvariantError("planned layout is malformed: " + "; ".join(violations))
    return layout, siloz_plan


# -- aggressor discovery -------------------------------------------------------


@dataclass(frozen=True)
class AggressorSite:
    """An attacker-owned row adjacent to victim rows, with a representative PA."""

    pa: int
    coord: DramCoordinate
    victim_rows: tuple[int, ...]

    def to_dict(self, geometry: Geometry, pa_digits: int) -> dict:
        return {
            "pa": f"0x{self.pa:0{pa_digits}x}",
            "coord": self.coord.to_dict(geometry),
            "victim_rows": list(self.victim_rows),
        }


def _site(mapping: AddressMapping, vec: int, victim_rows: tuple[int, ...]) -> AggressorSite:
    coord = DramCoordinate(*mapping.geometry.unpack(vec))  # column bits are clear
    return AggressorSite(mapping.coord_to_pa(coord), coord, victim_rows)


def find_aggressors(
    mapping: AddressMapping,
    attacker: RowFootprint,
    victim: RowFootprint,
    blast_radius: int,
) -> list[AggressorSite]:
    """Attacker rows within blast radius of a victim row, exhaustively, from
    the attacker's and the victim's footprints.

    Adjacency requires the same bank tuple and the same subarray, and a row
    distance of 1..blast_radius (a row shared by both VMs is not adjacency).
    Each site carries a representative PA at column 0 of the aggressor row.
    Sites are in (channel, rank, bankgroup, bank, row) order.
    """
    geo = mapping.geometry
    attacker, victim = attacker.packed, victim.packed
    offset = geo.coord_offsets[4]
    # the row is the top field, so adding d << offset moves a vector to row
    # + d of the same bank tuple; a row pushed out of [0, rows) leaves the
    # range of victim vectors
    deltas = [d for d in range(-blast_radius, blast_radius + 1) if d]
    hit = {d: np.isin(attacker + (d << offset), victim) for d in deltas}
    sites = []
    for i in np.flatnonzero(np.any([hit[d] for d in deltas], axis=0)).tolist():
        vec = int(attacker[i])
        row = vec >> offset
        victims = tuple(v for v in geo.neighbours(row, blast_radius) if hit[v - row][i])
        if victims:
            sites.append(_site(mapping, vec, victims))
    return sorted(sites, key=lambda site: site.coord)


def _nearest(values: np.ndarray, x: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """For each x, the nearest entry of the sorted ``values`` among those with
    the same bits above ``shift``, the lower one on a tie; and whether one
    exists."""
    i = np.searchsorted(values, x)
    lo = values[np.maximum(i - 1, 0)]
    hi = values[np.minimum(i, len(values) - 1)]
    lo_ok = (i > 0) & (lo >> shift == x >> shift)
    hi_ok = (i < len(values)) & (hi >> shift == x >> shift)
    take_lo = lo_ok & (~hi_ok | (x - lo <= hi - x))
    return np.where(take_lo, lo, hi), lo_ok | hi_ok


def boundary_fallback(
    mapping: AddressMapping, attacker: RowFootprint, victim: RowFootprint
) -> list[AggressorSite]:
    """Attacker rows nearest to the victim footprint, same subarray preferred,
    from the attacker's and the victim's footprints.

    For when no attacker row is adjacent to a victim row. Each attacker row
    is paired with its nearest victim row in its bank tuple, or in any bank
    tuple when its own holds none, the lower row on a tie. The rows ranking
    lowest by (other subarray, row distance) are the sites, in coordinate
    order and with no victim rows.
    """
    geo = mapping.geometry
    attacker, victim = attacker.packed, victim.packed
    offset, width = geo.coord_offsets[4], geo.coord_width("row")
    rows = attacker >> offset

    def bank_major(packed: np.ndarray) -> np.ndarray:
        return (packed & ((1 << offset) - 1)) << width | packed >> offset

    nearest, in_bank = _nearest(np.sort(bank_major(victim)), bank_major(attacker), width)
    nearest &= geo.rows - 1
    # the footprint is sorted by row, its top field
    nearest[~in_bank], _ = _nearest(victim >> offset, rows[~in_bank], width)
    per = geo.rows_per_subarray
    other_subarray = (nearest // per != rows // per).astype(np.int64)
    rank = other_subarray << width | np.abs(rows - nearest)
    chosen = attacker[rank == rank.min()].tolist()
    return sorted((_site(mapping, vec, ()) for vec in chosen), key=lambda site: site.coord)
