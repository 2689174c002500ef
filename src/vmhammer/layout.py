"""VM memory layouts over physical address space, and mitigation planners.

A layout is a list of disjoint regions, each owned by a VM or marked unused.
Planners place VMs so that an attacker VM cannot disturb a victim VM:
plan_siloz gives every VM disjoint (bank tuple, subarray) sets, plan_citadel
leaves whole guard rows between row-contiguous allocations. Both read one
array of per-block ids, the span of the mapping's high columns each reduced
once by ``gf2.least``: plan_siloz places a VM in one pass, plan_citadel
tests the chunk-row windows at every start of a block of starts at once, in
doubling blocks. plan_siloz reports the groups of the blocks it reserved,
every member of their id cosets (``gf2.coset``) as (bank tuple, subarray).
plan_layout is the one dispatch from a mitigation name to its planner.

Footprints (which row of which bank a region touches) are computed exactly for
any validated linear mapping by splitting the region into aligned power-of-two
blocks. A block's row tuples are a coset of the span of the mapping's low
columns, which ``gf2.coset`` lists strictly increasing. A footprint is a
strictly increasing int64 array of packed coordinate vectors with the column
bits cleared: one block's coset as it comes, or several blocks' cosets
merged by a stable sort.

find_aggressors is the one call that picks the rows to hammer: it takes two
footprints, returns the attacker rows adjacent to the victim or, when none is,
the nearest ones, and caches nothing. It bisects the sorted footprints with
``np.searchsorted``, and its nearest-row fallback ranks only the ends of the
runs of consecutive rows in a bank tuple (and the rows that may tie at
distance 0), since any other attacker row has a neighbour that ranks lower.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import gf2
from .mapping import AddressMapping, DramCoordinate, Geometry, InvariantError, check_int

__all__ = [
    "UNUSED",
    "UNALLOCATED",
    "MITIGATIONS",
    "Region",
    "MemoryLayout",
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
    "row_chunk_stride",
    "group_stride",
]

UNUSED = "unused"
UNALLOCATED = "unallocated"
MITIGATIONS = ("none", "siloz", "citadel")
MAX_PLAN_BLOCKS = 1 << 24  # the most blocks a planner holds ids for
MAX_SEARCH_STARTS = 1 << 20  # plan_citadel tests at most max(this, VM chunks) starts at once

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
    """Owner of the byte at pa: a VM id, unused, or unallocated."""
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
                f"{label}: start {hex(region.start_pa)}/size {hex(region.size)} "
                f"not aligned to the 0x{gran:x}-byte row granularity"
            )
        if region.start_pa < 0 or region.end_pa > total:
            violations.append(
                f"{label}: [{hex(region.start_pa)}, {hex(region.end_pa)}) exceeds "
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


def row_footprint(mapping: AddressMapping, region: Region) -> np.ndarray:
    """Exact set of row tuples a region touches under a validated mapping: a
    strictly increasing int64 array of packed coordinate vectors with the
    column bits cleared, so sorted by row first (the top field).

    Each aligned block's row tuples come out of ``gf2.coset`` strictly
    increasing, so a one-block region needs no sort and several blocks need
    only a stable sort, which merges their runs, before repeats are dropped.
    """
    geo = mapping.geometry
    check_int("region start_pa", region.start_pa)
    check_int("region size", region.size, 0)
    if region.size > 0 and (region.start_pa < 0 or region.end_pa > geo.total_bytes):
        raise ValueError(
            f"region [0x{region.start_pa:x}, 0x{region.end_pa:x}) exceeds the address space"
        )
    row_tuple = (1 << geo.coord_offsets[5]) - 1  # every coordinate bit but the column
    images = [column & row_tuple for column in mapping.columns]
    parts = [np.zeros(0, dtype=np.int64)]
    for base, k in _aligned_blocks(region.start_pa, region.size):
        anchor = gf2.image(mapping._forward_tables, base) & row_tuple
        parts.append(gf2.coset(images[:k], anchor))
    if len(parts) <= 2:  # no block, or one: strictly increasing already
        return parts[-1]
    # a stable sort merges the blocks' ascending runs
    return _distinct(np.sort(np.concatenate(parts), kind="stable"))


def _distinct(packed: np.ndarray) -> np.ndarray:
    """The distinct entries of the ascending packed: neighbouring repeats
    dropped (np.unique is ~20x slower and imports numpy.ma)."""
    keep = np.ones(len(packed), dtype=bool)
    keep[1:] = packed[1:] != packed[:-1]
    return packed[keep]


# -- planners -----------------------------------------------------------------


def _block_ids(
    mapping: AddressMapping, block: int, coord_bits: int
) -> tuple[np.ndarray, list[int]]:
    """One id per aligned ``block``-byte block, in PA order, and the masked
    low columns.

    A block's bytes map, masked to ``coord_bits``, onto one coset of the span
    of the masked low columns; its id is that coset's least member. Two
    blocks therefore either share every masked vector or share none. Taking
    the least member is linear, so reducing each masked high column once and
    spanning the results gives every id, with no pass per basis vector.
    """
    k = block.bit_length() - 1
    n_blocks = mapping.geometry.total_bytes // block
    if n_blocks > MAX_PLAN_BLOCKS:  # checked before the id array is allocated
        raise PlanError(f"the space holds {n_blocks} blocks of 0x{block:x} bytes; "
                        f"a plan holds at most {MAX_PLAN_BLOCKS}")
    masked = [column & coord_bits for column in mapping.columns]
    return gf2.span(gf2.least(masked[k:], masked[:k])), masked[:k]


def _check_vm_sizes(mapping: AddressMapping, vm_sizes: Sequence[int], unit: int) -> None:
    geo = mapping.geometry
    if not isinstance(vm_sizes, (list, tuple)):
        raise PlanError(f"vm_sizes must be a list of sizes, got {vm_sizes!r}")
    if not vm_sizes:
        raise PlanError("no VM sizes given")
    for i, size in enumerate(vm_sizes):
        check_int(f"vm{i} size", size, error=PlanError)
        if size <= 0 or size % unit:
            raise PlanError(
                f"vm{i} size {hex(size)} must be a positive multiple of 0x{unit:x}"
            )
    if sum(vm_sizes) > geo.total_bytes:
        raise PlanError(
            f"requested 0x{sum(vm_sizes):x} bytes exceed the 0x{geo.total_bytes:x}-byte space"
        )


@dataclass(frozen=True)
class SilozPlan:
    layout: MemoryLayout
    groups: dict[str, frozenset[tuple[BankTuple, int]]]

    @property
    def contained(self) -> dict[str, bool]:
        """Whether each VM stays inside a single subarray group."""
        return {vm: len({sub for _, sub in groups}) == 1 for vm, groups in self.groups.items()}

    def to_dict(self, pa_digits: int = 8) -> dict:
        return {
            "layout": self.layout.to_dict(pa_digits),
            "groups": {
                vm: sorted(
                    [":".join(str(x) for x in bt), sub] for bt, sub in groups
                )
                for vm, groups in self.groups.items()
            },
            "contained": self.contained,
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
    lowest one whose blocks share no group with a placed VM, and its groups
    are those of exactly these blocks. A VM whose range stays inside a single
    subarray group is reported as contained.
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
    block_ids, low = _block_ids(mapping, block, group_bits)
    members = gf2.coset(low, 0)
    n_blocks = len(block_ids)
    blocked = np.zeros(n_blocks, dtype=bool)  # shares a group with a placed VM
    taken = np.zeros(n_blocks + 1, dtype=np.int64)  # blocked blocks before each one
    candidate = np.zeros(n_blocks + 1, dtype=bool)
    candidate[:: stride // block] = True
    placed: list[Region] = []
    groups: dict[str, frozenset] = {}
    for i, size in enumerate(vm_sizes):
        owner = f"vm{i}"
        n = size // block
        # a placed VM's own blocks are blocked, so no free window overlaps it
        np.cumsum(blocked, out=taken[1:])
        free = candidate[: n_blocks - n + 1] & (taken[n:] == taken[: n_blocks - n + 1])
        if not free.any():
            raise PlanError(
                f"cannot place {owner} (0x{size:x} bytes) in a free subarray-group set; "
                f"group granularity is 0x{stride:x} bytes"
            )
        first = int(free.argmax())
        mine = _distinct(np.sort(block_ids[first : first + n]))
        blocked |= np.isin(block_ids, mine)
        candidate[first + n] = True
        placed.append(Region(owner, first * block, size))
        # every member of the reserved blocks' cosets, as (bank tuple, subarray)
        coords = map(geo.unpack, (mine[:, None] ^ members).ravel().tolist())
        groups[owner] = frozenset((c.bank_tuple, geo.subarray_of(c.row)) for c in coords)
    return SilozPlan(MemoryLayout(tuple(sorted(placed, key=lambda r: r.start_pa))), groups)


def _window_extremum(ufunc, seg: np.ndarray, n: int, starts: int) -> np.ndarray:
    """``ufunc.reduce(seg[s : s + n])`` for each start s < ``starts``; seg
    holds at least ``starts + n - 1`` entries.

    van Herk/Gil-Werman: cut the starts into blocks of ``width`` = min(starts,
    n). The window at a start s of block [b, b + width) is the suffix
    [s, b + width) of the block, then [b + width, b + n - 1), which is not
    empty only when a single block is narrower than n - 1 (one reduce), then
    the prefix [b + n - 1, s + n) of the width entries from b + n - 1. One
    accumulate pass gives every suffix, and one every prefix.
    """
    width = min(starts, n)
    blocks = -(-starts // width)
    span = blocks * width
    if len(seg) < span + n - 1:  # pad a short last block; no kept window reads the pad
        seg = np.resize(seg, span + n - 1)
    head = seg[:span].reshape(blocks, width)[:, ::-1]
    tail = seg[n - 1 : n - 1 + span].reshape(blocks, width)
    out = ufunc.accumulate(tail, axis=1)
    ufunc(out, ufunc.accumulate(head, axis=1)[:, ::-1], out=out)
    if width < n - 1:
        ufunc(out, ufunc.reduce(seg[width : n - 1]), out=out)
    return out.ravel()[:starts]


def _window_repeats(seg: np.ndarray, n: int) -> np.ndarray:
    """For each window seg[s : s + n], how many of its entries repeat an
    earlier entry of the window.

    A stable argsort puts each entry right after its previous occurrence; a
    pair fewer than n apart is a repeat in the windows from (later - n + 1)
    to (earlier), which a difference array counts for every start at once.
    """
    starts = len(seg) - n + 1
    order = np.argsort(seg, kind="stable")
    ranked = seg[order]
    at = np.flatnonzero(ranked[1:] == ranked[:-1])
    later, earlier = order[at + 1], order[at]
    near = later - earlier < n
    first = np.maximum(later[near] - (n - 1), 0)
    past = np.minimum(earlier[near], starts - 1) + 1
    edges = np.bincount(first, minlength=starts + 1) - np.bincount(past, minlength=starts + 1)
    return np.cumsum(edges[:starts])


def _fitting_windows(seg: np.ndarray, n: int, bound: int) -> np.ndarray:
    """Whether each window seg[s : s + n] lies above bound and holds every
    integer from its least entry to its greatest.

    Such a window's greatest minus least entry plus one is its distinct
    count, n minus its repeats. The tests run cheapest first, each from the
    first window that passed the ones before: the least entry, the greatest,
    then the repeats.
    """
    starts = len(seg) - n + 1
    lo = _window_extremum(np.minimum, seg, n, starts)
    fits = lo > bound
    s = int(fits.argmax())
    if fits[s]:
        span = _window_extremum(np.maximum, seg[s:], n, starts - s) - lo[s:]
        fits[s:] &= span < n
        t = int(fits.argmax())
        if fits[t]:
            fits[t:] &= span[t - s :] + _window_repeats(seg[t:], n) == n - 1
    return fits


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

    The search tests every start of a block of starts at once
    (``_fitting_windows``), in blocks of 1, 2, 4, ... starts from the
    previous VM's end, at most max(n, MAX_SEARCH_STARTS) starts for n
    chunks a VM. A block of w starts takes a few numpy passes over its
    w + n - 1 rows, and one argsort of them once some window clears the
    guard rows and spans fewer than n rows. A VM that fits d chunks on
    takes about log2(d) + 1 blocks; a refusal, blocks that cover the whole
    chunk array once.
    """
    mapping.inverse_columns  # fail fast on non-invertible mappings
    geo = mapping.geometry
    check_int("guard_global_rows", guard_global_rows, 1, error=PlanError)
    stride = row_chunk_stride(mapping)
    if stride < geo.columns:
        raise PlanError(
            "mapping routes row bits below the column width "
            f"(row chunk 0x{stride:x} < 0x{geo.columns:x}); global rows are not "
            "representable as whole row-aligned chunks"
        )
    _check_vm_sizes(mapping, vm_sizes, stride)
    offset = geo.coord_offsets[4]
    rows, _ = _block_ids(mapping, stride, (geo.rows - 1) << offset)
    rows >>= offset
    n_chunks = len(rows)
    regions: list[Region] = []
    pos = 0
    prev_hi = -1 - guard_global_rows  # so the first VM needs min_row > -1
    for i, size in enumerate(vm_sizes):
        owner = f"vm{i}"
        n = size // stride
        bound = prev_hi + guard_global_rows
        start, width = pos, 1
        while True:
            width = min(width, n_chunks - n + 1 - start)
            if width <= 0:
                raise PlanError(
                    f"cannot place {owner}: no chunk window clears guard rows "
                    f"{prev_hi + 1}..{bound} (offending row {bound})"
                )
            fits = np.flatnonzero(_fitting_windows(rows[start : start + width + n - 1], n, bound))
            if fits.size:
                break
            start += width
            width = min(2 * width, max(n, MAX_SEARCH_STARTS))
        cand = start + int(fits[0])
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
    check_int("guard_global_rows", guard_global_rows, 1, error=PlanError)  # under every mitigation
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
    coord = mapping.geometry.unpack(vec)  # column bits are clear
    return AggressorSite(gf2.image(mapping._inverse_tables, vec), coord, victim_rows)


def find_aggressors(
    mapping: AddressMapping,
    attacker: np.ndarray,
    victim: np.ndarray,
    blast_radius: int,
) -> list[AggressorSite]:
    """The attacker rows to hammer, exhaustively, from the attacker's and the
    victim's footprints: the rows within blast radius of a victim row or,
    when none is, the rows nearest to the victim footprint.

    Each footprint must be what ``row_footprint`` returns, a strictly
    increasing 1-D int64 array, since every search below bisects it;
    anything else raises ValueError naming it.

    Adjacency requires the same bank tuple and the same subarray, and a row
    distance of 1..blast_radius (a row shared by both VMs is not adjacency);
    an adjacent site carries its victim rows. With no adjacent row, each
    attacker row is paired with its nearest victim row in its bank tuple, or
    in any bank tuple when its own holds none, the lower row on a tie, and
    the rows ranking lowest by (other subarray, row distance) are the sites,
    with no victim rows.

    Only three kinds of attacker row are ranked: the first and last row of
    each run of consecutive rows in a bank tuple, every row the victim also
    holds (it pairs with itself at distance 0), and every row of a bank tuple
    that holds no victim row (rows of any index there may tie at distance 0).
    Any other row x lies inside a run and is not a victim row, so its
    neighbour one row toward its nearest victim row v is an attacker row
    whose own nearest victim row is strictly nearer, and in its own subarray
    whenever v is in x's: that neighbour ranks strictly lower. Such a v is
    itself the first or last row of a run of victim rows, so only those ends
    are searched in a bank tuple.

    Each site carries a representative PA at column 0 of the aggressor row.
    Sites are in (channel, rank, bankgroup, bank, row) order; an empty
    footprint gives none.
    """
    check_int("blast_radius", blast_radius, 1)
    for name, footprint in (("attacker", attacker), ("victim", victim)):
        if not (
            isinstance(footprint, np.ndarray)
            and footprint.ndim == 1
            and footprint.dtype == np.int64
            and bool(np.all(footprint[1:] > footprint[:-1]))
        ):
            raise ValueError(f"{name} must be a strictly increasing 1-D int64 footprint")
    if not (len(attacker) and len(victim)):
        return []
    geo = mapping.geometry
    offset, width = geo.coord_offsets[4], geo.coord_width("row")
    # the row is the top field, so adding d << offset moves a vector to row
    # + d of the same bank tuple; a row pushed out of [0, rows) leaves the
    # range of victim vectors. No two rows of one subarray lie further apart
    # than rows_per_subarray - 1, so no longer offset can find a victim.
    reach = min(blast_radius, geo.rows_per_subarray - 1)
    deltas = [d for d in range(-reach, reach + 1) if d]
    hit = {d: _member(victim, attacker, d << offset) for d in deltas}
    sites = []
    for i in np.flatnonzero(np.any([hit[d] for d in deltas], axis=0)).tolist():
        vec = int(attacker[i])
        row = vec >> offset
        victims = tuple(v for v in geo.neighbours(row, blast_radius) if hit[v - row][i])
        if victims:
            sites.append(_site(mapping, vec, victims))
    if not sites:
        bank = (1 << offset) - 1  # the bank tuple's bits
        narrow = np.min_scalar_type(bank)
        attacker_banks = (attacker & bank).astype(narrow)
        # a stable radix argsort of the narrow bank bits groups the rows by
        # bank tuple, each tuple's rows still ascending
        order = np.argsort(attacker_banks, kind="stable")
        candidates = attacker[order]
        victim_ends = victim[np.argsort((victim & bank).astype(narrow), kind="stable")]
        victim_ends = victim_ends[_run_ends(victim_ends, offset)]  # one or more per bank tuple
        holds_victim = np.zeros(bank + 1, dtype=bool)
        holds_victim[victim_ends & bank] = True
        shared = _member(victim, attacker)[order]  # nearest to itself
        pick = _run_ends(candidates, offset) | shared | ~holds_victim[attacker_banks[order]]
        candidates, shared = candidates[pick], shared[pick]
        rows = candidates >> offset

        def key(packed: np.ndarray) -> np.ndarray:
            return (packed & bank) << width | packed >> offset

        nearest, in_bank = _nearest(key(victim_ends), key(candidates), width)
        nearest &= geo.rows - 1
        # the footprint is sorted by row, its top field
        nearest[~in_bank], _ = _nearest(victim >> offset, rows[~in_bank], width)
        nearest[shared] = rows[shared]
        other_subarray = (geo.subarray_of(nearest) != geo.subarray_of(rows)).astype(np.int64)
        rank = other_subarray << width | np.abs(rows - nearest)
        sites = [_site(mapping, vec, ()) for vec in candidates[rank == rank.min()].tolist()]
    return sorted(sites, key=lambda site: site.coord)


def _member(values: np.ndarray, x: np.ndarray, plus: int = 0) -> np.ndarray:
    """Whether each x + plus is an entry of values, both ascending and
    values nonempty. Only the x whose sum lies in values' range are searched."""
    found = np.zeros(len(x), dtype=bool)
    lo, hi = np.searchsorted(x, [values[0] - plus, values[-1] - plus + 1]).tolist()
    within = x[lo:hi] + plus
    found[lo:hi] = values[np.searchsorted(values, within)] == within
    return found


def _run_ends(packed: np.ndarray, offset: int) -> np.ndarray:
    """Whether each of the packed rows, grouped by bank tuple with rows
    ascending, starts or ends a run of consecutive rows of one bank tuple:
    one row up in the same tuple is 1 << offset more."""
    gap = packed[1:] - packed[:-1] != 1 << offset
    ends = np.ones(len(packed), dtype=bool)
    ends[1:-1] = gap[:-1] | gap[1:]
    return ends


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
