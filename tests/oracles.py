"""Brute-force reference implementations the test suite checks against.

Everything here trades speed for obviousness: coordinates are recomputed
bit by bit from the mapping definition, footprints enumerate every byte
of a region, and planner outputs are re-verified from those enumerations.
Expected values frozen into tests were produced by these oracles.
"""

from __future__ import annotations

import random

import numpy as np

from vmhammer import (
    COORD_KINDS,
    AddressMapping,
    DramCoordinate,
    Geometry,
    HammerParams,
    MemoryLayout,
    PlanError,
    Region,
    RowFootprint,
    Scenario,
    SilozPlan,
    SimState,
    boundary_fallback,
    find_aggressors,
    row_footprint,
)
from vmhammer.layout import plan_layout


def brute_coord(mapping: AddressMapping, pa: int) -> tuple[int, ...]:
    """Coordinate of one PA computed bit by bit from the raw bit functions."""
    parts = []
    for kind in COORD_KINDS:
        value = 0
        for bit_index, xor_bits in enumerate(mapping.function(kind)):
            acc = 0
            for b in xor_bits:
                acc ^= (pa >> b) & 1
            value |= acc << bit_index
        parts.append(value)
    return tuple(parts)


def coords_of(mapping: AddressMapping, pas: np.ndarray) -> np.ndarray:
    """Vectorized translation of a PA array; returns an (n, 6) array."""
    out = np.zeros((len(pas), 6), dtype=np.int64)
    for k, kind in enumerate(COORD_KINDS):
        value = np.zeros(len(pas), dtype=np.int64)
        for bit_index, xor_bits in enumerate(mapping.function(kind)):
            bit = np.zeros(len(pas), dtype=np.int64)
            for b in xor_bits:
                bit ^= (pas >> b) & 1
            value |= bit << bit_index
        out[:, k] = value
    return out


def all_coords(mapping: AddressMapping) -> np.ndarray:
    pas = np.arange(mapping.geometry.total_bytes, dtype=np.int64)
    return coords_of(mapping, pas)


def pack_coords(geometry: Geometry, coords: np.ndarray) -> np.ndarray:
    """Mixed-radix packing of coordinate rows into single integers."""
    extents = (
        geometry.channels,
        geometry.ranks,
        geometry.bankgroups,
        geometry.banks,
        geometry.rows,
        geometry.columns,
    )
    packed = np.zeros(len(coords), dtype=np.int64)
    for k, extent in enumerate(extents):
        packed = packed * extent + coords[:, k]
    return packed


def brute_valid(mapping: AddressMapping) -> bool:
    """Bijectivity by exhaustive enumeration of every physical address."""
    total = mapping.geometry.total_bytes
    packed = pack_coords(mapping.geometry, all_coords(mapping))
    return int(np.unique(packed).size) == total


def brute_footprint(
    mapping: AddressMapping, start: int, size: int
) -> set[tuple[int, int, int, int, int]]:
    """Row tuples touched by a region, one translation per byte.

    The bytes are translated 1 MiB at a time to bound memory.
    """
    geo = mapping.geometry
    extents = (geo.channels, geo.ranks, geo.bankgroups, geo.banks, geo.rows)
    values: set[int] = set()
    for lo in range(start, start + size, 1 << 20):
        pas = np.arange(lo, min(lo + (1 << 20), start + size), dtype=np.int64)
        coords = coords_of(mapping, pas)
        packed = np.zeros(len(pas), dtype=np.int64)
        for k, extent in enumerate(extents):
            packed = packed * extent + coords[:, k]
        values.update(np.unique(packed).tolist())
    out = set()
    for value in values:
        parts = []
        for extent in reversed(extents):
            parts.append(value % extent)
            value //= extent
        out.add(tuple(reversed(parts)))
    return out


def footprint_rows(footprint: RowFootprint) -> frozenset[tuple[int, int, int, int, int]]:
    """A footprint's row tuples, unpacked one vector at a time."""
    return frozenset(footprint.geometry.unpack(p)[:5] for p in footprint.packed.tolist())


def vm_footprints(
    mapping: AddressMapping, layout: MemoryLayout, attacker_vm: str, victim_vm: str
) -> tuple[RowFootprint, RowFootprint]:
    """The attacker's and the victim's footprints, as aggressor discovery takes them."""
    return (
        row_footprint(mapping, layout.region_of(attacker_vm)),
        row_footprint(mapping, layout.region_of(victim_vm)),
    )


def brute_groups(
    geometry: Geometry, rows: set[tuple[int, int, int, int, int]]
) -> set[tuple[tuple[int, int, int, int], int]]:
    return {((ch, rk, bg, bk), row // geometry.rows_per_subarray) for ch, rk, bg, bk, row in rows}


def brute_aggressors(
    mapping: AddressMapping,
    layout: MemoryLayout,
    attacker_vm: str,
    victim_vm: str,
    blast_radius: int,
) -> dict[tuple[int, int, int, int, int], list[int]]:
    """Attacker rows adjacent to victim rows, with their victim row indices.

    Distance zero (a row split between both VMs) is excluded: hammering a
    row requires exclusive activations of it, and flips land beside the
    aggressor, not inside it.
    """
    geo = mapping.geometry
    attacker = brute_footprint(
        mapping, layout.region_of(attacker_vm).start_pa, layout.region_of(attacker_vm).size
    )
    victim = brute_footprint(
        mapping, layout.region_of(victim_vm).start_pa, layout.region_of(victim_vm).size
    )
    out: dict[tuple[int, int, int, int, int], list[int]] = {}
    for ch, rk, bg, bk, row in attacker:
        sub = row // geo.rows_per_subarray
        hits = []
        for dist in range(1, blast_radius + 1):
            for victim_row in (row - dist, row + dist):
                if not 0 <= victim_row < geo.rows:
                    continue
                if victim_row // geo.rows_per_subarray != sub:
                    continue
                if (ch, rk, bg, bk, victim_row) in victim:
                    hits.append(victim_row)
        if hits:
            out[(ch, rk, bg, bk, row)] = sorted(hits)
    return out


def brute_boundary_fallback(
    mapping: AddressMapping, layout: MemoryLayout, attacker_vm: str, victim_vm: str
) -> list[tuple[int, int, int, int, int]]:
    """Attacker rows nearest to the victim footprint, same subarray preferred.

    Each attacker row is paired with its nearest victim row in the same bank
    tuple or, when that bank tuple holds none, in any bank tuple, the lower
    row on a tie. The rows whose pair ranks lowest by (other subarray, row
    distance) are returned, sorted.
    """
    per = mapping.geometry.rows_per_subarray
    attacker = brute_footprint(
        mapping, layout.region_of(attacker_vm).start_pa, layout.region_of(attacker_vm).size
    )
    victim = brute_footprint(
        mapping, layout.region_of(victim_vm).start_pa, layout.region_of(victim_vm).size
    )
    victim_rows_by_bank: dict[tuple[int, ...], list[int]] = {}
    for row_tuple in victim:
        victim_rows_by_bank.setdefault(row_tuple[:4], []).append(row_tuple[4])
    every_victim_row = [row_tuple[4] for row_tuple in victim]
    ranks = {}
    for row_tuple in attacker:
        row = row_tuple[4]
        candidates = victim_rows_by_bank.get(row_tuple[:4], every_victim_row)
        dist, victim_row = min((abs(row - v), v) for v in candidates)
        ranks[row_tuple] = (victim_row // per != row // per, dist)
    best = min(ranks.values())
    return sorted(rt for rt, rank in ranks.items() if rank == best)


def brute_hammer(
    mapping: AddressMapping,
    params: HammerParams,
    sites: list[tuple[DramCoordinate, int]],
    every: int,
) -> SimState:
    """Hammer each (coordinate, count) site one activation at a time, with a
    manual refresh after every ``every``-th activation.

    The state's own period is one longer, so its window never closes as
    long as each manual refresh starts a new one.
    """
    state = SimState(mapping, params, every + 1)
    issued = 0
    for coord, count in sites:
        for _ in range(count):
            state.activate_row(coord)
            issued += 1
            if issued % every == 0:
                state.refresh()
    return state


def brute_replay(
    mapping: AddressMapping,
    params: HammerParams,
    entries: list[tuple[str, int, int | None]],
    every: int,
) -> SimState:
    """Replay (kind, pa, data) accesses, refreshing manually once ``every``
    activations have accumulated since the last refresh; the state's own
    period is one longer, as in brute_hammer."""
    state = SimState(mapping, params, every + 1)
    since_refresh = 0
    for kind, pa, data in entries:
        before = state.stats.activations
        state.access(pa, kind, data)
        since_refresh += state.stats.activations - before
        if since_refresh >= every:
            state.refresh()
            since_refresh = 0
    return state


def brute_row_pas(
    mapping: AddressMapping, row_tuple: tuple[int, int, int, int, int]
) -> list[int]:
    """Physical addresses of every byte of one row, found by translating
    every PA of the space."""
    pas = np.arange(mapping.geometry.total_bytes, dtype=np.int64)
    in_row = (coords_of(mapping, pas)[:, :5] == row_tuple).all(axis=1)
    return pas[in_row].tolist()


def brute_seeded_attack(scenario: Scenario) -> SimState:
    """The attack with an explicit seeding phase: on a zero-filled state,
    write the check pattern into every byte of every row a selected
    aggressor can reach, then hammer each selected aggressor in turn."""
    mapping = scenario.mapping
    geo = mapping.geometry
    blast = scenario.hammer.blast_radius
    layout, _ = plan_layout(
        mapping, scenario.mitigation, scenario.vm_sizes, scenario.guard_global_rows
    )
    attacker, victim = vm_footprints(mapping, layout, scenario.attacker_vm, scenario.victim_vm)
    sites = find_aggressors(mapping, attacker, victim, blast) or boundary_fallback(
        mapping, attacker, victim
    )
    selection = scenario.aggressor_selection
    if selection == "first":
        sites = sites[:1]
    elif selection != "all":
        sites = [s for s in sites if s.coord.row in selection]
    state = SimState(mapping, scenario.hammer, scenario.refresh_every)
    for site in sites:
        row = site.coord.row
        for victim_row in range(row - blast, row + blast + 1):
            if victim_row == row or not 0 <= victim_row < geo.rows:
                continue
            if victim_row // geo.rows_per_subarray != row // geo.rows_per_subarray:
                continue
            for pa in brute_row_pas(mapping, site.coord.bank_tuple + (victim_row,)):
                state.write_byte(pa, scenario.check_pattern)
    for site in sites:
        state.activate_row(site.coord, scenario.effective_hammer_count)
    return state


def _brute_constant_stride(values: np.ndarray) -> int:
    """Largest aligned power-of-two stride whose blocks hold one value."""
    s = 1
    while 2 * s <= len(values):
        blocks = values.reshape(-1, 2 * s)
        if not (blocks == blocks[:, :1]).all():
            break
        s *= 2
    return s


def brute_chunk_stride(mapping: AddressMapping) -> int:
    """Largest aligned power-of-two stride whose blocks are row-constant."""
    return _brute_constant_stride(all_coords(mapping)[:, 4])


def brute_chunk_rows(mapping: AddressMapping) -> np.ndarray:
    stride = brute_chunk_stride(mapping)
    return all_coords(mapping)[:, 4].reshape(-1, stride)[:, 0]


def brute_citadel_feasible(
    mapping: AddressMapping, sizes: list[int], guard: int
) -> bool:
    """Exhaustive in-order chunk placement with the library's gap rule."""
    stride = brute_chunk_stride(mapping)
    if stride < mapping.geometry.columns:
        return False
    if any(s <= 0 or s % stride for s in sizes):
        return False
    rows = brute_chunk_rows(mapping)
    n_chunks = len(rows)

    def rec(pos: int, prev_hi: int, k: int) -> bool:
        if k == len(sizes):
            return True
        n = sizes[k] // stride
        for cand in range(pos, n_chunks - n + 1):
            window = rows[cand : cand + n]
            if int(window.min()) <= prev_hi + guard:
                continue
            distinct = np.unique(window)
            if int(distinct[-1]) - int(distinct[0]) + 1 != len(distinct):
                continue
            if rec(cand + n, int(window.max()), k + 1):
                return True
        return False

    return rec(0, -1 - guard, 0)


def brute_siloz(mapping: AddressMapping, sizes: list[int]) -> SilozPlan:
    """Greedy siloz placement, one byte-by-byte footprint per candidate start.

    Candidates are the multiples of the group stride (the largest aligned
    power-of-two stride whose blocks keep the subarray index constant, at
    least one row span) and the ends of VMs already placed. Each VM takes
    the lowest candidate that fits, overlaps no placed VM and shares no
    (bank tuple, subarray) group with one. Sizes must already be valid
    (positive multiples of the row span, summing to at most the space).
    """
    geo = mapping.geometry
    total = geo.total_bytes
    subarrays = all_coords(mapping)[:, 4] // geo.rows_per_subarray
    stride = max(_brute_constant_stride(subarrays), geo.columns)
    placed: list[Region] = []
    groups: dict[str, frozenset] = {}
    contained: dict[str, bool] = {}
    used: set = set()
    for i, size in enumerate(sizes):
        owner = f"vm{i}"
        candidates = set(range(0, total, stride)) | {r.end_pa for r in placed}
        for cand in sorted(candidates):
            if cand + size > total:
                continue
            if any(cand < r.end_pa and r.start_pa < cand + size for r in placed):
                continue
            found = brute_groups(geo, brute_footprint(mapping, cand, size))
            if not found & used:
                break
        else:
            raise PlanError(
                f"cannot place {owner} (0x{size:x} bytes) in a free subarray-group set; "
                f"group granularity is 0x{stride:x} bytes"
            )
        placed.append(Region(owner, cand, size))
        used |= found
        groups[owner] = frozenset(found)
        contained[owner] = len({sub for _, sub in found}) == 1
    layout = MemoryLayout(tuple(sorted(placed, key=lambda r: r.start_pa)))
    return SilozPlan(layout, groups, contained)


# -- random instance generators ------------------------------------------------


def random_geometry(rng: random.Random, max_total: int = 1 << 16) -> Geometry:
    """Random power-of-two geometry with at most max_total bytes."""
    budget = max_total.bit_length() - 1
    assert budget >= 12, "generator assumes room for rows and columns"
    channels = 1 << rng.randint(0, 1)
    ranks = 1 << rng.randint(0, 1)
    bankgroups = 1 << rng.randint(0, 2)
    banks = 1 << rng.randint(0, 1)
    fixed = channels * ranks * bankgroups * banks
    remaining = budget - (fixed.bit_length() - 1)
    # rows and columns soak up what is left; keep both at least 4 wide
    row_bits = rng.randint(2, max(2, remaining - 2))
    col_bits = remaining - row_bits
    if col_bits < 2:
        col_bits = 2
        row_bits = remaining - col_bits
    rows = 1 << row_bits
    sub_bits = rng.randint(0, row_bits)
    return Geometry(
        channels=channels,
        ranks=ranks,
        bankgroups=bankgroups,
        banks=banks,
        rows=rows,
        columns=1 << col_bits,
        rows_per_subarray=1 << sub_bits,
    )


def random_invertible_mapping(rng: random.Random, geometry: Geometry) -> AddressMapping:
    """Random bijective mapping built from invertibility-preserving row ops."""
    width = geometry.address_width
    rows = [1 << i for i in range(width)]
    rng.shuffle(rows)
    for _ in range(width * 4):
        i = rng.randrange(width)
        j = rng.randrange(width)
        if i != j:
            rows[i] ^= rows[j]
    functions: dict[str, list[list[int]]] = {}
    cursor = 0
    for kind in COORD_KINDS:
        w = geometry.coord_width(kind)
        functions[kind] = [
            [b for b in range(width) if rows[cursor + i] >> b & 1] for i in range(w)
        ]
        cursor += w
    return AddressMapping.build(geometry, functions)


def random_split_mapping(rng: random.Random, geometry: Geometry) -> AddressMapping:
    """Random bijective mapping whose row bits use only the high PA bits.

    Keeps the row chunk stride at least as large as a row's byte span, which
    is the feasibility precondition of the contiguous-row planner, while the
    shuffled row-bit order still produces chunk sequences whose row indices
    are not monotone in the physical address.
    """
    width = geometry.address_width
    row_width = geometry.coord_width("row")
    low = width - row_width
    low_rows = [1 << i for i in range(low)]
    rng.shuffle(low_rows)
    for _ in range(low * 3):
        i = rng.randrange(low)
        j = rng.randrange(low)
        if i != j:
            low_rows[i] ^= low_rows[j]
    high_bits = list(range(low, width))
    rng.shuffle(high_bits)
    functions: dict[str, list[list[int]]] = {}
    cursor = 0
    for kind in COORD_KINDS:
        if kind == "row":
            functions[kind] = [[b] for b in high_bits]
            continue
        w = geometry.coord_width(kind)
        functions[kind] = [
            [b for b in range(low) if low_rows[cursor + i] >> b & 1] for i in range(w)
        ]
        cursor += w
    return AddressMapping.build(geometry, functions)


def random_mapping(rng: random.Random, geometry: Geometry) -> AddressMapping:
    """Random mapping with no invertibility guarantee (usually singular)."""
    width = geometry.address_width
    functions: dict[str, list[list[int]]] = {}
    for kind in COORD_KINDS:
        w = geometry.coord_width(kind)
        functions[kind] = [
            sorted(rng.sample(range(width), rng.randint(1, min(3, width))))
            for _ in range(w)
        ]
    return AddressMapping.build(geometry, functions)


def tiny_noncontig() -> AddressMapping:
    """Width-10 analog of the full-scale mapping with a split row field."""
    geometry = Geometry(
        channels=1,
        ranks=1,
        bankgroups=4,
        banks=2,
        rows=16,
        columns=8,
        rows_per_subarray=4,
    )
    return AddressMapping.build(
        geometry,
        {
            "channel": [],
            "rank": [],
            "bankgroup": [[3], [4]],
            "bank": [[1, 6]],
            "row": [[5], [7], [8], [9]],
            "column": [[0], [1], [2]],
        },
    )
