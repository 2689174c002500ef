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
    UNUSED,
    AddressMapping,
    DramCoordinate,
    Geometry,
    HammerParams,
    MemoryLayout,
    PlanError,
    Region,
    Scenario,
    SilozPlan,
    SimState,
    find_aggressors,
)
from vmhammer.dram import check_access
from vmhammer.harness import AccessTrace, TraceError
from vmhammer.layout import plan_layout
from vmhammer.mapping import check_int


def brute_reduce_basis(vectors: list[int]) -> list[int]:
    """The basis ``gf2._eliminate`` builds, in descending order, as it was
    first written: each vector reduced by every basis vector in turn, width^2
    steps, and the basis re-sorted descending after each insertion."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def brute_analyze(rows: list[int], width: int) -> tuple[int, list[int] | None, int | None]:
    """``gf2.analyze`` over ``brute_reduce_basis``, with each inverse row
    reduced by every basis vector in turn (width x n steps)."""
    n = len(rows)
    basis = brute_reduce_basis([row << n | 1 << i for i, row in enumerate(rows)])
    rank = sum(1 for b in basis if b >> n)
    if rank < n:
        return rank, None, min(b for b in basis if not b >> n)
    if n != width:
        return rank, None, None
    inverse = []
    for c in range(width):
        x = 1 << (c + n)
        for b in basis:
            x = min(x, x ^ b)
        inverse.append(x)
    return rank, inverse, None


def brute_transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Columns of the matrix with these rows, one bit test per entry; bits
    at or above width are not read."""
    return tuple(
        sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(width)
    )


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


ROW_KINDS = COORD_KINDS[:5]  # every coordinate but the column: the row tuple
RowTuple = tuple[int, int, int, int, int]


def coords_of(
    mapping: AddressMapping, pas: np.ndarray, kinds: tuple[str, ...] = COORD_KINDS
) -> np.ndarray:
    """Vectorized translation of a PA array into the coordinates ``kinds``
    (all six by default); returns an (n, len(kinds)) array."""
    out = np.zeros((len(pas), len(kinds)), dtype=np.int64)
    for k, kind in enumerate(kinds):
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
) -> set[RowTuple]:
    """Row tuples touched by a region, one translation per byte.

    Only the row-tuple coordinates are translated, since no column bit
    enters a footprint. The bytes are translated 1 MiB at a time to bound
    memory.
    """
    geo = mapping.geometry
    extents = (geo.channels, geo.ranks, geo.bankgroups, geo.banks, geo.rows)
    values: set[int] = set()
    for lo in range(start, start + size, 1 << 20):
        pas = np.arange(lo, min(lo + (1 << 20), start + size), dtype=np.int64)
        coords = coords_of(mapping, pas, ROW_KINDS)
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


def footprint_rows(
    geometry: Geometry, packed: np.ndarray
) -> frozenset[tuple[int, int, int, int, int]]:
    """A footprint's row tuples, unpacked one vector at a time."""
    return frozenset(geometry.unpack(p)[:5] for p in packed.tolist())


def brute_groups(
    geometry: Geometry, rows: set[tuple[int, int, int, int, int]]
) -> set[tuple[tuple[int, int, int, int], int]]:
    return {((ch, rk, bg, bk), row // geometry.rows_per_subarray) for ch, rk, bg, bk, row in rows}


def brute_vm_rows(mapping: AddressMapping, layout: MemoryLayout, vm: str) -> set[RowTuple]:
    """The row tuples a VM's region touches, one translation per byte."""
    region = layout.region_of(vm)
    return brute_footprint(mapping, region.start_pa, region.size)


def brute_aggressors(
    geometry: Geometry, attacker: set[RowTuple], victim: set[RowTuple], blast_radius: int
) -> dict[RowTuple, list[int]]:
    """Attacker rows adjacent to victim rows, with their victim row indices.

    Distance zero (a row split between both VMs) is excluded: hammering a
    row requires exclusive activations of it, and flips land beside the
    aggressor, not inside it.
    """
    out: dict[RowTuple, list[int]] = {}
    for ch, rk, bg, bk, row in attacker:
        sub = row // geometry.rows_per_subarray
        hits = []
        for dist in range(1, blast_radius + 1):
            for victim_row in (row - dist, row + dist):
                if not 0 <= victim_row < geometry.rows:
                    continue
                if victim_row // geometry.rows_per_subarray != sub:
                    continue
                if (ch, rk, bg, bk, victim_row) in victim:
                    hits.append(victim_row)
        if hits:
            out[(ch, rk, bg, bk, row)] = sorted(hits)
    return out


def brute_boundary_fallback(
    geometry: Geometry, attacker: set[RowTuple], victim: set[RowTuple]
) -> list[RowTuple]:
    """Attacker rows nearest to the victim footprint, same subarray preferred.

    Each attacker row is paired with its nearest victim row in the same bank
    tuple or, when that bank tuple holds none, in any bank tuple, the lower
    row on a tie. The rows whose pair ranks lowest by (other subarray, row
    distance) are returned, sorted.
    """
    per = geometry.rows_per_subarray
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


def brute_sites(
    mapping: AddressMapping,
    layout: MemoryLayout,
    attacker_vm: str,
    victim_vm: str,
    blast_radius: int,
) -> list[tuple[RowTuple, list[int]]]:
    """The rows to hammer, in order, each with its victim rows: the
    ``brute_aggressors`` rows or, when none is adjacent, the
    ``brute_boundary_fallback`` rows with no victim rows."""
    attacker = brute_vm_rows(mapping, layout, attacker_vm)
    victim = brute_vm_rows(mapping, layout, victim_vm)
    adjacent = brute_aggressors(mapping.geometry, attacker, victim, blast_radius)
    if adjacent:
        return sorted(adjacent.items())
    return [(rt, []) for rt in brute_boundary_fallback(mapping.geometry, attacker, victim)]


class BruteStats:
    """Access counts kept by hand, for comparison through ``to_dict``: hits,
    refresh windows and activations per bank tuple."""

    def __init__(self) -> None:
        self.row_buffer_hits = 0
        self.refresh_windows = 0
        self.per_bank: dict[tuple[int, int, int, int], int] = {}

    @property
    def activations(self) -> int:
        return sum(self.per_bank.values())

    def to_dict(self) -> dict:
        return {
            "accesses": self.row_buffer_hits + self.activations,
            "row_buffer_hits": self.row_buffer_hits,
            "activations": self.activations,
            "precharges": self.activations - len(self.per_bank),
            "refresh_windows": self.refresh_windows,
            "per_bank_activations": {
                ":".join(map(str, bt)): n for bt, n in sorted(self.per_bank.items())
            },
        }


class BruteState:
    """Open-page DRAM stepped by hand, sharing no counting code and no state
    layout with ``SimState``: its own open row per bank tuple, activation
    count per (bank tuple, row), window and stats, all keyed by coordinate
    fields. A ``SimState`` it never counts in makes the flip draws
    (``_maybe_flip``) and holds the memory contents and flip records; its
    ``refresh`` re-arms that state's deterministic latch."""

    def __init__(self, mapping: AddressMapping, params: HammerParams, refresh_every: int) -> None:
        self.mapping = mapping
        self.refresh_every = refresh_every
        self.draws = SimState(mapping, params)
        self.open_row: dict[tuple[int, int, int, int], int] = {}
        self.act_count: dict[tuple[tuple[int, int, int, int], int], int] = {}
        self.window = 0
        self.stats = BruteStats()

    @property
    def contents(self) -> dict[int, int]:
        return self.draws.contents

    def collect_flips(self) -> list:
        return self.draws.collect_flips()

    def write_byte(self, pa: int, value: int) -> None:
        self.draws.write_byte(pa, value)

    def refresh(self) -> None:
        self.act_count.clear()
        self.window = 0
        self.stats.refresh_windows += 1
        self.draws.refresh()


def brute_activate(state: BruteState, coord: DramCoordinate) -> None:
    """One hammer activation stepped by hand: the activation, counted per
    bank and per row, the row opened, the flip check at the row's new count,
    then the refresh once the state's window fills."""
    bt = coord.bank_tuple
    per_bank = state.stats.per_bank
    state.open_row[bt] = coord.row
    per_bank[bt] = per_bank.get(bt, 0) + 1
    key = (bt, coord.row)
    state.act_count[key] = state.act_count.get(key, 0) + 1
    state.draws._maybe_flip(state.mapping.geometry.pack(coord._replace(column=0)), state.act_count[key])
    state.window += 1
    if state.window == state.refresh_every:
        state.refresh()


def brute_access(state: BruteState, pa: int, kind: str, data: int | None) -> None:
    """One open-page access stepped by hand: a hit, counted, when the bank's
    open row is the address's row, else one activation through
    ``brute_activate``."""
    coord = DramCoordinate(*brute_coord(state.mapping, pa))
    if state.open_row.get(coord.bank_tuple) == coord.row:
        state.stats.row_buffer_hits += 1
    else:
        brute_activate(state, coord)
    if kind == "write":
        state.contents[pa] = data


def brute_hammer(
    mapping: AddressMapping,
    params: HammerParams,
    sites: list[tuple[DramCoordinate, int]],
    every: int,
) -> BruteState:
    """Hammer each (coordinate, count) site one activation at a time, with a
    manual refresh after every ``every``-th activation.

    The state's own period is one longer, so its window never closes as
    long as each manual refresh starts a new one.
    """
    state = BruteState(mapping, params, every + 1)
    issued = 0
    for coord, count in sites:
        for _ in range(count):
            brute_activate(state, coord)
            issued += 1
            if issued % every == 0:
                state.refresh()
    return state


def brute_replay(
    mapping: AddressMapping,
    params: HammerParams,
    entries: list[tuple[str, int, int | None]],
    every: int,
) -> BruteState:
    """Replay (kind, pa, data) accesses through ``brute_access``, refreshing
    manually once ``every`` activations have accumulated since the last
    refresh; the state's own period is one longer, as in brute_hammer."""
    state = BruteState(mapping, params, every + 1)
    since_refresh = 0
    for kind, pa, data in entries:
        before = state.stats.activations
        brute_access(state, pa, kind, data)
        since_refresh += state.stats.activations - before
        if since_refresh >= every:
            state.refresh()
            since_refresh = 0
    return state


def brute_parse_trace(text: str, limit: int | None = None) -> AccessTrace:
    """The trace parser as it was when it built one (kind, pa, data) tuple per
    line, kept as the reference for ``parse_trace``."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        try:
            if kind == "R" and len(parts) == 2:
                entry = ("read", int(parts[1], 16), None)
            elif kind == "W" and len(parts) == 3:
                data = int(parts[2], 16)
                check_int("data", data, 0, 256)
                entry = ("write", int(parts[1], 16), data)
            else:
                raise ValueError
            check_int("pa", entry[1], 0)
        except ValueError:
            raise TraceError(f"line {lineno}: malformed trace entry {raw.strip()!r}") from None
        if limit is not None and entry[1] >= limit:
            raise TraceError(f"line {lineno}: pa 0x{entry[1]:x} not below 0x{limit:x}")
        entries.append(entry)
    return AccessTrace(tuple(entries))


def brute_access_trace(entries) -> tuple[np.ndarray, np.ndarray]:
    """The PAs and bytes (-1 for a read) of (kind, pa, data) entries, each
    unpacked and checked in trace order as ``SimState.access`` checks it,
    then its PA inside int64: the reference for ``AccessTrace(entries)``."""
    pas, data = [], []
    for kind, pa, byte in entries:
        check_access(pa, kind, byte)
        check_int("pa", pa, -(2**63), 2**63)
        pas.append(pa)
        data.append(byte if kind == "write" else -1)
    return np.array(pas, dtype=np.int64), np.array(data, dtype=np.int64)


def brute_row_pas(
    mapping: AddressMapping, row_tuple: tuple[int, int, int, int, int]
) -> list[int]:
    """Physical addresses of every byte of one row, found by translating
    every PA of the space."""
    pas = np.arange(mapping.geometry.total_bytes, dtype=np.int64)
    in_row = (coords_of(mapping, pas, ROW_KINDS) == row_tuple).all(axis=1)
    return pas[in_row].tolist()


def brute_seeded_attack(scenario: Scenario) -> BruteState:
    """The attack with an explicit seeding phase: on a zero-filled state,
    write the check pattern into every byte of every row a selected
    aggressor can reach, then hammer each selected aggressor in turn, one
    activation at a time."""
    mapping = scenario.mapping
    geo = mapping.geometry
    blast = scenario.hammer.blast_radius
    layout, _ = plan_layout(
        mapping, scenario.mitigation, scenario.vm_sizes, scenario.guard_global_rows
    )
    sites = find_aggressors(mapping, layout, scenario.attacker_vm, scenario.victim_vm, blast)
    selection = scenario.aggressor_selection
    if selection == "first":
        sites = sites[:1]
    elif selection != "all":
        sites = [s for s in sites if s.coord.row in selection]
    state = BruteState(mapping, scenario.hammer, scenario.refresh_every)
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
        for _ in range(scenario.effective_hammer_count):
            brute_activate(state, site.coord)
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


def brute_block_ids(mapping: AddressMapping, block: int, coord_bits: int) -> np.ndarray:
    """``layout._block_ids``' ids as first computed: each block's base
    translated bit by bit and masked to ``coord_bits``, then every id reduced
    by each vector of ``brute_reduce_basis`` of the masked low columns in
    turn, x = min(x, x ^ b), which leaves the least member of its coset."""
    k = block.bit_length() - 1
    masked = [column & coord_bits for column in mapping.columns]
    blocks = np.arange(mapping.geometry.total_bytes // block, dtype=np.int64)
    ids = np.zeros(len(blocks), dtype=np.int64)
    for j, column in enumerate(masked[k:]):
        ids ^= np.where(blocks >> j & 1 == 1, column, 0)
    for b in brute_reduce_basis(masked[:k]):
        ids = np.minimum(ids, ids ^ b)
    return ids


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


def brute_citadel(mapping: AddressMapping, sizes: list[int], guard: int) -> MemoryLayout:
    """Greedy citadel placement, one candidate chunk window at a time.

    Each VM takes the lowest window, at or after the end of the previous VM,
    whose rows form one contiguous range lying strictly more than ``guard``
    rows above the previous VM's highest row; the chunks skipped before it
    are unused. The mapping must keep a row chunk at least one row span wide
    and the sizes must be valid (positive multiples of the chunk, fitting the
    space).
    """
    stride = brute_chunk_stride(mapping)
    rows = brute_chunk_rows(mapping).tolist()
    regions: list[Region] = []
    pos, prev_hi = 0, -1 - guard
    for i, size in enumerate(sizes):
        n = size // stride
        bound = prev_hi + guard
        for cand in range(pos, len(rows) - n + 1):
            window = rows[cand : cand + n]
            lo, hi = min(window), max(window)
            if lo > bound and len(set(window)) == hi - lo + 1:
                break
        else:
            raise PlanError(
                f"cannot place vm{i}: no chunk window clears guard rows "
                f"{prev_hi + 1}..{bound} (offending row {bound})"
            )
        if cand > pos:
            regions.append(Region(UNUSED, pos * stride, (cand - pos) * stride))
        regions.append(Region(f"vm{i}", cand * stride, size))
        pos, prev_hi = cand + n, hi
    return MemoryLayout(tuple(regions))


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
    layout = MemoryLayout(tuple(sorted(placed, key=lambda r: r.start_pa)))
    return SilozPlan(layout, groups)


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


def random_row_high_mapping(rng: random.Random, geometry: Geometry) -> AddressMapping:
    """Random bijective mapping whose row bits are XORs of PA bits at or above
    the column width; every other coordinate bit may use any PA bit.

    The row chunk stride is then at least one row span, so the contiguous-row
    planner can place whole chunks, while rows may still interleave freely
    with the other coordinates above the column bits.
    """
    width = geometry.address_width
    low = geometry.coord_width("column")
    # an invertible matrix over the high bits: its first rows are the row bits,
    # the rest and the low unit vectors complete a basis of the whole space
    high = [1 << b for b in range(low, width)]
    rng.shuffle(high)
    for _ in range(len(high) * 3):
        i, j = rng.randrange(len(high)), rng.randrange(len(high))
        if i != j:
            high[i] ^= high[j]
    row_width = geometry.coord_width("row")
    row_masks = high[:row_width]
    rest = high[row_width:] + [1 << b for b in range(low)]
    rng.shuffle(rest)
    # adding any other basis row to one of the rest keeps the basis
    for _ in range(len(rest) * 3):
        i = rng.randrange(len(rest))
        rest[i] ^= rng.choice(rest[:i] + rest[i + 1 :] + row_masks)
    functions: dict[str, list[list[int]]] = {}
    for kind in COORD_KINDS:
        w = geometry.coord_width(kind)
        masks = row_masks if kind == "row" else [rest.pop() for _ in range(w)]
        functions[kind] = [[b for b in range(width) if m >> b & 1] for m in masks]
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
