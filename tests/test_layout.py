"""Layouts, footprints, placement planners, and aggressor discovery.

Planner outputs are re-verified against byte-by-byte footprints from
oracles.py; worked placements for the full-scale presets are frozen.
"""

import itertools
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from vmhammer import (
    AddressMapping,
    Geometry,
    UNALLOCATED,
    UNUSED,
    MemoryLayout,
    PlanError,
    Region,
    check_layout,
    classify_pa,
    find_aggressors,
    plan_citadel,
    plan_siloz,
    row_footprint,
)
from vmhammer.layout import (
    _block_ids,
    _fitting_windows,
    group_stride,
    pack_layout,
    plan_layout,
    row_chunk_stride,
)

from oracles import (
    brute_block_ids,
    brute_chunk_stride,
    brute_citadel,
    brute_citadel_feasible,
    brute_footprint,
    brute_groups,
    brute_siloz,
    brute_sites,
    footprint_rows,
    random_geometry,
    random_invertible_mapping,
    random_row_high_mapping,
    random_split_mapping,
    tiny_noncontig,
)

MIB = 1 << 20


# -- layout structure --------------------------------------------------------------


def test_region_basics():
    region = Region("vm0", 0x1000, 0x2000)
    assert region.end_pa == 0x3000
    assert region.contains(0x1000) and region.contains(0x2FFF)
    assert not region.contains(0x3000)
    assert region.to_dict(8) == {"owner": "vm0", "start_pa": "0x00001000", "size": 8192}


def test_layout_lookup(geometry):
    layout = MemoryLayout(
        (Region("vm0", 0, 8 * MIB), Region("vm1", 8 * MIB, 8 * MIB))
    )
    assert [region.owner for region in layout.regions] == ["vm0", "vm1"]
    assert layout.region_of("vm1").start_pa == 8 * MIB
    with pytest.raises(KeyError):
        layout.region_of("vm9")
    assert classify_pa(layout, 0) == "vm0"
    assert classify_pa(layout, 16 * MIB) == UNALLOCATED


def test_check_layout_accepts_two_half_gib_vms(presets, geometry):
    layout = MemoryLayout(
        (Region("vm0", 0x0, 512 * MIB), Region("vm1", 0x20000000, 512 * MIB))
    )
    assert check_layout(layout, geometry) == []


def test_check_layout_reports_violations(geometry):
    total = geometry.total_bytes
    cases = {
        "overlap": MemoryLayout(
            (Region("vm0", 0, total), Region("vm1", 0x1000000, 8 * MIB))
        ),
        "bounds": MemoryLayout((Region("vm0", total - 8192, 16384),)),
        "duplicate": MemoryLayout(
            (Region("vm0", 0, 8 * MIB), Region("vm0", 16 * MIB, 8 * MIB))
        ),
        "alignment": MemoryLayout((Region("vm0", 0x100, 8 * MIB),)),
        "size": MemoryLayout((Region("vm0", 0, 0),)),
    }
    for name, layout in cases.items():
        assert check_layout(layout, geometry), name
    # unused regions may repeat; that is how guard chunks are recorded
    guards = MemoryLayout(
        (
            Region(UNUSED, 0, 8192),
            Region("vm0", 8192, 8192),
            Region(UNUSED, 16384, 8192),
        )
    )
    assert check_layout(guards, geometry) == []
    assert check_layout(MemoryLayout((Region("vm0", -0x2100, 0x2000),)), geometry) == [
        "regions[0] (vm0): start -0x2100/size 0x2000 not aligned to the 0x2000-byte row granularity",
        "regions[0] (vm0): [-0x2100, -0x100) exceeds the 0x100000000-byte address space",
    ]


# -- footprints ---------------------------------------------------------------------


def test_footprint_16mib_example(presets, geometry):
    fp = row_footprint(presets["simple"], Region("vm0", 0, 16 * MIB))
    rows = footprint_rows(geometry, fp)
    assert len(rows) == 2048
    assert {r[3] for r in rows} == {0}
    assert {r[2] for r in rows} == {0, 1, 2, 3}
    assert {r[4] for r in rows} == set(range(512))
    assert brute_groups(geometry, rows) == {((0, 0, bg, 0), 0) for bg in range(4)}


def test_footprint_single_row_across_bankgroups(presets, geometry):
    # columns * bankgroups bytes: one row in each bankgroup of bank 0
    fp = row_footprint(presets["simple"], Region("x", 0, 8192 * 4))
    assert footprint_rows(geometry, fp) == frozenset((0, 0, bg, 0, 0) for bg in range(4))


def test_footprint_empty_region(presets):
    assert row_footprint(presets["simple"], Region("x", 0, 0)).size == 0


def test_footprint_out_of_bounds(presets, geometry):
    with pytest.raises(ValueError):
        row_footprint(presets["simple"], Region("x", geometry.total_bytes - 4096, 8192))


def test_footprint_rejects_non_integer_bounds(presets):
    # checked before the translation, which reads True as 1 and has no
    # bit_length for a numpy integer
    mapping = presets["simple"]
    for region, message in (
        (Region("vm0", True, 8192), "^region start_pa must be an integer, got True$"),
        (Region("vm0", np.int64(8192), 8192), "^region start_pa must be an integer, got "),
        (Region("vm0", 0, 8192.0), r"^region size must be an integer, got 8192\.0$"),
        (Region("vm0", 0, False), "^region size must be an integer, got False$"),
        (Region("x", 8192, -8192), "^region size must be >= 0, got -8192$"),
    ):
        with pytest.raises(ValueError, match=message):
            row_footprint(mapping, region)


def test_footprint_matches_bytewise_oracle():
    rng = random.Random(0xF00)
    mappings = [tiny_noncontig()]
    for _ in range(8):
        geometry = random_geometry(rng, max_total=1 << 13)
        mappings.append(random_invertible_mapping(rng, geometry))
    for mapping in mappings:
        total = mapping.geometry.total_bytes
        for _ in range(6):
            # arbitrary byte ranges: footprints owe nothing to alignment
            start = rng.randrange(total)
            size = rng.randrange(1, total - start + 1)
            fp = row_footprint(mapping, Region("x", start, size))
            # strictly increasing int64, as aggressor discovery requires
            assert fp.dtype == np.int64 and fp.ndim == 1 and np.all(fp[1:] > fp[:-1])
            assert footprint_rows(mapping.geometry, fp) == frozenset(
                brute_footprint(mapping, start, size)
            )


def test_block_ids_match_the_quadratic_oracle(presets):
    # each id is the least member of its block's coset: each masked high
    # column reduced once against the oracle's reduction of every id
    rng = random.Random(0xB10C)
    mappings = [
        *presets.values(),
        _reduced_row_mapping(range(15, 27)),
        _reduced_row_mapping(range(26, 14, -1)),
    ]
    for _ in range(20):
        mappings.append(random_invertible_mapping(rng, random_geometry(rng, max_total=1 << 14)))
    reduced = 0
    for mapping in mappings:
        geo = mapping.geometry
        offset = geo.coord_offsets[4]
        in_subarray = (geo.rows_per_subarray - 1) << offset
        group_bits = ((1 << geo.coord_offsets[5]) - 1) & ~in_subarray
        cases = [
            (max(group_stride(mapping), geo.columns), group_bits),  # siloz's
            (geo.columns, group_bits),
            (max(row_chunk_stride(mapping), geo.columns), (geo.rows - 1) << offset),  # citadel's
        ]
        if geo.total_bytes <= 1 << 14:
            cases += [(1 << rng.randrange(geo.address_width + 1), rng.getrandbits(geo.address_width))
                      for _ in range(4)]
        for block, coord_bits in cases:
            ids, low = _block_ids(mapping, block, coord_bits)
            k = block.bit_length() - 1
            assert low == [column & coord_bits for column in mapping.columns[:k]]
            assert ids.dtype == np.int64
            assert ids.tolist() == brute_block_ids(mapping, block, coord_bits).tolist(), (
                mapping.columns, block, coord_bits
            )
            reduced += any(low)
    assert reduced  # some case has a nonempty basis to reduce by


def test_block_ids_hold_one_full_size_array():
    # 2^24 ids of 1 MiB blocks on a 44-bit space are 128 MiB; reducing the
    # high columns before the span allocates no second array that size
    code = (
        "import resource\n"
        "from vmhammer import AddressMapping, Geometry\n"
        "from vmhammer.layout import _block_ids\n"
        "geo = Geometry(channels=1, ranks=1, bankgroups=1, banks=2, rows=1 << 30,\n"
        "               columns=8192, rows_per_subarray=512)\n"
        "mapping = AddressMapping.build(geo, {'column': [[b] for b in range(13)],\n"
        "    'bank': [[13, 6]], 'row': [[b] for b in range(14, 44)]})\n"
        "in_subarray = (geo.rows_per_subarray - 1) << geo.coord_offsets[4]\n"
        "group_bits = ((1 << geo.coord_offsets[5]) - 1) & ~in_subarray\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "ids, low = _block_ids(mapping, 1 << 20, group_bits)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(len(ids), sum(map(bool, low)), grown // 1024)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    n_ids, reduced, grown_mib = map(int, proc.stdout.split())
    assert (n_ids, reduced) == (1 << 24, 2)  # PA6 and PA13 each feed the bank
    assert grown_mib < 128 + 64, grown_mib


def test_chunk_stride_matches_oracle():
    rng = random.Random(0xBEE)
    assert brute_chunk_stride(tiny_noncontig()) == row_chunk_stride(tiny_noncontig())
    for _ in range(10):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = random_invertible_mapping(rng, geometry)
        assert brute_chunk_stride(mapping) == row_chunk_stride(mapping)


# -- siloz planner ------------------------------------------------------------------


def test_siloz_16mib_example(presets, geometry):
    plan = plan_siloz(presets["simple"], [16 * MIB, 16 * MIB])
    regions = {r.owner: r for r in plan.layout.regions}
    assert regions["vm0"].start_pa == 0x00000000
    assert regions["vm1"].start_pa == 0x01000000
    assert plan.contained == {"vm0": True, "vm1": True}
    assert plan.groups["vm0"] == frozenset(((0, 0, bg, 0), 0) for bg in range(4))
    assert plan.groups["vm1"] == frozenset(((0, 0, bg, 0), 1) for bg in range(4))
    assert check_layout(plan.layout, geometry) == []


def test_siloz_512mib_example(presets):
    plan = plan_siloz(presets["simple"], [512 * MIB, 512 * MIB])
    regions = {r.owner: r for r in plan.layout.regions}
    assert regions["vm0"].start_pa == 0x00000000
    assert regions["vm1"].start_pa == 0x20000000
    assert plan.contained == {"vm0": False, "vm1": False}
    subs0 = {sub for _, sub in plan.groups["vm0"]}
    subs1 = {sub for _, sub in plan.groups["vm1"]}
    assert subs0 == set(range(32))
    assert subs1 == set(range(32, 64))


def test_siloz_noncontig_skips_shared_groups(presets):
    # group stride doubles because the subarray bits sit one PA bit higher
    plan = plan_siloz(presets["bank-xor-noncontig-row"], [16 * MIB, 16 * MIB])
    regions = {r.owner: r for r in plan.layout.regions}
    assert regions["vm0"].start_pa == 0x00000000
    assert regions["vm1"].start_pa == 0x02000000
    assert not (plan.groups["vm0"] & plan.groups["vm1"])


def test_siloz_infeasible_when_full(presets, geometry):
    with pytest.raises(PlanError):
        plan_siloz(presets["simple"], [geometry.total_bytes, 16 * MIB])


def test_siloz_rejects_bad_sizes(presets):
    with pytest.raises(PlanError):
        plan_siloz(presets["simple"], [])
    with pytest.raises(PlanError):
        plan_siloz(presets["simple"], [0])
    with pytest.raises(PlanError):
        plan_siloz(presets["simple"], [8191])  # not a multiple of the row span


def test_planners_hold_at_most_max_plan_blocks(presets, monkeypatch):
    # simple's 4 GiB holds 2^17 citadel chunks of 32 KiB and 2^19 rows of 8 KiB
    simple = presets["simple"]
    for plan, blocks, block in (
        (lambda: plan_citadel(simple, [16 * MIB, 16 * MIB], 1), 1 << 17, "0x8000"),
        (lambda: plan_siloz(simple, [8192, 8192]), 1 << 19, "0x2000"),
    ):
        monkeypatch.setattr("vmhammer.layout.MAX_PLAN_BLOCKS", blocks)
        plan()
        monkeypatch.setattr("vmhammer.layout.MAX_PLAN_BLOCKS", blocks - 1)
        with pytest.raises(PlanError, match=f"holds {blocks} blocks of {block} bytes"):
            plan()


def test_siloz_disjointness_against_oracle():
    rng = random.Random(0x51102)
    for trial in range(30):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = random_invertible_mapping(rng, geometry)
        total = geometry.total_bytes
        unit = geometry.columns
        sizes = [
            unit * rng.randint(1, max(1, total // (4 * unit)))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            plan = plan_siloz(mapping, sizes)
        except PlanError:
            continue
        assert check_layout(plan.layout, geometry) == []
        groups = {}
        for i in range(len(sizes)):
            owner = f"vm{i}"
            region = plan.layout.region_of(owner)
            assert region.size == sizes[i]
            actual = brute_groups(
                geometry, brute_footprint(mapping, region.start_pa, region.size)
            )
            assert plan.groups[owner] == frozenset(actual), owner
            groups[owner] = actual
            assert plan.contained[owner] == (len({s for _, s in actual}) == 1)
        owners = sorted(groups)
        for a in owners:
            for b in owners:
                if a < b:
                    assert not (groups[a] & groups[b]), (a, b)


def _siloz_outcome(planner, mapping, sizes):
    try:
        plan = planner(mapping, sizes)
    except PlanError as exc:
        return str(exc)
    return plan.to_dict(mapping.geometry.pa_digits), plan.contained


def test_siloz_matches_brute_oracle():
    # tiny_noncontig's group stride is 256 bytes, yet a second bank group
    # starts 8 bytes in: later VMs start at earlier VMs' ends, and vm2 of
    # [24, 40, 8] goes back below vm1
    cases = [(tiny_noncontig(), [8, 8, 8, 8]), (tiny_noncontig(), [24, 40, 8])]
    rng = random.Random(0x5110E)
    while len(cases) < 80:
        geometry = random_geometry(rng, max_total=1 << 13)
        make = rng.choice([random_invertible_mapping, random_split_mapping])
        mapping = make(rng, geometry)
        total, unit = geometry.total_bytes, geometry.columns
        # odd multiples of the row span make the planner's block a single row span
        sizes = [
            unit * rng.choice([1, 3, 5, rng.randint(1, max(1, total // (2 * unit)))])
            for _ in range(rng.randint(1, 4))
        ]
        if sum(sizes) <= total:
            cases.append((mapping, sizes))
    errors = 0
    for mapping, sizes in cases:
        expected = _siloz_outcome(brute_siloz, mapping, sizes)
        errors += isinstance(expected, str)
        assert _siloz_outcome(plan_siloz, mapping, sizes) == expected, (mapping.geometry, sizes)
    assert 0 < errors < len(cases)


def _reduced_row_mapping(row_bits):
    """4096 rows of 8 KiB, 512 per subarray, bank = PA27 ^ PA6."""
    geometry = Geometry(
        channels=1, ranks=1, bankgroups=4, banks=2,
        rows=4096, columns=8192, rows_per_subarray=512,
    )
    return AddressMapping.build(
        geometry,
        {
            "column": [[b] for b in range(13)],
            "bankgroup": [[13], [14]],
            "bank": [[27, 6]],
            "row": [[b] for b in row_bits],
        },
    )


def test_siloz_reversed_row_mapping_fails_fast():
    # row MSBs from PA 15 up shrink the group stride to 32 KiB, and one
    # 1 MiB VM then covers every subarray of every bank
    mapping = _reduced_row_mapping(range(26, 14, -1))
    start = time.perf_counter()
    with pytest.raises(PlanError) as info:
        plan_siloz(mapping, [MIB, MIB])
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "cannot place vm1 (0x100000 bytes) in a free subarray-group set; "
        "group granularity is 0x8000 bytes"
    )

    plan = plan_siloz(_reduced_row_mapping(range(15, 27)), [MIB, MIB])
    assert [(r.owner, r.start_pa) for r in plan.layout.regions] == [
        ("vm0", 0), ("vm1", 16 * MIB)
    ]
    banks = [(0, 0, bg, bk) for bg in range(4) for bk in range(2)]
    assert plan.groups == {
        "vm0": frozenset((bt, 0) for bt in banks),
        "vm1": frozenset((bt, 1) for bt in banks),
    }
    assert plan.contained == {"vm0": True, "vm1": True}


# -- citadel planner ----------------------------------------------------------------


def test_citadel_256mib_example(presets, geometry):
    layout = plan_citadel(presets["simple"], [256 * MIB, 256 * MIB], 1)
    regions = list(layout.regions)
    assert [r.owner for r in regions] == ["vm0", UNUSED, "vm1"]
    assert regions[0].start_pa == 0x00000000 and regions[0].size == 256 * MIB
    assert regions[1].start_pa == 0x10000000 and regions[1].size == 0x8000
    assert regions[2].start_pa == 0x10008000 and regions[2].size == 256 * MIB
    assert check_layout(layout, geometry) == []
    # vm0 rows 0..8191, guard row 8192, vm1 rows 8193..16384
    fp0 = row_footprint(presets["simple"], regions[0])
    fp1 = row_footprint(presets["simple"], regions[2])
    assert {rt[4] for rt in footprint_rows(geometry, fp0)} == set(range(8192))
    assert {rt[4] for rt in footprint_rows(geometry, fp1)} == set(range(8193, 16385))
    assert classify_pa(layout, 0x10000000) == UNUSED
    # the guard global row's bank-1 chunk lies outside the VM span: unallocated
    assert classify_pa(layout, 0x80000000 + 0x10000000) == UNALLOCATED


def test_citadel_rejects_zero_guard(presets):
    with pytest.raises(PlanError):
        plan_citadel(presets["simple"], [256 * MIB], 0)
    with pytest.raises(PlanError, match="^guard_global_rows must be an integer, got 1.5$"):
        plan_citadel(presets["simple"], [256 * MIB], 1.5)


def test_citadel_rejects_misaligned_sizes(presets):
    with pytest.raises(PlanError):
        plan_citadel(presets["simple"], [256 * MIB + 8192], 1)


def test_planners_reject_non_integer_sizes_and_guards(presets):
    mapping = presets["simple"]
    for mitigation in ("none", "siloz", "citadel"):
        for guard in (1.5, True):
            with pytest.raises(PlanError, match="^guard_global_rows must be an integer"):
                plan_layout(mapping, mitigation, [16 * MIB, 16 * MIB], guard)
        with pytest.raises(PlanError, match=r"^vm0 size must be an integer, got 8388608\.0$"):
            plan_layout(mapping, mitigation, [8.0 * MIB, 8 * MIB], 1)


def test_planners_reject_sizes_that_are_not_a_list(presets):
    # a generator would be consumed by the size check and plan no VM at all
    mapping = presets["simple"]
    for sizes in (8 * MIB, (s for s in [16 * MIB]), {16 * MIB: 1}):
        message = r"^vm_sizes must be a list of sizes, got "
        for mitigation in ("none", "siloz", "citadel"):
            with pytest.raises(PlanError, match=message):
                plan_layout(mapping, mitigation, sizes, 1)
        with pytest.raises(PlanError, match=message):
            plan_siloz(mapping, sizes)
        with pytest.raises(PlanError, match=message):
            plan_citadel(mapping, sizes, 1)


def test_plan_layout_rejects_unknown_mitigation(presets):
    with pytest.raises(ValueError, match="unknown mitigation 'bogus'"):
        plan_layout(presets["simple"], "bogus", [MIB], 1)


def test_citadel_needs_row_chunks_at_least_one_row():
    # mapping that routes a row bit below the column width is not plannable
    mapping = tiny_noncontig()
    assert row_chunk_stride(mapping) >= mapping.geometry.columns
    geometry = mapping.geometry
    twisted = AddressMapping.build(
        geometry,
        {
            "channel": [],
            "rank": [],
            "bankgroup": [[3], [4]],
            "bank": [[1, 6]],
            "row": [[0], [7], [8], [9]],  # row bit 0 comes from PA bit 0
            "column": [[5], [1], [2]],
        },
    )
    with pytest.raises(PlanError):
        plan_citadel(twisted, [twisted.geometry.columns], 1)


def test_citadel_guard_distance_against_oracle():
    rng = random.Random(0xC17)
    planned = 0
    for trial in range(40):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = random_split_mapping(rng, geometry)
        stride = row_chunk_stride(mapping)
        total = geometry.total_bytes
        guard = rng.randint(1, 3)
        sizes = [
            stride * rng.randint(1, max(1, total // (4 * stride)))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            layout = plan_citadel(mapping, sizes, guard)
        except PlanError:
            assert not brute_citadel_feasible(mapping, sizes, guard), (
                mapping.to_dict(),
                sizes,
                guard,
            )
            continue
        planned += 1
        assert check_layout(layout, geometry) == []
        rows = {}
        for i in range(len(sizes)):
            owner = f"vm{i}"
            region = layout.region_of(owner)
            assert region.size == sizes[i]
            fp = brute_footprint(mapping, region.start_pa, region.size)
            indices = sorted({r[4] for r in fp})
            # contiguous row range per VM
            assert indices == list(range(indices[0], indices[-1] + 1)), owner
            rows[owner] = indices
        owners = sorted(rows)
        for a in owners:
            for b in owners:
                if a < b:
                    gap = min(
                        abs(ra - rb) for ra in (rows[a][0], rows[a][-1])
                        for rb in (rows[b][0], rows[b][-1])
                    )
                    assert gap > guard, (a, b)
    assert planned >= 10  # the generator must actually exercise the success path


def test_citadel_matches_brute_oracle():
    # the exact greedy layout, or the exact PlanError, on random mappings whose
    # row bits lie above the column bits (so every chunk is at least a row)
    rng = random.Random(0xC1)
    planned = 0
    for _ in range(300):
        mapping = random_row_high_mapping(rng, random_geometry(rng, 1 << 12))
        stride = row_chunk_stride(mapping)
        n_chunks = mapping.geometry.total_bytes // stride
        guard = rng.randint(1, 3)
        sizes = [stride * rng.randint(1, max(1, n_chunks // 8)) for _ in range(rng.randint(1, 3))]
        request = (mapping.to_dict(), sizes, guard)
        try:
            expected = brute_citadel(mapping, sizes, guard)
        except PlanError as exc:
            with pytest.raises(PlanError) as info:
                plan_citadel(mapping, sizes, guard)
            assert str(info.value) == str(exc), request
            continue
        assert plan_citadel(mapping, sizes, guard) == expected, request
        planned += 1
    assert planned >= 50


def test_citadel_split_mappings_match_brute_oracle():
    # row bits in a shuffled order over the top PA bits, so a chunk window
    # often holds one row more than once and its rows are not monotone
    rng = random.Random(0x5C17)
    planned = 0
    for _ in range(300):
        mapping = random_split_mapping(rng, random_geometry(rng, 1 << 12))
        stride = row_chunk_stride(mapping)
        n_chunks = mapping.geometry.total_bytes // stride
        guard = rng.randint(1, 3)
        sizes = [stride * rng.randint(1, max(1, n_chunks // 8)) for _ in range(rng.randint(1, 4))]
        request = (mapping.to_dict(), sizes, guard)
        try:
            expected = brute_citadel(mapping, sizes, guard)
        except PlanError as exc:
            with pytest.raises(PlanError) as info:
                plan_citadel(mapping, sizes, guard)
            assert str(info.value) == str(exc), request
            continue
        assert plan_citadel(mapping, sizes, guard) == expected, request
        planned += 1
    assert planned >= 50


def test_fitting_windows_match_brute():
    rng = random.Random(0xF17)
    for _ in range(2000):
        rows = [rng.randint(0, rng.choice([1, 3, 8, 40])) for _ in range(rng.randint(1, 30))]
        n = rng.choice([1, len(rows), rng.randint(1, len(rows))])
        bound = rng.choice([-1, rng.randint(-1, 10)])
        windows = [rows[s : s + n] for s in range(len(rows) - n + 1)]
        expected = [
            min(w) > bound and len(set(w)) == max(w) - min(w) + 1 for w in windows
        ]
        got = _fitting_windows(np.array(rows, dtype=np.int64), n, bound)
        assert got.tolist() == expected, (rows, n, bound)


def test_citadel_refusals_are_fast(geometry):
    # no window fits anywhere in these spaces, so a search that tests one
    # start at a time visits every window of the space before it refuses
    row_high = random_row_high_mapping(random.Random(11), geometry)
    split = random_split_mapping(
        random.Random(7),
        Geometry(channels=1, ranks=2, bankgroups=1, banks=2, rows=65536, columns=4,
                 rows_per_subarray=4),
    )
    for mapping, sizes, guard in (
        (row_high, [16 * MIB, 16 * MIB], 1),
        (_reduced_row_mapping(range(26, 14, -1)), [MIB, MIB], 1),
        (split, [495_376], 3),
    ):
        start = time.perf_counter()
        with pytest.raises(PlanError) as info:
            plan_citadel(mapping, sizes, guard)
        assert time.perf_counter() - start < 1.0, sizes
        assert str(info.value) == (
            f"cannot place vm0: no chunk window clears guard rows {-guard}..-1 "
            "(offending row -1)"
        )


# -- aggressor discovery --------------------------------------------------------------


def site_row_tuple(site) -> tuple[int, int, int, int, int]:
    c = site.coord
    return (c.channel, c.rank, c.bankgroup, c.bank, c.row)


def check_sites(mapping, layout, attacker_vm, victim_vm, blast):
    """find_aggressors on two of the layout's VMs against ``brute_sites``:
    the adjacent rows with their victim rows or, when none is adjacent, the
    fallback rows with none. Returns the sites."""
    sites = find_aggressors(mapping, layout, attacker_vm, victim_vm, blast)
    actual = [(site_row_tuple(s), list(s.victim_rows)) for s in sites]
    assert actual == brute_sites(mapping, layout, attacker_vm, victim_vm, blast)
    for site in sites:
        assert mapping.pa_to_coord(site.pa) == site.coord and site.coord.column == 0
    return sites


def test_find_aggressors_adjacent_8mib(presets, geometry):
    mapping = presets["simple"]
    layout = MemoryLayout(
        (Region("vm0", 0, 8 * MIB), Region("vm1", 8 * MIB, 8 * MIB))
    )
    sites = check_sites(mapping, layout, "vm1", "vm0", 1)
    by_row = {site.coord.row: site for site in sites}
    assert 256 in by_row
    assert by_row[256].victim_rows == (255,)
    assert by_row[256].coord.column == 0
    # row 256 is the only vm1 row adjacent to vm0 in the same subarray
    assert set(by_row) == {256}
    assert len(sites) == 4  # one per bankgroup


def test_find_aggressors_empty_under_siloz(presets):
    mapping = presets["simple"]
    plan = plan_siloz(mapping, [16 * MIB, 16 * MIB])
    sites = find_aggressors(mapping, plan.layout, "vm1", "vm0", 1)
    assert sites and not any(site.victim_rows for site in sites)


def test_find_aggressors_empty_under_citadel(presets):
    mapping = presets["simple"]
    layout = plan_citadel(mapping, [256 * MIB, 256 * MIB], 1)
    sites = find_aggressors(mapping, layout, "vm1", "vm0", 1)
    assert sites and not any(site.victim_rows for site in sites)


def test_find_aggressors_empty_footprint(presets):
    # a zero-size region has an empty footprint, as attacker, victim or both
    mapping = presets["simple"]
    empty, full = Region("vm0", 0, 0), Region("vm1", 0, MIB)
    assert len(row_footprint(mapping, empty)) == 0 and len(row_footprint(mapping, full))
    for layout in (MemoryLayout((empty, full)), MemoryLayout((empty, Region("vm1", MIB, 0)))):
        for attacker_vm, victim_vm in (("vm1", "vm0"), ("vm0", "vm1")):
            assert find_aggressors(mapping, layout, attacker_vm, victim_vm, 1) == []


@pytest.mark.parametrize(
    "top, n_sites",
    [
        # vm0 and vm1 hold the two halves of every row tuple: all 64 shared
        # rows are sites, not only the ends of each bank's run of rows
        ({"column": [[11]], "bank": [[5]]}, 64),
        # bank 1 holds no victim row, and each of its 32 rows ties with the
        # victim row of its index in bank 0
        ({"column": [[5]], "bank": [[11]]}, 32),
    ],
)
def test_boundary_fallback_distance_zero_ties(top, n_sites):
    # one-row subarrays, so no row is adjacent and every site is at distance 0
    geometry = Geometry(channels=1, ranks=1, bankgroups=1, banks=2, rows=32, columns=64,
                        rows_per_subarray=1)
    functions = {"column": [[b] for b in range(5)] + top["column"], "bank": top["bank"],
                 "row": [[b] for b in range(6, 11)]}
    mapping = AddressMapping.build(geometry, functions)
    layout = MemoryLayout((Region("vm0", 0, 2048), Region("vm1", 2048, 2048)))
    sites = check_sites(mapping, layout, "vm1", "vm0", 1)
    assert len(sites) == n_sites and not any(site.victim_rows for site in sites)


@pytest.mark.parametrize("radius", [0, -1, True])
def test_find_aggressors_refuses_radius(presets, radius):
    mapping = presets["simple"]
    layout = MemoryLayout((Region("vm0", 0, 8 * MIB), Region("vm1", 8 * MIB, MIB)))
    with pytest.raises(ValueError, match="blast_radius"):
        find_aggressors(mapping, layout, "vm1", "vm0", radius)


def test_find_aggressors_refuses_unknown_vm(presets):
    layout = MemoryLayout((Region("vm0", 0, MIB),))
    with pytest.raises(KeyError, match="vm1"):
        find_aggressors(presets["simple"], layout, "vm1", "vm0", 1)


def test_find_aggressors_matches_oracle():
    rng = random.Random(0xA66)
    nonempty = 0
    for trial in range(40):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = random_invertible_mapping(rng, geometry)
        unit = geometry.columns
        total = geometry.total_bytes
        size0 = unit * rng.randint(1, max(1, total // (2 * unit)))
        size1 = unit * rng.randint(1, max(1, (total - size0) // unit))
        blast = rng.randint(1, 3)
        vm1_below = MemoryLayout((Region("vm1", 0, size1), Region("vm0", size1, size0)))
        for layout in (pack_layout(mapping, (size0, size1)), vm1_below):
            sites = check_sites(mapping, layout, "vm1", "vm0", blast)
            if sites[0].victim_rows:
                nonempty += 1
            attacker_rows = brute_footprint(
                mapping, layout.region_of("vm1").start_pa, layout.region_of("vm1").size
            )
            for site in sites:
                # the row is the attacker's even when its column-0 byte is not
                assert site_row_tuple(site) in attacker_rows
    assert nonempty >= 20


def three_vms(rng, unit, n_units, base=0):
    """Three nonempty VM regions among n_units units of ``unit`` bytes from
    base, owners in random order, so any of the three may lie between the
    other two in PA; with room, gaps may separate them."""
    points = sorted(rng.sample(range(n_units + 1), 6 if n_units >= 5 else 4))
    if len(points) == 4:
        points = points[:2] + points[1:3] + points[2:]
    owners = rng.sample(["vm0", "vm1", "vm2"], 3)
    return MemoryLayout(tuple(
        Region(owner, base + lo * unit, (hi - lo) * unit)
        for owner, lo, hi in zip(owners, points[::2], points[1::2])
    ))


def test_find_aggressors_three_vms_match_oracle(presets):
    """Every ordered pair of three VMs equals ``brute_sites``: on random
    small mappings, and on the presets in windows of 48 row-wide units, at
    PA 0, astride the first subarray edge or anywhere."""
    rng = random.Random(0x3B3)
    cases = []
    for _ in range(40):
        geometry = random_geometry(rng, max_total=1 << 13)
        maker = rng.choice([random_invertible_mapping, random_row_high_mapping])
        unit = geometry.columns
        cases.append((maker(rng, geometry), three_vms(rng, unit, geometry.total_bytes // unit)))
    for mapping in presets.values():
        unit = mapping.geometry.columns
        edge = mapping.geometry.rows_per_subarray * row_chunk_stride(mapping) // unit
        for base in (0, edge - 24, rng.randrange(mapping.geometry.total_bytes // unit - 48)):
            cases.append((mapping, three_vms(rng, unit, 48, base * unit)))
    adjacent = fallback = 0
    for mapping, layout in cases:
        blast = rng.randint(1, 3)
        for attacker_vm, victim_vm in itertools.permutations(["vm0", "vm1", "vm2"], 2):
            sites = check_sites(mapping, layout, attacker_vm, victim_vm, blast)
            if sites and sites[0].victim_rows:
                adjacent += 1
            elif sites:
                fallback += 1
    assert adjacent >= 50 and fallback >= 50, (adjacent, fallback)


def test_boundary_fallback_matches_oracle(presets):
    """The fallback rows, through find_aggressors: the same random layouts
    in both directions, then more until 120 fallback comparisons are made."""
    rng = random.Random(0xFA11)
    fallbacks = trial = 0
    while trial < 60 or fallbacks < 120:
        geometry = random_geometry(rng, max_total=1 << rng.randint(12, 14))
        maker = random_split_mapping if trial % 2 else random_invertible_mapping
        mapping = maker(rng, geometry)
        unit = geometry.columns
        # two disjoint ranges [a, b) and [c, d), adjacent when b == c
        a, b, d = sorted(rng.sample(range(geometry.total_bytes // unit + 1), 3))
        c = rng.randint(b, d - 1)
        low, high = rng.sample(["vm0", "vm1"], 2)
        layout = MemoryLayout(
            (Region(low, a * unit, (b - a) * unit), Region(high, c * unit, (d - c) * unit))
        )
        for attacker_vm, victim_vm in (("vm1", "vm0"), ("vm0", "vm1")):
            sites = check_sites(mapping, layout, attacker_vm, victim_vm, 1)
            fallbacks += not sites[0].victim_rows
        trial += 1
    # bank 1 holds no victim row, so every attacker row is ranked against
    # all victim rows: each vm1 row has a vm0 row of the same index
    layout = MemoryLayout(
        (Region("vm0", 0, 8 * MIB), Region("vm1", 2048 * MIB, 8 * MIB))
    )
    sites = check_sites(presets["simple"], layout, "vm1", "vm0", 1)
    assert not sites[0].victim_rows
    assert len(sites) == 4 * 256 and {s.coord.bank for s in sites} == {1}
