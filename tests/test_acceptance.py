"""Package-level acceptance gates.

Each criterion is one test with its tolerance and runtime budget pinned
inside; the conftest summary hook prints one PASS/FAIL line per criterion
at the end of the run. Oracle comparisons are exact, with zero tolerance.
"""

import dataclasses
import json
import random
import time

from vmhammer.dram import HammerParams, SimState
from vmhammer.harness import (
    Scenario,
    builtin_matrix,
    matvec_trace,
    replay_trace,
    run_attack,
    run_matrix,
    toggle_trace,
)
from vmhammer.layout import (
    UNUSED,
    PlanError,
    check_layout,
    find_aggressors,
    pack_layout,
    plan_citadel,
    plan_siloz,
    row_chunk_stride,
    row_footprint,
)
from vmhammer.mapping import (
    AddressMapping,
    DramCoordinate,
    Geometry,
    builtin_mappings,
    default_geometry,
    validate,
)

from oracles import (
    brute_citadel_feasible,
    brute_footprint,
    brute_groups,
    brute_sites,
    brute_valid,
    footprint_rows,
    random_geometry,
    random_invertible_mapping,
    random_mapping,
    random_split_mapping,
    tiny_noncontig,
    vm_footprints,
)

MIB = 1 << 20
PRESET_NAMES = ("simple", "bank-xor", "bank-xor-noncontig-row")


def test_criterion_1_mapping_validation_parity():
    """All presets validate at full rank; duplicated-bit mutants are rejected."""
    start = time.monotonic()
    presets = builtin_mappings(default_geometry())
    for name in PRESET_NAMES:
        report = validate(presets[name])
        assert report.valid, name
        assert report.rank == 32, name
        assert report.inverse_rows is not None, name

        # PA bit 15 feeds row bit 0 in every preset; reusing it must fail
        mutated = presets[name].to_dict()["functions"]
        mutated["bank"] = [[15]]
        broken = AddressMapping.build(default_geometry(), mutated)
        report = validate(broken)
        assert not report.valid, name
        assert report.witness, name

        # a bit duplicated inside one coordinate is just as degenerate
        mutated = presets[name].to_dict()["functions"]
        mutated["bankgroup"] = [[13], [13]]
        report = validate(AddressMapping.build(default_geometry(), mutated))
        assert not report.valid, name
    assert time.monotonic() - start < 1.0


def test_criterion_2_exhaustive_bijectivity():
    """validate agrees with per-byte enumeration at every small geometry."""
    start = time.monotonic()
    rng = random.Random(0xACC2)

    cases = [tiny_noncontig()]
    tiny = Geometry(
        channels=1, ranks=1, bankgroups=1, banks=2, rows=16, columns=8,
        rows_per_subarray=4,
    )
    cases.append(AddressMapping.build(tiny, {
        "channel": [],
        "rank": [],
        "bankgroup": [],
        "bank": [[7]],
        "row": [[3], [4], [5], [6]],
        "column": [[0], [1], [2]],
    }))
    for max_total in (1 << 12, 1 << 14, 1 << 16):
        for _ in range(5):
            geometry = random_geometry(rng, max_total=max_total)
            cases.append(random_invertible_mapping(rng, geometry))
            cases.append(random_mapping(rng, geometry))
        cases.append(random_split_mapping(rng, random_geometry(rng, max_total)))

    checked = 0
    for mapping in cases:
        assert mapping.geometry.total_bytes <= 1 << 16
        assert validate(mapping).valid == brute_valid(mapping)
        checked += 1
    assert checked >= 30
    assert time.monotonic() - start < 10.0


def test_criterion_3_inter_vm_flip_reproduction():
    """Unmitigated adjacent VMs: the boundary aggressor flips the victim,
    and flips land in exactly the blast-reachable neighbor rows."""
    presets = builtin_mappings(default_geometry())
    for name in PRESET_NAMES:
        start = time.monotonic()
        scenario = Scenario(
            mapping=presets[name],
            hammer=HammerParams(hc_first=50_000, deterministic_mode=True),
            vm_sizes=(8 * MIB, 8 * MIB),
            mitigation="none",
            aggressor_selection="first",
        )
        report = run_attack(scenario)
        assert report.verdict == "NOT_MITIGATED", name
        assert report.ownership_histogram.get("vm0", 0) >= 1, name

        site = report.aggressors[0]
        geo = scenario.mapping.geometry
        sub = geo.subarray_of(site.coord.row)
        reachable = {
            site.coord.bank_tuple + (site.coord.row + d,)
            for d in (-1, 1)
            if 0 <= site.coord.row + d < geo.rows
            and geo.subarray_of(site.coord.row + d) == sub
        }
        flipped = {f.coord.bank_tuple + (f.coord.row,) for f in report.flips}
        assert flipped == reachable, name  # in, and only in, adjacent rows
        for f in report.flips:
            assert f.aggressor_row == site.coord.row
        assert time.monotonic() - start < 5.0, name


def test_criterion_4_mitigation_matrix_reproduction():
    """Both mitigations hold in all six cells, flips confined as observed;
    a 600-run probabilistic sweep never touches the victim."""
    start = time.monotonic()
    scenarios = [sc for sc in builtin_matrix() if sc.mitigation != "none"]
    reports = run_matrix(scenarios)
    assert all(not isinstance(r, dict) for r in reports)
    for report in reports:
        sc = report.scenario
        assert report.verdict == "MITIGATED", (sc.mitigation, sc.label)
        assert report.flips, (sc.mitigation, sc.label)
        geo = sc.mapping.geometry
        attacker_fp = row_footprint(sc.mapping, report.layout.region_of("vm1"))
        attacker_groups = brute_groups(geo, footprint_rows(geo, attacker_fp))
        for f, owner in zip(report.flips, report.flip_owners):
            group = (f.coord.bank_tuple, geo.subarray_of(f.coord.row))
            if sc.mitigation == "siloz":
                # flips stay inside the attacker's own subarray groups
                assert owner == "vm1"
                assert group in attacker_groups
            else:
                # flips beyond the attacker's own rows land in guard rows
                assert owner in ("vm1", UNUSED)
        if sc.mitigation == "citadel":
            assert UNUSED in report.flip_owners

    sweep_runs = 0
    sweep_flips = 0
    for scenario in scenarios:
        for seed in range(100):
            probe = dataclasses.replace(
                scenario,
                hammer=HammerParams(
                    hc_first=1_000,
                    flip_probability=1e-2,
                    deterministic_mode=False,
                    rng_seed=seed,
                ),
            )
            report = run_attack(probe)
            assert report.verdict == "MITIGATED"
            assert report.ownership_histogram.get("vm0", 0) == 0
            sweep_runs += 1
            sweep_flips += len(report.flips)
    assert sweep_runs == 600
    assert sweep_flips > 0  # the sweep actually induced flips, just never vm0's
    assert time.monotonic() - start < 120.0


def test_criterion_5_refresh_soundness():
    """Workloads that never exceed hc_first activations per refresh window
    produce zero flips, in both flip modes."""
    rng = random.Random(0xACC5)
    runs = 0
    while runs < 1200:
        geometry = random_geometry(rng, max_total=1 << 12)
        mapping = random_invertible_mapping(rng, geometry)
        hc = rng.randint(1, 256)
        params = HammerParams(
            hc_first=hc,
            flip_probability=rng.choice([1.0, 0.5, 1e-2]),
            blast_radius=rng.randint(1, 2),
            deterministic_mode=rng.random() < 0.5,
            rng_seed=rng.randrange(1 << 16),
        )
        state = SimState(mapping, params)
        for _ in range(rng.randint(1, 3)):
            targets = {}
            for _ in range(rng.randint(1, 2)):
                coord = DramCoordinate(
                    rng.randrange(geometry.channels),
                    rng.randrange(geometry.ranks),
                    rng.randrange(geometry.bankgroups),
                    rng.randrange(geometry.banks),
                    rng.randrange(geometry.rows),
                    0,
                )
                targets[coord.bank_tuple + (coord.row,)] = coord
            plan = []
            for coord in targets.values():
                # budget hits the boundary often: exactly hc is still safe
                count = hc if rng.random() < 0.5 else rng.randint(0, hc)
                plan.extend([coord] * count)
            rng.shuffle(plan)
            for coord in plan:
                state.activate_row(coord)
                if rng.random() < 0.02:  # open-row reads never activate
                    state.access(mapping.coord_to_pa(coord), "read")
            state.refresh()
        assert state.collect_flips() == []
        assert state.stats.accesses == state.stats.row_buffer_hits + state.stats.activations
        runs += 1
    assert runs >= 1000


def test_criterion_6_proxy_performance_statistics():
    """Trace replay is bit-stable and the adversarial toggle trace separates
    the direct and xor bank mappings by hit rate (frozen snapshot)."""
    start = time.monotonic()
    presets = builtin_mappings(default_geometry())
    params = HammerParams(hc_first=50_000, deterministic_mode=True)

    matvec = matvec_trace(64, 64, 0x0)
    for name in ("simple", "bank-xor"):
        first, _ = replay_trace(matvec, presets[name], params)
        second, _ = replay_trace(matvec, presets[name], params)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict()), name
        assert first.accesses == first.row_buffer_hits + first.activations

    adversarial = toggle_trace(0x80000000, 0x8040, 1024)
    direct, _ = replay_trace(adversarial, presets["simple"], params)
    xor, _ = replay_trace(adversarial, presets["bank-xor"], params)
    # frozen regression snapshot: every access conflicts under the direct
    # mapping; the xor mapping splits the pair across two quiet banks
    assert (direct.accesses, direct.activations, direct.row_buffer_hits) == (1024, 1024, 0)
    assert (xor.accesses, xor.activations, xor.row_buffer_hits) == (1024, 2, 1022)
    assert xor.row_buffer_hits / xor.accesses > direct.row_buffer_hits / direct.accesses
    assert time.monotonic() - start < 30.0


def test_criterion_7_planner_oracle_equivalence():
    """Planner outputs match exhaustive brute force on randomized instances."""
    start = time.monotonic()
    rng = random.Random(0xACC7)
    cases = siloz_planned = citadel_planned = aggressors_nonempty = 0

    for trial in range(70):
        max_total = rng.choice([1 << 12, 1 << 13])

        # subarray-group isolation: exact groups, disjoint across VMs
        geometry = random_geometry(rng, max_total)
        mapping = random_invertible_mapping(rng, geometry)
        unit = geometry.columns
        sizes = [
            unit * rng.randint(1, max(1, geometry.total_bytes // (4 * unit)))
            for _ in range(rng.randint(1, 3))
        ]
        cases += 1
        try:
            plan = plan_siloz(mapping, sizes)
        except PlanError:
            plan = None
        if plan is not None:
            siloz_planned += 1
            assert check_layout(plan.layout, geometry) == []
            seen = {}
            for i in range(len(sizes)):
                owner = f"vm{i}"
                region = plan.layout.region_of(owner)
                expected = brute_groups(
                    geometry, brute_footprint(mapping, region.start_pa, region.size)
                )
                assert plan.groups[owner] == frozenset(expected), owner
                seen[owner] = expected
            owners = sorted(seen)
            for a in owners:
                for b in owners:
                    if a < b:
                        assert not (seen[a] & seen[b]), (a, b)

        # guard-row isolation: contiguous VM row ranges, gaps above the guard
        geometry = random_geometry(rng, max_total)
        mapping = random_split_mapping(rng, geometry)
        stride = row_chunk_stride(mapping)
        guard = rng.randint(1, 2)
        # small sizes keep a healthy share of feasible draws
        sizes = [
            stride * rng.randint(1, max(1, geometry.total_bytes // (8 * stride)))
            for _ in range(rng.randint(1, 2))
        ]
        cases += 1
        try:
            layout = plan_citadel(mapping, sizes, guard)
        except PlanError:
            assert not brute_citadel_feasible(mapping, sizes, guard)
            layout = None
        if layout is not None:
            citadel_planned += 1
            assert check_layout(layout, geometry) == []
            spans = {}
            for i in range(len(sizes)):
                owner = f"vm{i}"
                region = layout.region_of(owner)
                fp = brute_footprint(mapping, region.start_pa, region.size)
                indices = sorted({r[4] for r in fp})
                assert indices == list(range(indices[0], indices[-1] + 1)), owner
                spans[owner] = (indices[0], indices[-1])
            owners = sorted(spans)
            for a in owners:
                for b in owners:
                    if a < b:
                        gap = min(
                            abs(ra - rb) for ra in spans[a] for rb in spans[b]
                        )
                        assert gap > guard, (a, b)

        # aggressor discovery: exact site and victim sets, or the exact
        # fallback rows when no row is adjacent
        geometry = random_geometry(rng, max_total)
        mapping = random_invertible_mapping(rng, geometry)
        unit = geometry.columns
        total = geometry.total_bytes
        size0 = unit * rng.randint(1, max(1, total // (2 * unit)))
        size1 = unit * rng.randint(1, max(1, (total - size0) // unit))
        layout = pack_layout(mapping, (size0, size1))
        blast = rng.randint(1, 2)
        cases += 1
        actual = [
            (s.coord[:5], list(s.victim_rows))
            for s in find_aggressors(mapping, *vm_footprints(mapping, layout, "vm1", "vm0"), blast)
        ]
        expected = brute_sites(mapping, layout, "vm1", "vm0", blast)
        assert actual == expected
        if expected[0][1]:
            aggressors_nonempty += 1

    assert cases >= 200
    # every branch must be exercised, not just the refusal paths
    assert siloz_planned >= 20
    assert citadel_planned >= 20
    assert aggressors_nonempty >= 20
    assert time.monotonic() - start < 60.0
