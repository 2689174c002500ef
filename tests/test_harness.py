"""Scenario plumbing, attack verdicts, matrix runs, and trace replay."""

import dataclasses
import enum
import hashlib
import json
import random
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmhammer
from vmhammer.dram import REFRESH_EVERY, REPLAY_CHUNK, HammerParams, SimState
from vmhammer.harness import (
    AccessTrace,
    Scenario,
    ScenarioError,
    TraceError,
    builtin_matrix,
    format_trace,
    load_matrix_scenarios,
    load_scenario,
    matrix_summary,
    matvec_trace,
    parse_size,
    parse_trace,
    render_json,
    replay_trace,
    run_attack,
    run_matrix,
    scenario_from_dict,
    sequential_trace,
    strided_trace,
    toggle_trace,
    with_overrides,
)
from vmhammer.layout import UNUSED, PlanError, classify_pa, pack_layout, row_chunk_stride
from vmhammer.mapping import AddressMapping, Geometry, MappingError, default_geometry

from oracles import (
    brute_access_trace,
    brute_parse_trace,
    brute_replay,
    brute_row_pas,
    brute_seeded_attack,
    random_geometry,
    random_invertible_mapping,
    random_split_mapping,
    tiny_noncontig,
)

MIB = 1 << 20


def reduced_hammer(**overrides) -> HammerParams:
    """Full threshold machinery at a count small enough for unit tests."""
    kwargs = dict(hc_first=64, deterministic_mode=True)
    kwargs.update(overrides)
    return HammerParams(**kwargs)


def make_scenario(presets, **overrides) -> Scenario:
    kwargs = dict(
        mapping=presets["simple"],
        hammer=reduced_hammer(),
        vm_sizes=(8 * MIB, 8 * MIB),
        aggressor_selection="first",
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- parse_size -----------------------------------------------------------------


def test_parse_size_accepted_forms():
    assert parse_size(4096) == 4096
    assert parse_size("4096") == 4096
    assert parse_size("0x1000") == 4096
    assert parse_size("64KiB") == 64 * 1024
    assert parse_size("16MiB") == 16 * MIB
    assert parse_size("1GiB") == 1 << 30
    assert parse_size(" 8MiB ") == 8 * MIB


@pytest.mark.parametrize("bad", ["banana", "12 MB", "", True, None, "MiB"])
def test_parse_size_rejects_garbage(bad):
    with pytest.raises(ScenarioError):
        parse_size(bad)


# -- Scenario validation ----------------------------------------------------------


def test_scenario_rejects_attacker_equal_victim(presets):
    with pytest.raises(ScenarioError, match="must differ"):
        make_scenario(presets, attacker_vm="vm0", victim_vm="vm0")


def test_scenario_rejects_bad_fields(presets):
    with pytest.raises(ScenarioError, match="mitigation"):
        make_scenario(presets, mitigation="rowclone")
    with pytest.raises(ScenarioError, match="at least one"):
        make_scenario(presets, vm_sizes=())
    with pytest.raises(ScenarioError, match="hammer_count"):
        make_scenario(presets, hammer_count=0)
    with pytest.raises(ScenarioError, match="refresh_every"):
        make_scenario(presets, refresh_every=0)
    with pytest.raises(ScenarioError, match="guard_global_rows"):
        make_scenario(presets, guard_global_rows=0)
    with pytest.raises(ScenarioError, match="check_pattern"):
        make_scenario(presets, check_pattern=256)
    with pytest.raises(ScenarioError, match="aggressor_selection"):
        make_scenario(presets, aggressor_selection="last")
    with pytest.raises(ScenarioError, match="list rows"):
        make_scenario(presets, aggressor_selection=())
    with pytest.raises(ScenarioError, match="aggressor_selection"):
        make_scenario(presets, aggressor_selection=(3, True))
    with pytest.raises(ScenarioError, match="vm_sizes"):
        make_scenario(presets, vm_sizes=(8 * MIB, "8MiB"))
    with pytest.raises(ScenarioError, match="hammer_count"):
        make_scenario(presets, hammer_count=1.0e3)
    with pytest.raises(ScenarioError, match="victim_vm"):
        make_scenario(presets, victim_vm=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("hammer", {"hc_first": 64}, "hammer must be a HammerParams, got {'hc_first': 64}"),
        ("mapping", "simple", "mapping must be an AddressMapping, got 'simple'"),
    ],
)
def test_scenario_refuses_a_hammer_or_mapping_of_another_type(presets, field, value, message):
    """Scenario and with_overrides alike, before hash() or run_attack can fail."""
    with pytest.raises(ScenarioError) as info:
        make_scenario(presets, **{field: value})
    assert str(info.value) == message
    with pytest.raises(ScenarioError) as info:
        with_overrides(make_scenario(presets), **{field: value})
    assert str(info.value) == message


def test_with_overrides_takes_a_whole_hammer_then_its_fields(presets):
    base = make_scenario(presets)
    hammer = reduced_hammer(hc_first=77, rng_seed=5)
    assert with_overrides(base, hammer=hammer).hammer == hammer
    both = with_overrides(base, rng_seed=9, hammer=hammer, label="both")
    assert both.hammer == dataclasses.replace(hammer, rng_seed=9)
    assert both.label == "both" and base.hammer == reduced_hammer()
    assert with_overrides(base).hash() == base.hash()


def test_with_overrides_refuses_names_that_are_no_field(presets):
    with pytest.raises(ScenarioError, match=r"^overrides has unknown fields: bogus, seed$"):
        with_overrides(make_scenario(presets), seed=1, hc_first=100, bogus=1)


def test_effective_hammer_count(presets):
    # default lands strictly past the threshold so flips are reachable
    sc = make_scenario(presets)
    assert sc.effective_hammer_count == 64 + 1000
    assert make_scenario(presets, hammer_count=777).effective_hammer_count == 777


def test_scenario_hash_is_stable_and_sensitive(presets):
    a = make_scenario(presets)
    b = make_scenario(presets)
    assert a.hash() == b.hash()
    assert len(a.hash()) == 64 and set(a.hash()) <= set("0123456789abcdef")
    assert a.hash() != make_scenario(presets, vm_sizes=(16 * MIB, 16 * MIB)).hash()
    assert a.hash() != make_scenario(presets, label="other").hash()
    assert a.hash() != make_scenario(presets, hammer=reduced_hammer(rng_seed=1)).hash()
    # explicit count equal to the default resolves to the same canonical form
    assert a.hash() == make_scenario(presets, hammer_count=1064).hash()


# -- scenario_from_dict -----------------------------------------------------------


def scenario_data(**overrides) -> dict:
    data = {
        "mapping": "simple",
        "vm_sizes": ["8MiB", "8MiB"],
        "hammer": {"hc_first": 64, "deterministic_mode": True},
    }
    data.update(overrides)
    return data


def test_scenario_from_dict_preset(presets):
    sc = scenario_from_dict(scenario_data())
    assert sc.mapping.to_dict() == presets["simple"].to_dict()
    assert sc.label == "simple"
    assert sc.vm_sizes == (8 * MIB, 8 * MIB)
    assert sc.hammer.hc_first == 64 and sc.hammer.deterministic_mode
    # untouched knobs keep their defaults
    assert sc.mitigation == "none"
    assert sc.aggressor_selection == "all"
    assert sc.hammer.flip_probability == 1e-4


def test_scenario_from_dict_inline_mapping():
    tiny = tiny_noncontig()
    data = scenario_data(
        mapping={"geometry": tiny.geometry.to_dict(), "functions": tiny.to_dict()["functions"]},
        vm_sizes=[256, 256],
    )
    sc = scenario_from_dict(data)
    assert sc.mapping.to_dict() == tiny.to_dict()
    assert sc.label == "inline"
    assert scenario_from_dict(dict(data, label="mine")).label == "mine"


def test_scenario_from_dict_mapping_file(tmp_path, presets):
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(presets["bank-xor"].to_dict()))
    sc = scenario_from_dict(scenario_data(mapping="twisted.json"), base_dir=str(tmp_path))
    assert sc.mapping.to_dict() == presets["bank-xor"].to_dict()
    assert sc.label == "twisted"  # file stem unless the scenario names one


def test_scenario_from_dict_selection_list():
    sc = scenario_from_dict(scenario_data(aggressor_selection=[256, 300]))
    assert sc.aggressor_selection == (256, 300)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vm_sizes": [4096]}, "missing the mapping"),
        ({"mapping": "simple"}, "missing vm_sizes"),
        ({"mapping": 42, "vm_sizes": [4096]}, "name, path, or object"),
        ({"mapping": {"functions": {}}, "vm_sizes": [4096]}, "geometry and functions"),
        (scenario_data(hammer=[1, 2]), "hammer must be an object"),
        (scenario_data(hammer={"hc_first": 0}), "hc_first"),
        ([], "must be an object"),
        (scenario_data(hammer_count="51000"), "hammer_count must be an integer"),
        (scenario_data(hammer_count=True), "hammer_count must be an integer"),
        (scenario_data(hammer={"hc_first": "100"}), "hc_first must be an integer"),
        (scenario_data(hammer={"deterministic_mode": "no"}), "deterministic_mode"),
        (scenario_data(hammer={"hc_frist": 5}), "hammer has unknown fields: hc_frist"),
        (scenario_data(hamer_count=5), "scenario has unknown fields: hamer_count"),
        (scenario_data(vm_sizes=5), "vm_sizes must be a list"),
        (scenario_data(aggressor_selection=5), "aggressor_selection"),
        (scenario_data(aggressor_selection=[1.5]), "aggressor_selection"),
        (scenario_data(guard_global_rows="x"), "guard_global_rows must be an integer"),
        (scenario_data(label=5), "label must be a string"),
        (
            scenario_data(mapping="twisted.json", geometry=default_geometry().to_dict()),
            "preset names only",
        ),
        (scenario_data(check_pattern=256), r"^check_pattern 256 outside \[0, 256\)$"),
    ],
)
def test_scenario_from_dict_rejects(data, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_scenario_from_dict_geometry_errors():
    tiny = tiny_noncontig().to_dict()
    with pytest.raises(MappingError, match="geometry must be an object"):
        scenario_from_dict(scenario_data(mapping={"geometry": 5, "functions": {}}))
    with pytest.raises(MappingError, match="presets require"):
        scenario_from_dict(scenario_data(geometry=tiny["geometry"]))
    with pytest.raises(ScenarioError, match="preset names only"):
        scenario_from_dict(scenario_data(mapping=tiny, geometry=tiny["geometry"]))


def test_load_scenario_roundtrip(tmp_path, presets):
    path = tmp_path / "attack.json"
    path.write_text(json.dumps(scenario_data(mitigation="siloz", vm_sizes=["16MiB", "16MiB"])))
    sc = load_scenario(str(path))
    assert sc.mitigation == "siloz"
    assert sc.vm_sizes == (16 * MIB, 16 * MIB)

    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(str(bad))


# -- layouts and attacks -----------------------------------------------------------


def test_pack_layout_back_to_back(presets):
    layout = pack_layout(presets["simple"], (8192, 16384))
    assert [(r.owner, r.start_pa, r.size) for r in layout.regions] == [
        ("vm0", 0, 8192),
        ("vm1", 8192, 16384),
    ]
    # sizes are whole rows (multiples of columns), as for the planners
    with pytest.raises(PlanError, match="multiple of 0x2000"):
        pack_layout(presets["simple"], (4096, 8192))


def test_attack_none_flips_the_victim(presets, geometry):
    """Adjacent VMs without mitigation: the boundary victim row flips."""
    report = run_attack(make_scenario(presets))
    assert report.verdict == "NOT_MITIGATED"
    assert not report.boundary_fallback
    site = report.aggressors[0]
    assert len(report.aggressors) == 1
    assert site.coord.row == 256  # first attacker row past the 8 MiB boundary
    assert site.victim_rows == (255,)
    bt = site.coord.bank_tuple
    assert report.seeded_rows == (bt + (255,), bt + (257,))
    flipped = {(f.coord.bank_tuple + (f.coord.row,), owner)
               for f, owner in zip(report.flips, report.flip_owners)}
    assert flipped == {(bt + (255,), "vm0"), (bt + (257,), "vm1")}
    assert report.ownership_histogram == {"vm0": 1, "vm1": 1}
    for f in report.flips:
        assert f.aggressor_row == 256
        assert f.bit_index == 0 and f.old_value == 0xAA and f.new_value == 0xAB
    assert report.stats.accesses == report.stats.row_buffer_hits + report.stats.activations


def test_attack_siloz_confines_flips(presets):
    """Subarray-group isolation: the fallback aggressor only reaches its own VM."""
    report = run_attack(
        make_scenario(presets, mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB))
    )
    assert report.verdict == "MITIGATED"
    assert report.boundary_fallback
    site = report.aggressors[0]
    assert site.coord.row == 512  # nearest attacker row across the subarray seam
    bt = site.coord.bank_tuple
    # row 511 sits in the victim subarray, out of blast reach by construction
    assert report.seeded_rows == (bt + (513,),)
    assert report.ownership_histogram == {"vm1": 1}
    assert report.siloz is not None
    assert report.siloz.contained == {"vm0": True, "vm1": True}


def test_attack_citadel_flips_land_in_guard(presets):
    report = run_attack(
        make_scenario(
            presets,
            mitigation="citadel",
            vm_sizes=(32 * MIB, 32 * MIB),
        )
    )
    assert report.verdict == "MITIGATED"
    assert report.boundary_fallback
    regions = [(r.owner, r.start_pa, r.size) for r in report.layout.regions]
    assert regions == [
        ("vm0", 0, 32 * MIB),
        (UNUSED, 0x02000000, 0x8000),
        ("vm1", 0x02008000, 32 * MIB),
    ]
    site = report.aggressors[0]
    assert site.coord.row == 1025
    # one flip spills into the guard row, the other stays in the attacker
    assert report.ownership_histogram == {UNUSED: 1, "vm1": 1}
    assert report.siloz is None


def test_attack_verdict_matches_classification(presets):
    """The verdict must be recomputable from the flip records and the layout."""
    for mitigation, sizes in (
        ("none", (8 * MIB, 8 * MIB)),
        ("siloz", (16 * MIB, 16 * MIB)),
        ("citadel", (32 * MIB, 32 * MIB)),
    ):
        sc = make_scenario(presets, mitigation=mitigation, vm_sizes=sizes)
        report = run_attack(sc)
        owners = [classify_pa(report.layout, f.pa) for f in report.flips]
        assert list(report.flip_owners) == owners
        histogram = {}
        for owner in owners:
            histogram[owner] = histogram.get(owner, 0) + 1
        assert report.ownership_histogram == histogram
        expected = "MITIGATED" if histogram.get(sc.victim_vm, 0) == 0 else "NOT_MITIGATED"
        assert report.verdict == expected


def test_attack_explicit_row_selection(presets):
    report = run_attack(make_scenario(presets, aggressor_selection=(256,)))
    assert len(report.aggressors) == 4  # row 256 exists once per bankgroup
    assert all(site.coord.row == 256 for site in report.aggressors)
    with pytest.raises(ScenarioError, match="not candidate aggressors"):
        run_attack(make_scenario(presets, aggressor_selection=(999,)))


def test_attack_rejects_unknown_vm(presets):
    with pytest.raises(ScenarioError, match="planned VMs"):
        run_attack(make_scenario(presets, attacker_vm="vm7"))


def test_attack_none_requires_adjacency(presets):
    # vm2 sits two VMs away from vm0; without a mitigation there is no fallback
    sc = make_scenario(presets, vm_sizes=(8 * MIB, 8 * MIB, 8 * MIB), attacker_vm="vm2")
    with pytest.raises(ScenarioError, match="nothing to hammer"):
        run_attack(sc)


def test_attack_infeasible_plan_raises(presets):
    sc = make_scenario(presets, mitigation="citadel", vm_sizes=(2 << 30, 2 << 30))
    with pytest.raises(PlanError):
        run_attack(sc)


def test_blast_radius_past_the_subarray_costs_nothing(tmp_path, vmhammer_under_1gib):
    """A hammered row's reach ends at its subarray (512 rows), so radius 511
    already reaches every row a larger one could; only the scenario differs."""
    reports = {}
    for radius in (511, 10**6, 2**70):
        path = tmp_path / f"radius-{radius}.json"
        path.write_text(json.dumps(scenario_data(
            hammer={"hc_first": 200, "deterministic_mode": True, "blast_radius": radius},
            aggressor_selection="first",
        )))
        proc, _ = vmhammer_under_1gib(["attack", str(path)])
        assert (proc.returncode, proc.stderr) == (0, ""), radius
        data = json.loads(proc.stdout)
        assert data["scenario"]["hammer"]["blast_radius"] == radius
        reports[radius] = {k: v for k, v in data.items() if k not in ("scenario", "scenario_hash")}
    assert reports[511]["flips"]
    assert reports[10**6] == reports[511]
    assert reports[2**70] == reports[511]


def test_windows_that_cannot_flip_close_in_one_step(tmp_path, vmhammer_under_1gib):
    """At the default refresh period (100,000) a row's window count never
    passes hc_first 200,000, so a run closes its whole windows in one step:
    10^15 activations in 10^10 windows take about as long as one."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(scenario_data(
        hammer={"hc_first": 200_000}, hammer_count=10**15, aggressor_selection="first"
    )))
    proc, _ = vmhammer_under_1gib(["attack", str(path)], timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    stats = json.loads(proc.stdout)["stats"]
    assert (stats["refresh_windows"], stats["activations"]) == (10**10, 10**15)


# the vm0 flips of each citadel 8+8 MiB cell where guard < blast radius, by
# (guard rows, blast radius); every other cell falls back and holds
CITADEL_FRONTIER = {
    "simple": {(1, 2): 4, (1, 3): 8, (2, 3): 4},
    "bank-xor": {(1, 2): 4, (1, 3): 8, (2, 3): 4},
    "bank-xor-noncontig-row": {(1, 2): 8, (1, 3): 16, (2, 3): 8},
}


@pytest.mark.parametrize("name", sorted(CITADEL_FRONTIER))
def test_citadel_holds_exactly_when_guard_rows_cover_the_blast_radius(presets, name):
    for guard in (1, 2, 3):
        for radius in (1, 2, 3):
            report = run_attack(make_scenario(
                presets,
                mapping=presets[name],
                mitigation="citadel",
                guard_global_rows=guard,
                aggressor_selection="all",
                hammer=HammerParams(hc_first=1000, deterministic_mode=True, blast_radius=radius),
            ))
            cell = (guard, radius)
            assert report.verdict == ("NOT_MITIGATED" if guard < radius else "MITIGATED"), cell
            assert report.ownership_histogram["vm0"] == CITADEL_FRONTIER[name].get(cell, 0), cell
            assert report.boundary_fallback == (guard >= radius), cell


def test_report_dict_shape(presets):
    sc = make_scenario(presets, mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB))
    report = run_attack(sc)
    data = report.to_dict()
    assert data["tool"] == {"name": "vmhammer", "version": vmhammer.__version__}
    assert data["scenario"] == sc.canonical_dict()
    assert data["scenario_hash"] == sc.hash()
    assert data["verdict"] == "MITIGATED"
    assert data["boundary_fallback"] is True
    assert data["seeded_rows"] == [list(rt) for rt in report.seeded_rows]
    assert [f["owner"] for f in data["flips"]] == list(report.flip_owners)
    assert "siloz" in data
    text = render_json(report.to_dict())
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(data))


def test_siloz_report_prints_its_layout_at_the_geometry_width():
    geometry = Geometry(1, 1, 2, 2, 64, 16, 8)  # 4 KiB: 3 hex digits
    mapping = AddressMapping.build(geometry, {
        "channel": [], "rank": [], "bankgroup": [[5]], "bank": [[4]],
        "row": [[6], [7], [8], [9], [10], [11]], "column": [[0], [1], [2], [3]],
    })
    sc = Scenario(mapping=mapping, hammer=reduced_hammer(), mitigation="siloz",
                  vm_sizes=(256, 256))
    data = run_attack(sc).to_dict()
    assert data["layout"]["regions"][1]["start_pa"] == "0x200"
    assert data["siloz"]["layout"] == data["layout"]


# the report keys perfbench digests, so a key added later moves no pin
REPORT_KEYS = (
    "scenario_hash", "verdict", "layout", "aggressors", "boundary_fallback",
    "seeded_rows", "flips", "ownership_histogram", "stats", "siloz",
)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def dense_reports():
    """The report dicts of the six mitigated built-in cells hammered for three
    refresh windows per site, each activation past hc_first drawing: 3,655 flips."""
    cells = (sc for sc in builtin_matrix() if sc.mitigation != "none")
    return [
        run_attack(with_overrides(sc, deterministic_mode=False, hc_first=1000,
                                  flip_probability=1e-3, blast_radius=2,
                                  hammer_count=250_000, rng_seed=i)).to_dict()
        for i, sc in enumerate(cells)
    ]


def test_reports_are_pinned(presets, dense_reports):
    """Seeded results, deterministic and probabilistic, bit for bit."""

    def pinned_keys(data):
        return {k: data[k] for k in REPORT_KEYS if k in data}

    matrix = builtin_matrix()
    swept = [
        with_overrides(sc, deterministic_mode=False, hc_first=1000,
                       flip_probability=1e-2, rng_seed=seed)
        for sc in matrix
        for seed in range(3)
    ]
    dense_keys = [pinned_keys(data) for data in dense_reports]
    assert sum(len(keys["flips"]) for keys in dense_keys) == 3655
    params = HammerParams(hc_first=40, flip_probability=0.5, rng_seed=3)
    replays = []
    for mapping in presets.values():
        geo = mapping.geometry
        for trace in (matvec_trace(64, 64, 0), toggle_trace(0x80000000, 0x8040, 4096)):
            stats, flips = replay_trace(trace, mapping, params, refresh_every=5000)
            replays.append({
                "stats": stats.to_dict(),
                "flips": [f.to_dict(geo, geo.pa_digits) for f in flips],
            })
    assert sum(len(r["flips"]) for r in replays) == 7575
    assert [_digest([pinned_keys(run_attack(sc).to_dict()) for sc in matrix]),
            _digest([pinned_keys(run_attack(sc).to_dict()) for sc in swept]),
            _digest(replays),
            _digest(dense_keys)] == [
        "c6eaa04762a9b6313d851dd06dc0c6098f3f2f8b2e9bc661f1e5e0d3f84fdc67",
        "d009ae30d28702bb73d7ba62554c072db91622f5c060598e8f0cb48511a5beba",
        "97a3f000fecbcea864ca226e6854cbb66396a04d32f58865fa91fe90e45a2ae6",
        "75170bfc0f7db2b5e5a1fd0d34eb49e3093914ba350aa67ed8c4331bc2638c93",
    ]


def test_dense_reports_render_as_json_dumps_does(dense_reports):
    text = render_json(dense_reports)
    assert text == json.dumps(dense_reports, indent=2, sort_keys=True) + "\n"
    assert text.count('"bit_index"') == 3655


@pytest.mark.parametrize("overrides", [
    dict(hammer=reduced_hammer(deterministic_mode=False, flip_probability=0.5, rng_seed=9)),
    dict(mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB)),
], ids=["probabilistic", "siloz"])
def test_report_hash_is_the_scenario_hash(presets, overrides):
    sc = make_scenario(presets, **overrides)
    data = run_attack(sc).to_dict()
    assert data["scenario"] == sc.canonical_dict()
    assert data["scenario"]["hammer"] == dataclasses.asdict(sc.hammer)
    assert data["scenario_hash"] == sc.hash()


def test_report_is_deterministic(presets):
    sc = make_scenario(presets, mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB))
    assert render_json(run_attack(sc).to_dict()) == render_json(run_attack(sc).to_dict())


def test_probabilistic_attack_is_seed_deterministic(presets):
    hammer = reduced_hammer(deterministic_mode=False, flip_probability=1.0, rng_seed=7)
    sc = make_scenario(presets, hammer=hammer)
    first = run_attack(sc)
    assert first.flips  # p=1.0 past the threshold must flip
    assert render_json(first.to_dict()) == render_json(run_attack(sc).to_dict())
    other = dataclasses.replace(sc, hammer=reduced_hammer(
        deterministic_mode=False, flip_probability=1.0, rng_seed=8))
    assert render_json(run_attack(other).to_dict()) != render_json(first.to_dict())


def test_sweep_observes_exactly_the_recorded_flips():
    """Reading back the filled rows must agree with the flip log, toggles included."""
    mapping = tiny_noncontig()
    params = HammerParams(
        hc_first=3, flip_probability=1.0, deterministic_mode=False, rng_seed=5
    )
    state = SimState(mapping, params, fill=0xAA)
    aggressor = mapping.pa_to_coord(0)
    bt = aggressor.bank_tuple
    rows = [bt + (aggressor.row + 1,)]  # row 0 has a single in-subarray neighbor
    for _ in range(12):
        state.activate_row(aggressor)
    observed = {pa: state.read_byte(pa) for rt in rows for pa in brute_row_pas(mapping, rt)}
    expected = {pa: 0xAA for rt in rows for pa in brute_row_pas(mapping, rt)}
    for flip in state.collect_flips():
        expected[flip.pa] ^= 1 << flip.bit_index
    assert observed == expected
    assert any(byte != 0xAA for byte in observed.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_attack_matches_seeded_oracle(data):
    """Hammering a state whose unwritten bytes read the check pattern gives
    the same flips and stats as writing the pattern into every reachable
    row of a zero-filled state first."""
    rng = random.Random(data.draw(st.integers(0, 1 << 16), label="mapping seed"))
    mitigation = data.draw(st.sampled_from(["none", "siloz", "citadel"]), label="mitigation")
    # citadel needs a row chunk at least a row wide, which split mappings keep
    split = mitigation == "citadel" or data.draw(st.booleans(), label="split")
    make = random_split_mapping if split else random_invertible_mapping
    mapping = make(rng, random_geometry(rng, max_total=1 << 12))
    unit = mapping.geometry.columns
    if mitigation == "citadel":
        unit = row_chunk_stride(mapping)
    scenario = Scenario(
        mapping=mapping,
        hammer=HammerParams(
            hc_first=data.draw(st.integers(1, 64), label="hc_first"),
            flip_probability=data.draw(st.sampled_from([1.0, 0.5, 0.05]), label="p"),
            blast_radius=data.draw(st.integers(1, 3), label="blast"),
            deterministic_mode=data.draw(st.booleans(), label="deterministic"),
            rng_seed=data.draw(st.integers(0, 1 << 16), label="rng seed"),
        ),
        vm_sizes=tuple(
            data.draw(st.integers(1, mapping.geometry.total_bytes // (2 * unit))) * unit
            for _ in range(2)
        ),
        mitigation=mitigation,
        hammer_count=data.draw(st.integers(1, 200), label="hammer_count"),
        refresh_every=data.draw(st.integers(1, 200), label="refresh_every"),
        aggressor_selection=data.draw(st.sampled_from(["all", "first"]), label="selection"),
        check_pattern=data.draw(st.integers(0, 0xFF), label="check_pattern"),
    )
    try:
        report = run_attack(scenario)
    except (ScenarioError, PlanError):
        return  # nothing planned, or nothing to hammer
    expected = brute_seeded_attack(scenario)
    assert list(report.flips) == expected.collect_flips()
    assert report.stats.to_dict() == expected.stats.to_dict()


# -- rendering --------------------------------------------------------------------

JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028é€😀') | st.characters(), max_size=8)
JSON_LEAVES = (
    JSON_TEXT
    | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf")])
    | st.booleans()
    | st.none()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


def json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_render_json_matches_json_dumps(value):
    assert render_json(value) == json_text(value)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    QUOTED = 'a "b"\n'


def test_render_json_renders_subclasses_as_json_does():
    value = {
        "counter": Counter("abracadabra"),
        "level": Level.HIGH,
        "levels": {Level.LOW: [Level.HIGH], 0: (Level.LOW,)},
        "tag": Tag.QUOTED,
        "numpy float": np.float64(0.1),
        "float keys": {2.5: 1, -0.0: 2, float("inf"): 3},
        "bool keys": {True: 1, False: 0},
        "none key": {None: []},
        "named tuple": namedtuple("Point", "x y")(1, [Level.LOW, "é"]),
    }
    assert render_json(value) == json_text(value)
    assert render_json(Tag.QUOTED) == json_text(Tag.QUOTED)


@pytest.mark.parametrize("refused", [
    {1, 2}, frozenset(), b"ab", np.int64(1), np.bool_(True), np.array([1]), object(),
    {(1, 2): "a tuple key"},
], ids=lambda value: "object()" if type(value) is object else repr(value))
def test_render_json_refuses_what_json_refuses(refused):
    for value in (refused, [refused], {"k": refused}):
        with pytest.raises(TypeError):
            json_text(value)
        with pytest.raises(TypeError):
            render_json(value)


# -- matrix runs ------------------------------------------------------------------


def test_run_matrix_grid_and_errors(presets):
    scenarios = [
        make_scenario(presets),
        make_scenario(presets, mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB)),
        make_scenario(presets, mitigation="citadel", vm_sizes=(32 * MIB, 32 * MIB)),
        make_scenario(
            presets, mitigation="citadel", vm_sizes=(2 << 30, 2 << 30), label="oversize"
        ),
    ]
    reports = run_matrix(scenarios)
    assert [type(r).__name__ for r in reports] == [
        "AttackReport", "AttackReport", "AttackReport", "dict",
    ]
    slot = reports[3]
    assert slot["index"] == 3
    assert slot["label"] == "oversize" and slot["mitigation"] == "citadel"
    assert slot["error"]["type"] == "PlanError"
    grid = matrix_summary(reports)
    assert grid == {
        "none": {"inline": "NOT_MITIGATED"},
        "siloz": {"inline": "MITIGATED"},
        "citadel": {"inline": "MITIGATED", "oversize": "ERROR"},
    }


def test_run_matrix_lets_internal_errors_through(presets, monkeypatch):
    # only domain errors become error slots; a bug must not look like one
    def broken(scenario):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(vmhammer.harness, "run_attack", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        run_matrix([make_scenario(presets)])


def test_run_matrix_refuses_two_scenarios_in_one_cell(monkeypatch):
    # one flips and one holds; a shared cell would show only the second verdict
    base = builtin_matrix()[0]
    flips = with_overrides(base, hc_first=1000)
    holds = with_overrides(base, hc_first=100_000, hammer_count=10)
    assert [r.verdict for r in run_matrix([flips])] == ["NOT_MITIGATED"]
    assert [r.verdict for r in run_matrix([holds])] == ["MITIGATED"]

    def unreachable(scenario):
        raise AssertionError("a scenario ran before the cells were checked")

    monkeypatch.setattr(vmhammer.harness, "run_attack", unreachable)
    with pytest.raises(ScenarioError) as excinfo:
        run_matrix([flips, holds])
    assert str(excinfo.value) == (
        "scenarios[0] and scenarios[1] share mitigation 'none' and label 'simple'"
    )


def test_builtin_matrix_shape(presets):
    scenarios = [with_overrides(sc, hc_first=64, hammer_count=100) for sc in builtin_matrix()]
    assert len(scenarios) == 9
    assert [sc.mitigation for sc in scenarios] == ["none"] * 3 + ["siloz"] * 3 + ["citadel"] * 3
    assert [sc.label for sc in scenarios[:3]] == [
        "simple", "bank-xor", "bank-xor-noncontig-row",
    ]
    by_mitigation = {sc.mitigation: sc.vm_sizes for sc in scenarios}
    assert by_mitigation == {
        "none": (8 * MIB, 8 * MIB),
        "siloz": (16 * MIB, 16 * MIB),
        "citadel": (256 * MIB, 256 * MIB),
    }
    for sc in scenarios:
        assert sc.hammer.hc_first == 64
        assert sc.hammer.deterministic_mode
        assert sc.hammer_count == 100
        assert sc.aggressor_selection == "first"
        assert sc.mapping.to_dict() == presets[sc.label].to_dict()


def test_load_matrix_scenarios(tmp_path):
    (tmp_path / "b.json").write_text(json.dumps(scenario_data(label="second")))
    (tmp_path / "a.json").write_text(json.dumps(scenario_data(label="first")))
    (tmp_path / "notes.txt").write_text("ignored")
    assert [sc.label for sc in load_matrix_scenarios(str(tmp_path))] == ["first", "second"]

    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"scenarios": [scenario_data(), scenario_data(label="x")]}))
    assert [sc.label for sc in load_matrix_scenarios(str(bundle))] == ["simple", "x"]

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ScenarioError, match="no .*json"):
        load_matrix_scenarios(str(empty))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ScenarioError, match="scenarios array"):
        load_matrix_scenarios(str(bad))
    bad.write_text(json.dumps({"scenarios": 5}))
    with pytest.raises(ScenarioError, match="scenarios array"):
        load_matrix_scenarios(str(bad))


# -- traces -----------------------------------------------------------------------


def test_parse_trace_forms():
    text = "# preamble\nR 0x100\nW 0x200 0xff\n\n r 0x8  # inline note\nw 0x0 0x05\n"
    trace = parse_trace(text)
    assert trace.pas.tolist() == [0x100, 0x200, 0x8, 0x0]
    assert trace.data.tolist() == [-1, 0xFF, -1, 0x05]  # -1 marks a read
    assert trace == AccessTrace(
        (("read", 0x100, None), ("write", 0x200, 0xFF), ("read", 0x8, None), ("write", 0x0, 0x05))
    )
    assert len(trace) == 4


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("R", 1),
        ("# ok\nR 0x1\nX 0x2", 3),
        ("W 0x10", 1),
        ("W 0x10 0x100", 1),
        ("R zz", 1),
        ("R 0x1 0x2", 1),
        ("R -0x10", 1),
        ("# x\nW -0x4 0x01", 2),
        ("R 0x10\nR 0x100000000", 2),  # at the limit
    ],
)
def test_parse_trace_rejects_with_line_number(text, lineno):
    with pytest.raises(TraceError, match=f"line {lineno}"):
        parse_trace(text, limit=1 << 32)


def test_format_trace_roundtrip():
    trace = AccessTrace((("read", 0x80000000, None), ("write", 0x40, 0x5)))
    text = format_trace(trace)
    assert text == "R 0x80000000\nW 0x40 0x05\n"
    assert parse_trace(text) == trace
    rng = random.Random(29)
    for _ in range(50):
        trace = AccessTrace([
            ("read", pa, None) if rng.random() < 0.5 else ("write", pa, rng.randrange(256))
            for pa in (rng.randrange(1 << rng.randint(1, 63)) for _ in range(rng.randint(1, 40)))
        ])
        assert parse_trace(format_trace(trace)) == trace


def test_format_trace_refuses_what_parse_trace_rejects():
    """A trace may hold a negative PA, which replay refuses as access does,
    but no trace file does: format_trace names the first such entry."""
    with pytest.raises(ValueError, match=r"^entry 0: pa -0x5 is negative"):
        format_trace(AccessTrace([("read", -5, None)]))
    trace = AccessTrace([("write", 0x40, 1), ("read", -(1 << 63), None), ("read", -1, None)])
    with pytest.raises(ValueError, match=r"^entry 1: pa -0x8000000000000000 is negative"):
        format_trace(trace)


def test_trace_synthesizer_shapes():
    assert sequential_trace(0x40, 4).pas.tolist() == [0x40, 0x41, 0x42, 0x43]
    assert strided_trace(0, 0x8000, 3).pas.tolist() == [0, 0x8000, 0x10000]
    assert strided_trace(0x30, -0x10, 4).pas.tolist() == [0x30, 0x20, 0x10, 0x0]
    assert strided_trace(0x30, 1 << 70, 1).pas.tolist() == [0x30]
    assert toggle_trace(0x100, 0x8040, 4).pas.tolist() == [0x100, 0x8140, 0x100, 0x8140]
    assert toggle_trace(0x100, 0x8040, 3).pas.tolist() == [0x100, 0x8140, 0x100]
    assert toggle_trace(0x100, 1 << 70, 1).pas.tolist() == [0x100]
    assert (sequential_trace(0, 8).data == -1).all()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: sequential_trace(0, True), "count"),
        (lambda: sequential_trace(0.5, 4), "base_pa"),
        (lambda: strided_trace(0, 1.5, 3), "stride"),
        (lambda: strided_trace(0.5, 8, 3), "base_pa"),
        (lambda: matvec_trace(2.0, 2, 0), "rows"),
        (lambda: matvec_trace(2, True, 0), "cols"),
        (lambda: toggle_trace(0, 1.5, 2), "mask"),
        (lambda: toggle_trace(0, 8, 2.0), "count"),
    ],
)
def test_trace_synthesizers_reject_non_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("count", [(1 << 63) - 512, (1 << 63) - 1, 1 << 63, 10**20])
@pytest.mark.parametrize(
    "synth",
    [
        lambda n: sequential_trace(0, n),
        lambda n: strided_trace(0, 0, n),
        lambda n: toggle_trace(0, 0x40, n),
    ],
    ids=["sequential", "strided", "toggle"],
)
def test_synthesizers_give_count_reads_or_raise(synth, count):
    # numpy refuses each of these lengths before it allocates anything
    with pytest.raises((ValueError, MemoryError)):
        synth(count)


def test_matvec_trace_frozen_order():
    # 2x2 matrix at 0x0, 8-byte elements, vector at 0x20: matrix/vector interleave
    pas = matvec_trace(2, 2, 0x0).pas.tolist()
    assert pas == [0x00, 0x20, 0x08, 0x28, 0x10, 0x20, 0x18, 0x28]
    rows, cols, base = 3, 5, 0x100
    vector = base + rows * cols * 8
    expected = []
    for i in range(rows):
        for j in range(cols):
            expected += [base + (i * cols + j) * 8, vector + j * 8]
    assert matvec_trace(rows, cols, base).pas.tolist() == expected


def test_trace_limit_enforcement():
    assert len(sequential_trace(0, 4, limit=4)) == 4
    with pytest.raises(ValueError, match="overflows"):
        sequential_trace(0, 4, limit=3)
    with pytest.raises(ValueError, match="overflows"):
        strided_trace(-8, 8, 2, limit=100)
    with pytest.raises(ValueError, match="overflows"):
        matvec_trace(2, 2, 0, limit=0x28)


def test_replay_same_row_hits(presets):
    stats, flips = replay_trace(
        sequential_trace(0, 64), presets["simple"], reduced_hammer()
    )
    assert (stats.accesses, stats.activations, stats.row_buffer_hits) == (64, 1, 63)
    assert flips == []


def test_replay_hit_rate_separates_mappings(presets):
    """Toggling a bank-xor input bit plus a row bit: one conflicting bank
    under the direct mapping, two quiet banks under the xor mapping."""
    trace = toggle_trace(0x80000000, 0x8040, 32)
    direct, _ = replay_trace(trace, presets["simple"], reduced_hammer())
    xor, _ = replay_trace(trace, presets["bank-xor"], reduced_hammer())
    assert (direct.activations, direct.row_buffer_hits) == (32, 0)
    assert (xor.activations, xor.row_buffer_hits) == (2, 30)


def test_replay_refresh_counts_activations_not_accesses(presets):
    stats, _ = replay_trace(
        sequential_trace(0, 10), presets["simple"], reduced_hammer(), refresh_every=1
    )
    # the lone activation triggers one refresh; refresh leaves the row open
    assert stats.refresh_windows == 1
    assert (stats.activations, stats.row_buffer_hits) == (1, 9)


def test_replay_refresh_clears_hammer_progress(presets):
    hammer = reduced_hammer(hc_first=4)
    trace = toggle_trace(0x80000000, 0x8000, 24)  # rows 0/1 of one bank, 12 each
    _, flips = replay_trace(trace, presets["simple"], hammer)
    assert flips  # 12 activations past hc_first=4 flip without refresh
    stats, flips = replay_trace(trace, presets["simple"], hammer, refresh_every=2)
    assert flips == []
    assert stats.refresh_windows == stats.activations // 2


def test_replay_rejects_bad_refresh(presets):
    with pytest.raises(ValueError, match="refresh_every"):
        replay_trace(sequential_trace(0, 2), presets["simple"], reduced_hammer(), 0)


def test_refresh_periods_past_int64_replay_as_single_accesses(presets):
    """A period past int64, like any past the trace, closes no window: replay
    equals one access per entry at each such period, and the periods agree."""
    trace = toggle_trace(0, 0x8000, 20_000)
    params = HammerParams(hc_first=10, flip_probability=0.5)
    results = []
    for every in (1 << 62, 1 << 64, 10**20):
        stats, flips = replay_trace(trace, presets["simple"], params, every)
        state = SimState(presets["simple"], params, every)
        for pa in trace.pas.tolist():
            state.access(pa)
        assert stats.to_dict() == state.stats.to_dict(), every
        assert flips == state.collect_flips(), every
        results.append((stats.to_dict(), flips))
    assert results[0] == results[1] == results[2]
    assert stats.refresh_windows == 0 and len(flips) > 10_000


def test_replay_is_deterministic(presets):
    trace = strided_trace(0, 0x8000, 200)
    runs = [
        replay_trace(trace, presets["bank-xor"], reduced_hammer(hc_first=8))
        for _ in range(2)
    ]
    assert runs[0][0].to_dict() == runs[1][0].to_dict()
    assert [f.pa for f in runs[0][1]] == [f.pa for f in runs[1][1]]


def test_replay_across_chunks_matches_oracle():
    """Past two chunks of REPLAY_CHUNK entries, with writes, flips in both
    modes and several refresh windows, replay equals the hand-stepped oracle."""
    mapping = tiny_noncontig()
    rng = random.Random(16)
    pool = rng.sample(range(mapping.geometry.total_bytes), 12)
    entries = [
        ("write", pa, rng.randrange(256)) if rng.random() < 0.25 else ("read", pa, None)
        for pa in (rng.choice(pool) for _ in range(2 * REPLAY_CHUNK + 1000))
    ]
    for deterministic in (True, False):
        params = HammerParams(
            hc_first=6, flip_probability=0.2, blast_radius=2,
            deterministic_mode=deterministic, rng_seed=5,
        )
        stats, flips = replay_trace(AccessTrace(tuple(entries)), mapping, params, 1500)
        expected = brute_replay(mapping, params, entries, 1500)
        assert stats.to_dict() == expected.stats.to_dict()
        assert flips == expected.collect_flips()
        assert stats.refresh_windows >= 3 and flips


@pytest.mark.parametrize("every", [1, 2, 7, 1500, 100_000])
@pytest.mark.parametrize("name", ["tiny", "bank-xor"])
def test_counted_chunks_match_oracle(presets, name, every):
    """Over three and a part chunks of reads and writes on several banks, with
    the previous address re-read half the time so rows stay open across chunk
    boundaries, replay equals the hand-stepped oracle for every refresh period:
    at an hc_first no row reaches, and at one every row passes, so hot runs
    with writes between them flip in every chunk, in both flip modes."""
    mapping = tiny_noncontig() if name == "tiny" else presets[name]
    rng = random.Random(every)
    pool = rng.sample(range(mapping.geometry.total_bytes), 24)
    pas = [rng.choice(pool)]
    while len(pas) < 3 * REPLAY_CHUNK + 300:
        pas.append(pas[-1] if rng.random() < 0.5 else rng.choice(pool))
    entries = [
        ("write", pa, rng.randrange(256)) if rng.random() < 0.25 else ("read", pa, None)
        for pa in pas
    ]
    for params in (
        HammerParams(hc_first=len(entries), deterministic_mode=True),
        HammerParams(hc_first=1, flip_probability=0.01, deterministic_mode=True),
        HammerParams(hc_first=1, flip_probability=0.01),
    ):
        stats, flips = replay_trace(AccessTrace(tuple(entries)), mapping, params, every)
        expected = brute_replay(mapping, params, entries, every)
        assert stats.to_dict() == expected.stats.to_dict()
        assert flips == expected.collect_flips()
        if params.hc_first == len(entries):
            assert flips == []
        assert stats.row_buffer_hits and len(stats.per_bank_activations) >= 4
        assert stats.refresh_windows == stats.activations // every


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "probabilistic"])
def test_flips_after_counted_chunks_read_their_writes(deterministic):
    """Three flip-free chunks write every byte of the rows next to
    rows 1 and 5 of one bank and end on row 1; a fourth chunk re-reads row 1,
    then toggles rows 1 and 5 past hc_first. Its flips read the earlier
    writes, its first access hits the row the third chunk left open, and
    replay equals the hand-stepped oracle."""
    mapping = tiny_noncontig()
    rng = random.Random(20)
    row_pas = {row: brute_row_pas(mapping, (0, 0, 1, 1, row)) for row in (0, 1, 2, 4, 5, 6)}
    written = {pa: 0x40 + i for i, pa in enumerate(row_pas[0] + row_pas[2] + row_pas[4] + row_pas[6])}
    others = rng.sample(range(mapping.geometry.total_bytes), 24)
    early = [("write", pa, byte) for pa, byte in written.items()]
    while len(early) < 3 * REPLAY_CHUNK - 1:
        early.append(("read", rng.choice(others), None))
    early.append(("read", row_pas[1][0], None))
    hammer = [("read", row_pas[1][3], None)] + [
        ("read", row_pas[1 if i % 2 else 5][i % 8], None) for i in range(REPLAY_CHUNK - 1)
    ]
    entries = early + hammer
    params = HammerParams(
        hc_first=2000, flip_probability=0.01, deterministic_mode=deterministic, rng_seed=3
    )
    stats, flips = replay_trace(AccessTrace(tuple(entries)), mapping, params)
    expected = brute_replay(mapping, params, entries, REFRESH_EVERY)
    assert stats.to_dict() == expected.stats.to_dict()
    assert flips == expected.collect_flips()
    first_read = {}
    for flip in flips:
        first_read.setdefault(flip.pa, flip.old_value)
    assert len(first_read) >= 4
    assert first_read == {pa: written[pa] for pa in first_read}


class _Address(int):
    """An int subclass, as a caller's own address or byte type may be."""


@pytest.mark.parametrize("at", [0, 2 * REPLAY_CHUNK + 7], ids=["first-chunk", "third-chunk"])
@pytest.mark.parametrize(
    "entry",
    [
        ("foo", 0x40, None),
        ("read", 1.5, None),
        ("read", True, None),
        ("read", np.int64(0), None),
        ("read", -1, None),
        ("read", 1 << 70, None),
        ("write", 0x40, None),
        ("write", 0x40, 256),
        ("write", 0x40, True),
    ],
    ids=["kind", "pa-float", "pa-bool", "pa-numpy", "pa-negative", "pa-huge",
         "data-none", "data-range", "data-bool"],
)
def test_replay_raises_what_access_raises(presets, entry, at):
    """A bad entry of a trace built without parse_trace raises the error
    SimState.access raises for it, wherever it lies: the AccessTrace
    constructor raises it, or, for a PA outside the space, replay_trace. A PA
    outside int64 is the constructor's own error."""
    mapping = presets["simple"]
    kind, pa, data = entry
    with pytest.raises(Exception) as expected:
        SimState(mapping, reduced_hammer()).access(pa, kind, data)
    if pa == 1 << 70:
        assert str(expected.value) == f"pa {hex(pa)} outside [0, 0x100000000)"
        message = f"pa {pa} outside [{-1 << 63}, {1 << 63})"
    else:
        message = str(expected.value)
    good = [("read", pa, None) for pa in range(at + 10)]
    with pytest.raises(type(expected.value)) as got:
        replay_trace(AccessTrace(good[:at] + [entry] + good[at:]), mapping, reduced_hammer())
    assert type(got.value) is type(expected.value)
    assert str(got.value) == message


def test_replay_raises_for_the_first_bad_entry(presets):
    with pytest.raises(ValueError) as info:
        trace = AccessTrace((("read", 0, None), ("foo", 0x40, None), ("read", -1, None)))
        replay_trace(trace, presets["simple"], reduced_hammer())
    assert str(info.value) == "kind must be 'read' or 'write', got 'foo'"
    with pytest.raises(ValueError) as info:  # both in the space's range check
        trace = AccessTrace((("read", 0, None), ("read", -1, None), ("read", 1 << 32, None)))
        replay_trace(trace, presets["simple"], reduced_hammer())
    assert str(info.value) == "pa -0x1 outside [0, 0x100000000)"


def test_trace_arrays_are_read_only():
    trace = AccessTrace((("read", 0x40, None), ("write", 0x80, 0x7)))
    for array in (trace.pas, trace.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert trace == parse_trace("R 0x40\nW 0x80 0x07\n")
    with pytest.raises(TypeError, match="unhashable"):
        hash(trace)
    assert (AccessTrace([]) == 5) is False  # a trace equals no other type
    assert (AccessTrace([]) != 5) is True


@pytest.mark.parametrize(
    "entries, message",
    [
        ([("read", 0, None), ("read", 0)], "not enough values to unpack"),
        ([("read", 0, None), ("read", 0, None, 4)], "too many values to unpack"),
        ([("read", 0, None), (["read"], 0, None)], "kind must be 'read' or 'write', got ['read']"),
        ([("read", 0, 1.5), ("write", 0, np.int64(3))], "data must be an integer, got "),
        ([("write", 0, 255), ("write", 0, -1)], "data -1 outside [0, 256)"),
        ([("read", -1 << 63, None), ("read", (-1 << 63) - 1, None)], "pa -9223372036854775809"),
    ],
)
def test_trace_constructor_refuses_the_first_bad_entry(entries, message):
    """The bulk tests find every bad entry, and the error names the first."""
    with pytest.raises(ValueError) as info:
        AccessTrace(entries)
    assert str(info.value).startswith(message)
    assert AccessTrace(entries[:1]).data.tolist() in ([-1], [255])


def test_trace_constructor_matches_oracle():
    """Seeded entry lists, valid and not, some passed as generators, give the
    same arrays or the same exception type and message from AccessTrace and
    the entry-by-entry reference."""
    rng = random.Random(27)
    pas = [0, 0x40, (1 << 63) - 1, -1 << 63, -1, _Address(0x80), 1.5, True, np.int64(0),
           1 << 63, (-1 << 63) - 1, 1 << 70, _Address(1 << 63), None, "0x40"]
    pa_weights = [30, 30, 3, 3, 3, 5] + [1] * 9
    written = [0, 0xA5, 255, _Address(7), None, 256, -1, True, 1.5, np.int64(3), _Address(256)]
    byte_weights = [20, 20, 5, 5] + [1] * 7
    odd = [("foo", 0x40, None), (["read"], 0, None), ("read", 0), ("read", 0, None, 4),
           ("write", 0x40), "abc", ["write", 0x40, 9], ("READ", 0, None)]

    def entry():
        roll = rng.random()
        if roll < 0.02:
            return rng.choice(odd)
        pa = rng.choices(pas, pa_weights)[0]
        if roll < 0.6:
            return ("read", pa, rng.choice([None, 3, 1.5]))
        return ("write", pa, rng.choices(written, byte_weights)[0])

    valid = 0
    for _ in range(2000):
        entries = [entry() for _ in range(rng.randint(0, 20))]
        source = (e for e in entries) if rng.random() < 0.3 else entries
        try:
            expected = brute_access_trace(entries)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                AccessTrace(source)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            continue
        got = AccessTrace(source)
        assert got.pas.dtype == got.data.dtype == np.int64
        assert got.pas.tolist() == expected[0].tolist()
        assert got.data.tolist() == expected[1].tolist()
        valid += 1
    assert 400 <= valid <= 1600


def test_traces_past_int64_are_refused():
    with pytest.raises(TraceError, match="^line 2: pa 0x8000000000000000 not below 0x8000000000000000$"):
        parse_trace("R 0x7fffffffffffffff\nR 0x8000000000000000\n")
    with pytest.raises(ValueError, match="^trace overflows the region: pa 0x8000000000000007 not"):
        sequential_trace((1 << 63) - 1, 9)
    assert strided_trace((1 << 63) - 1, -1, 2).pas.tolist() == [(1 << 63) - 1, (1 << 63) - 2]


def test_parse_trace_matches_oracle():
    """Seeded random texts, valid and not, give the same entries or the same
    TraceError message from parse_trace and the tuple-building reference
    parser, with and without a limit."""
    rng = random.Random(23)
    limits = [None, 1 << 32, 0x1000]

    def hexa(value):
        return rng.choice(["0x", "0X", ""]) + f"{value:x}" if value >= 0 else f"-0x{-value:x}"

    def line():
        pa = rng.choice([rng.randrange(0x1000), rng.randrange(1 << 33), 0x1000, 1 << 32])
        pa = -pa if rng.random() < 0.03 else pa
        byte = rng.randrange(300) if rng.random() < 0.1 else rng.randrange(256)
        forms = [
            f"{rng.choice('Rr')} {hexa(pa)}",
            f"{rng.choice('Ww')}  {hexa(pa)}\t{hexa(byte)}",
            f"  # note {pa}",
            "",
            f"X {hexa(pa)}",
            f"R {hexa(pa)} {hexa(byte)}",
            f"W {hexa(pa)}",
            f"R zz{pa}",
            f"R {hexa(pa)}  # inline",
        ]
        weights = [40, 30, 5, 5, 1, 1, 1, 1, 5]
        return rng.choices(forms, weights)[0]

    valid = 0
    for _ in range(1500):
        text = "\n".join(line() for _ in range(rng.randint(0, 12)))
        limit = rng.choice(limits)
        try:
            expected = brute_parse_trace(text, limit)
        except TraceError as exc:
            with pytest.raises(TraceError) as got:
                parse_trace(text, limit)
            assert str(got.value) == str(exc)
            continue
        got = parse_trace(text, limit)
        assert got == expected
        assert format_trace(got) == format_trace(expected)
        valid += 1
    assert 300 <= valid <= 1200


def test_replay_takes_int_subclasses_as_access_does(presets):
    """Int-subclass PAs and bytes, in one chunk of three, replay as the same
    entries through SimState.access one at a time."""
    mapping = presets["simple"]
    params = reduced_hammer(hc_first=8, deterministic_mode=False, flip_probability=0.5)
    rows = [0x80000000, 0x80008000, 0x80010000]
    entries = []
    for i in range(2 * REPLAY_CHUNK + 500):
        pa = rows[i % 3] + (i & 0x7FFF)
        if REPLAY_CHUNK <= i < REPLAY_CHUNK + 100:
            pa = _Address(pa)
        entries.append(("write", pa, _Address(i & 0xFF)) if i % 5 == 0 else ("read", pa, None))
    stats, flips = replay_trace(AccessTrace(tuple(entries)), mapping, params, 4000)
    state = SimState(mapping, params, 4000)
    for kind, pa, data in entries:
        state.access(pa, kind, data)
    assert stats.to_dict() == state.stats.to_dict()
    assert flips == state.collect_flips() and flips


def test_replay_of_an_empty_trace_is_zero(presets):
    stats, flips = replay_trace(AccessTrace(()), presets["simple"], reduced_hammer())
    assert stats.to_dict() == {
        "accesses": 0,
        "row_buffer_hits": 0,
        "activations": 0,
        "precharges": 0,
        "refresh_windows": 0,
        "per_bank_activations": {},
    }
    assert flips == []
