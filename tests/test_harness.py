"""Scenario plumbing, attack verdicts, matrix runs, and trace replay."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmhammer
from vmhammer.dram import HammerParams, SimState
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
    replay_trace,
    report_to_json,
    run_attack,
    run_matrix,
    scenario_from_dict,
    sequential_trace,
    strided_trace,
    synth_trace,
    toggle_trace,
)
from vmhammer.layout import UNUSED, PlanError, classify_pa, pack_layout, row_chunk_stride
from vmhammer.mapping import MappingError, default_geometry

from oracles import (
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
    assert report.siloz_groups is not None
    assert report.siloz_groups["contained"] == {"vm0": True, "vm1": True}


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
    assert report.siloz_groups is None


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
    text = report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(data))


def test_report_is_deterministic(presets):
    sc = make_scenario(presets, mitigation="siloz", vm_sizes=(16 * MIB, 16 * MIB))
    assert report_to_json(run_attack(sc)) == report_to_json(run_attack(sc))


def test_probabilistic_attack_is_seed_deterministic(presets):
    hammer = reduced_hammer(deterministic_mode=False, flip_probability=1.0, rng_seed=7)
    sc = make_scenario(presets, hammer=hammer)
    first = run_attack(sc)
    assert first.flips  # p=1.0 past the threshold must flip
    assert report_to_json(first) == report_to_json(run_attack(sc))
    other = dataclasses.replace(sc, hammer=reduced_hammer(
        deterministic_mode=False, flip_probability=1.0, rng_seed=8))
    assert report_to_json(run_attack(other)) != report_to_json(first)


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


def test_builtin_matrix_shape(presets):
    scenarios = builtin_matrix(hc_first=64, hammer_count=100)
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
    assert trace.entries == (
        ("read", 0x100, None),
        ("write", 0x200, 0xFF),
        ("read", 0x8, None),
        ("write", 0x0, 0x05),
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
    ],
)
def test_parse_trace_rejects_with_line_number(text, lineno):
    with pytest.raises(TraceError, match=f"line {lineno}"):
        parse_trace(text)


def test_format_trace_roundtrip():
    trace = AccessTrace((("read", 0x80000000, None), ("write", 0x40, 0x5)))
    text = format_trace(trace)
    assert text == "R 0x80000000\nW 0x40 0x05\n"
    assert parse_trace(text) == trace


def test_synth_trace_shapes():
    assert [pa for _, pa, _ in sequential_trace(0x40, 4).entries] == [0x40, 0x41, 0x42, 0x43]
    assert [pa for _, pa, _ in strided_trace(0, 0x8000, 3).entries] == [0, 0x8000, 0x10000]
    assert [pa for _, pa, _ in toggle_trace(0x100, 0x8040, 4).entries] == [
        0x100, 0x8140, 0x100, 0x8140,
    ]
    assert all(kind == "read" for kind, _, _ in sequential_trace(0, 8).entries)


def test_matvec_trace_frozen_order():
    # 2x2 matrix at 0x0, 8-byte elements, vector at 0x20: matrix/vector interleave
    pas = [pa for _, pa, _ in matvec_trace(2, 2, 0x0).entries]
    assert pas == [0x00, 0x20, 0x08, 0x28, 0x10, 0x20, 0x18, 0x28]


def test_trace_limit_enforcement():
    assert len(sequential_trace(0, 4, limit=4)) == 4
    with pytest.raises(ValueError, match="overflows"):
        sequential_trace(0, 4, limit=3)
    with pytest.raises(ValueError, match="overflows"):
        strided_trace(-8, 8, 2, limit=100)
    with pytest.raises(ValueError, match="overflows"):
        synth_trace("matvec", rows=2, cols=2, base_pa=0, limit=0x28)


def test_synth_trace_dispatch():
    assert synth_trace("matvec", rows=2, cols=2, base_pa=0) == matvec_trace(2, 2, 0)
    assert synth_trace("toggle", base_pa=0, mask=1, count=2) == toggle_trace(0, 1, 2)
    with pytest.raises(ValueError, match="unknown trace kind"):
        synth_trace("zigzag", base_pa=0)


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


def test_replay_is_deterministic(presets):
    trace = synth_trace("strided", base_pa=0, stride=0x8000, count=200)
    runs = [
        replay_trace(trace, presets["bank-xor"], reduced_hammer(hc_first=8))
        for _ in range(2)
    ]
    assert runs[0][0].to_dict() == runs[1][0].to_dict()
    assert [f.pa for f in runs[0][1]] == [f.pa for f in runs[1][1]]
