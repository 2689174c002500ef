"""Open-page policy, threshold exactness, and flip confinement."""

import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmhammer import (
    AddressMapping,
    DramCoordinate,
    Geometry,
    HammerParams,
    SimState,
    builtin_mappings,
)
from vmhammer.dram import InvariantError
from vmhammer.harness import AccessTrace, replay_trace

from oracles import (
    brute_hammer,
    brute_replay,
    random_geometry,
    random_invertible_mapping,
    tiny_noncontig,
)


def tiny_simple() -> AddressMapping:
    """Width-8 direct mapping: col bits 0..2, row 3..6, bank 7, 4 rows/subarray."""
    geometry = Geometry(
        channels=1,
        ranks=1,
        bankgroups=1,
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
            "bankgroup": [],
            "bank": [[7]],
            "row": [[3], [4], [5], [6]],
            "column": [[0], [1], [2]],
        },
    )


def det_params(hc_first=8, **kwargs) -> HammerParams:
    return HammerParams(hc_first=hc_first, deterministic_mode=True, **kwargs)


def hammer(state: SimState, row: int, count: int, bank=0) -> None:
    state.activate_row(DramCoordinate(0, 0, 0, bank, row, 0), count)


# -- open-page accounting ---------------------------------------------------------


def test_repeated_access_hits(presets):
    state = SimState(presets["simple"], det_params())
    outcomes = [state.access(0x1234).hit for _ in range(5)]
    assert outcomes == [False, True, True, True, True]
    assert state.stats.accesses == 5
    assert state.stats.row_buffer_hits == 4
    assert state.stats.activations == 1
    assert state.stats.precharges == 0


def test_same_row_different_column_hits(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x0000)
    assert state.access(0x0ABC).hit  # same row, different column
    assert state.stats.activations == 1


def test_row_conflict_always_misses(presets):
    # rows 0 and 1 of the same bank under the direct mapping (bit 15 toggles row)
    state = SimState(presets["simple"], det_params())
    for i in range(6):
        assert not state.access(0x8000 * (i & 1)).hit
    assert state.stats.accesses == 6
    assert state.stats.row_buffer_hits == 0
    assert state.stats.activations == 6
    assert state.stats.precharges == 5  # the first activation found the bank closed


def test_independent_bank_buffers(presets):
    # 0x2000 differs in bankgroup bit 13 only
    state = SimState(presets["simple"], det_params())
    hits = [state.access(pa).hit for pa in (0x0, 0x2000, 0x0, 0x2000)]
    assert hits == [False, False, True, True]
    assert state.stats.activations == 2
    assert state.stats.precharges == 0
    assert state.stats.per_bank_activations == {(0, 0, 0, 0): 1, (0, 0, 1, 0): 1}


def test_activate_row_never_hits():
    mapping = tiny_simple()
    state = SimState(mapping, det_params())
    coord = DramCoordinate(0, 0, 0, 0, 3, 0)
    state.activate_row(coord)
    state.activate_row(coord)
    assert state.stats.accesses == 2
    assert state.stats.row_buffer_hits == 0
    assert state.stats.activations == 2
    assert state.stats.precharges == 1  # reopening an open row forces a precharge


def test_write_then_read(presets):
    state = SimState(presets["simple"], det_params())
    before = state.stats.accesses
    state.write_byte(0x42, 0x5A)
    assert state.read_byte(0x42) == 0x5A
    assert state.read_byte(0x43) == 0  # fill constant
    assert state.stats.accesses == before  # byte access bypasses DRAM counters
    out = state.access(0x42, "write", 0xA5)
    assert not out.hit  # first DRAM access in this state
    assert state.access(0x42).value == 0xA5
    with pytest.raises(ValueError):
        state.access(0x42, "write")
    with pytest.raises(ValueError):
        state.access(0x42, "steal")
    with pytest.raises(ValueError):
        state.write_byte(1 << 40, 0)


def test_unwritten_bytes_read_the_fill():
    state = SimState(tiny_simple(), det_params(hc_first=4), fill=0xAA)
    assert state.read_byte(0x20) == 0xAA
    assert state.access(0x21).value == 0xAA
    state.write_byte(0x20, 0x5A)  # row 4, column 0
    for _ in range(2):  # deterministic mode flips bit 0 of column 0 once per window
        hammer(state, 5, 5)
        state.refresh()
    flips = [(f.pa, f.old_value, f.new_value) for f in state.collect_flips()]
    assert flips == [(0x20, 0x5A, 0x5B), (0x30, 0xAA, 0xAB), (0x20, 0x5B, 0x5A), (0x30, 0xAB, 0xAA)]
    assert (state.read_byte(0x20), state.read_byte(0x30)) == (0x5A, 0xAA)
    for bad in (256, -1, True, "0xAA"):
        with pytest.raises(ValueError, match="fill"):
            SimState(tiny_simple(), det_params(), fill=bad)


def _snapshot(state: SimState):
    return state.stats.to_dict(), dict(state.open_row)


def test_rejected_activation_leaves_state_unchanged(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x1234)
    before = _snapshot(state)
    with pytest.raises(ValueError):
        state.activate_row(DramCoordinate(0, 0, 0, 2, 0, 0))  # bank out of range
    assert _snapshot(state) == before


def test_rejected_write_leaves_state_unchanged(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x1234)
    before = _snapshot(state)
    with pytest.raises(ValueError):
        state.access(0x8000, "write", None)  # another row of the open bank
    assert _snapshot(state) == before


# -- threshold exactness -----------------------------------------------------------


def test_no_flip_at_or_below_threshold():
    state = SimState(tiny_simple(), det_params(hc_first=8))
    hammer(state, 5, 8)
    assert state.collect_flips() == []


def test_first_flip_exactly_past_threshold():
    state = SimState(tiny_simple(), det_params(hc_first=8))
    hammer(state, 5, 9)
    flips = state.collect_flips()
    assert sorted(f.coord.row for f in flips) == [4, 6]
    assert all(f.aggressor_row == 5 for f in flips)
    # deterministic mode pins the flipped cell to bit 0 of the row's first byte
    assert all(f.coord.column == 0 and f.bit_index == 0 for f in flips)
    assert all(f.old_value == 0x00 and f.new_value == 0x01 for f in flips)


def test_probabilistic_threshold_is_strictly_greater():
    params = HammerParams(hc_first=8, flip_probability=1.0, deterministic_mode=False)
    state = SimState(tiny_simple(), params)
    hammer(state, 5, 8)
    assert state.collect_flips() == []
    hammer(state, 5, 1)
    assert len(state.collect_flips()) == 2  # p=1: every candidate flips at once


def test_probabilistic_repeats_accumulate():
    params = HammerParams(hc_first=4, flip_probability=1.0, deterministic_mode=False)
    state = SimState(tiny_simple(), params)
    hammer(state, 5, 7)  # three eligible activations, two candidates each
    assert len(state.collect_flips()) == 6


def test_deterministic_latch_one_flip_per_victim_per_window():
    state = SimState(tiny_simple(), det_params(hc_first=4))
    hammer(state, 5, 20)
    assert len(state.collect_flips()) == 2  # not 2 * 16


def test_flips_resume_after_refresh():
    state = SimState(tiny_simple(), det_params(hc_first=4))
    hammer(state, 5, 5)
    state.refresh()
    hammer(state, 5, 5)
    flips = state.collect_flips()
    assert len(flips) == 4  # both windows crossed the threshold
    assert state.stats.refresh_windows == 1
    # toggling twice restores the original byte
    for pa in {f.pa for f in flips}:
        assert state.read_byte(pa) == 0


def test_refresh_soundness_within_windows():
    state = SimState(tiny_simple(), det_params(hc_first=4))
    for _ in range(10):
        hammer(state, 5, 4)
        state.refresh()
    assert state.collect_flips() == []
    assert state.stats.refresh_windows == 10
    assert state.stats.activations == 40


def test_refresh_keeps_rows_open(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x1234)
    state.refresh()
    assert state.access(0x1234).hit  # refresh does not close row buffers


def test_manual_refresh_starts_a_new_window():
    state = SimState(tiny_simple(), det_params(hc_first=100), refresh_every=4)
    hammer(state, 5, 3)
    state.refresh()
    hammer(state, 5, 3)
    assert state.stats.refresh_windows == 1  # six activations, but no full window
    hammer(state, 5, 1)
    assert state.stats.refresh_windows == 2  # the fourth since the manual refresh


def test_rejects_bad_refresh_period_and_count():
    for bad in (0, -1, 2.0, "4"):
        with pytest.raises(ValueError, match="refresh_every"):
            SimState(tiny_simple(), det_params(), refresh_every=bad)
    state = SimState(tiny_simple(), det_params())
    with pytest.raises(ValueError, match="times"):
        state.activate_row(DramCoordinate(0, 0, 0, 0, 5, 0), 0)
    assert state.stats.accesses == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refresh_window_matches_driver_oracles(data):
    """The state's own refresh window gives the same stats and flips as the
    drivers that used to keep it: a manual refresh after every ``every``-th
    hammer activation, and after every ``every`` replay activations."""
    rng = random.Random(data.draw(st.integers(0, 1 << 16), label="mapping seed"))
    mapping = random_invertible_mapping(rng, random_geometry(rng, max_total=1 << 12))
    geo = mapping.geometry
    params = HammerParams(
        hc_first=data.draw(st.integers(1, 64), label="hc_first"),
        flip_probability=data.draw(st.sampled_from([1.0, 0.5, 0.05]), label="p"),
        blast_radius=data.draw(st.integers(1, 3), label="blast"),
        deterministic_mode=data.draw(st.booleans(), label="deterministic"),
        rng_seed=data.draw(st.integers(0, 1 << 16), label="rng seed"),
    )
    every = data.draw(st.integers(1, 200), label="every")

    def bank_tuple():
        return tuple(
            data.draw(st.integers(0, n - 1))
            for n in (geo.channels, geo.ranks, geo.bankgroups, geo.banks)
        )

    sites = []
    for _ in range(data.draw(st.integers(1, 4), label="sites")):
        # some sites share a bank tuple, so they close each other's rows
        shared = sites and data.draw(st.booleans())
        bt = sites[-1][0].bank_tuple if shared else bank_tuple()
        coord = DramCoordinate(*bt, data.draw(st.integers(0, geo.rows - 1)), 0)
        sites.append((coord, data.draw(st.integers(1, 300), label="count")))
    state = SimState(mapping, params, every)
    for coord, count in sites:
        state.activate_row(coord, count)
    expected = brute_hammer(mapping, params, sites, every)
    assert state.stats.to_dict() == expected.stats.to_dict()
    assert state.collect_flips() == expected.collect_flips()

    pool = data.draw(st.lists(st.integers(0, geo.total_bytes - 1), min_size=1, max_size=6))
    entries = [
        ("write", pa, byte) if byte is not None else ("read", pa, None)
        for pa, byte in data.draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.none() | st.integers(0, 0xFF)),
                max_size=300,
            ),
            label="trace",
        )
    ]
    stats, flips = replay_trace(AccessTrace(tuple(entries)), mapping, params, every)
    expected = brute_replay(mapping, params, entries, every)
    assert stats.to_dict() == expected.stats.to_dict()
    assert flips == expected.collect_flips()


# -- confinement -------------------------------------------------------------------


def test_subarray_boundary_blocks_flips():
    # rows 0..3 are subarray 0, rows 4..7 subarray 1
    state = SimState(tiny_simple(), det_params(hc_first=2))
    hammer(state, 3, 3)
    assert [f.coord.row for f in state.collect_flips()] == [2]
    state = SimState(tiny_simple(), det_params(hc_first=2))
    hammer(state, 4, 3)
    assert [f.coord.row for f in state.collect_flips()] == [5]


def test_edge_rows_have_one_neighbor():
    state = SimState(tiny_simple(), det_params(hc_first=2))
    hammer(state, 0, 3)
    assert [f.coord.row for f in state.collect_flips()] == [1]
    state = SimState(tiny_simple(), det_params(hc_first=2))
    hammer(state, 15, 3)
    assert [f.coord.row for f in state.collect_flips()] == [14]


def test_blast_radius_two():
    state = SimState(tiny_simple(), det_params(hc_first=2, blast_radius=2))
    hammer(state, 5, 3)
    # row 3 is across the subarray boundary and must not flip
    assert sorted(f.coord.row for f in state.collect_flips()) == [4, 6, 7]


def test_flips_stay_in_aggressor_bank():
    state = SimState(tiny_simple(), det_params(hc_first=2))
    hammer(state, 5, 3, bank=1)
    flips = state.collect_flips()
    assert {f.coord.bank for f in flips} == {1}
    assert {f.coord.bank_tuple for f in flips} == {(0, 0, 0, 1)}


def test_flip_records_are_consistent():
    mapping = tiny_noncontig()
    params = HammerParams(hc_first=3, flip_probability=1.0, rng_seed=11)
    state = SimState(mapping, params)
    rng = random.Random(5)
    for _ in range(40):
        bank = rng.randrange(2)
        bg = rng.randrange(4)
        row = rng.randrange(16)
        coord = DramCoordinate(0, 0, bg, bank, row, 0)
        for _ in range(5):
            state.activate_row(coord)
    flips = state.collect_flips()
    assert flips
    geo = mapping.geometry
    for f in flips:
        assert f.new_value == f.old_value ^ (1 << f.bit_index)
        assert abs(f.coord.row - f.aggressor_row) <= params.blast_radius
        assert geo.subarray_of(f.coord.row) == geo.subarray_of(f.aggressor_row)
        assert mapping.coord_to_pa(f.coord) == f.pa


def test_same_seed_same_flips():
    def drive(seed):
        params = HammerParams(hc_first=4, flip_probability=0.5, rng_seed=seed)
        state = SimState(tiny_simple(), params)
        hammer(state, 5, 30)
        hammer(state, 9, 30)
        return [(f.pa, f.bit_index, f.old_value, f.new_value) for f in state.collect_flips()]

    assert drive(1234) == drive(1234)


# -- stats accounting --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=60), st.booleans())
def test_accounting_invariant(pas, use_noncontig):
    mapping = tiny_noncontig() if use_noncontig else tiny_simple()
    state = SimState(mapping, det_params(hc_first=1000))
    for pa in pas:
        if pa < mapping.geometry.total_bytes:
            state.access(pa)
    s = state.stats
    assert s.accesses == s.row_buffer_hits + s.activations
    assert sum(s.per_bank_activations.values()) == s.activations
    assert s.precharges == s.activations - len(state.open_row)


def test_accounting_with_random_mappings():
    rng = random.Random(99)
    for _ in range(10):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = random_invertible_mapping(rng, geometry)
        state = SimState(mapping, det_params(hc_first=10**6))
        for _ in range(200):
            state.access(rng.randrange(geometry.total_bytes))
        s = state.stats
        assert s.accesses == s.row_buffer_hits + s.activations
        assert s.precharges == s.activations - len(state.open_row)


# -- parameter validation -----------------------------------------------------------


def test_hammer_params_validation():
    with pytest.raises(ValueError):
        HammerParams(hc_first=0)
    with pytest.raises(ValueError):
        HammerParams(flip_probability=0.0)
    with pytest.raises(ValueError):
        HammerParams(flip_probability=1.5)
    with pytest.raises(ValueError):
        HammerParams(blast_radius=0)
    for bad in ({"hc_first": "100"}, {"hc_first": True}, {"hc_first": 64.0},
                {"blast_radius": None}, {"rng_seed": "0"}, {"flip_probability": "0.5"},
                {"flip_probability": True}, {"deterministic_mode": "no"},
                {"deterministic_mode": 1}, {"rng_seed": np.int64(1)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            HammerParams(**bad)
    # an integer probability is a number
    assert HammerParams(flip_probability=1).flip_probability == 1


# -- internal invariants ----------------------------------------------------------


def test_out_of_reach_flip_raises_invariant_error():
    state = SimState(tiny_simple(), det_params())
    aggressor = DramCoordinate(0, 0, 0, 0, 1, 0)
    for victim_row in (3, 4):  # beyond the blast radius; across the subarray seam
        with pytest.raises(InvariantError, match="out of reach"):
            state._record_flip(aggressor, victim_row, column=0, bit=0)
    assert state.flips == [] and state.contents == {}
    assert not issubclass(InvariantError, ValueError)


def test_invariant_check_survives_optimized_mode():
    # python -O strips assert statements; the confinement check must stay
    code = (
        "from vmhammer import DramCoordinate, HammerParams, SimState, builtin_mappings\n"
        "from vmhammer.dram import InvariantError\n"
        "state = SimState(builtin_mappings()['simple'], HammerParams())\n"
        "try:\n"
        "    state._record_flip(DramCoordinate(0, 0, 0, 0, 1, 0), 5, column=0, bit=0)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "raised\n", "")


def test_simstate_requires_invertible_mapping():
    geometry = tiny_simple().geometry
    broken = AddressMapping.build(
        geometry,
        {
            "channel": [],
            "rank": [],
            "bankgroup": [],
            "bank": [[7]],
            "row": [[3], [4], [5], [7]],  # bit 7 reused, bit 6 unused
            "column": [[0], [1], [2]],
        },
    )
    with pytest.raises(Exception):
        SimState(broken, det_params())


def test_stats_dict_keys(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x0)
    data = state.stats.to_dict()
    assert data["accesses"] == 1
    assert data["activations"] == 1
    assert data["row_buffer_hits"] == 0
    assert data["per_bank_activations"] == {"0:0:0:0": 1}
