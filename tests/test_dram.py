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
    MappingError,
    SimState,
    builtin_mappings,
)
from vmhammer.dram import REPLAY_CHUNK, InvariantError, _run_starts
from vmhammer.harness import AccessTrace, replay_trace, strided_trace

from oracles import (
    BruteState,
    brute_access,
    brute_activate,
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
    outcomes = [state.access(0x1234) for _ in range(5)]
    assert outcomes == [False, True, True, True, True]
    assert state.stats.accesses == 5
    assert state.stats.row_buffer_hits == 4
    assert state.stats.activations == 1
    assert state.stats.precharges == 0


def test_same_row_different_column_hits(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x0000)
    assert state.access(0x0ABC)  # same row, different column
    assert state.stats.activations == 1


def test_row_conflict_always_misses(presets):
    # rows 0 and 1 of the same bank under the direct mapping (bit 15 toggles row)
    state = SimState(presets["simple"], det_params())
    for i in range(6):
        assert not state.access(0x8000 * (i & 1))
    assert state.stats.accesses == 6
    assert state.stats.row_buffer_hits == 0
    assert state.stats.activations == 6
    assert state.stats.precharges == 5  # the first activation found the bank closed


def test_independent_bank_buffers(presets):
    # 0x2000 differs in bankgroup bit 13 only
    state = SimState(presets["simple"], det_params())
    hits = [state.access(pa) for pa in (0x0, 0x2000, 0x0, 0x2000)]
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
    assert not state.access(0x42, "write", 0xA5)  # first DRAM access in this state
    assert state.access(0x42)
    assert state.read_byte(0x42) == 0xA5
    with pytest.raises(ValueError):
        state.access(0x42, "write")
    with pytest.raises(ValueError):
        state.access(0x42, "steal")
    with pytest.raises(ValueError):
        state.write_byte(1 << 40, 0)


def test_unwritten_bytes_read_the_fill():
    state = SimState(tiny_simple(), det_params(hc_first=4), fill=0xAA)
    assert state.read_byte(0x20) == 0xAA
    assert not state.access(0x21)
    assert state.read_byte(0x21) == 0xAA
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
    return state.stats.to_dict(), dict(state.open_row), dict(state.contents)


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


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda s: s.activate_row(DramCoordinate(0, 0, 0, 0, 5, 0), True), "times"),
        (lambda s: s.activate_row(DramCoordinate(0, 0, 0, 0, 5, 0), 2.5), "times"),
        (lambda s: s.write_byte(0x20, 1.5), "value"),
        (lambda s: s.write_byte(0x20, True), "value"),
        (lambda s: s.write_byte(1.5, 1), "pa"),
        (lambda s: s.read_byte(1.5), "pa"),
        (lambda s: s.access(0x20, "write", True), "data"),
        (lambda s: s.access(0x20, "write", 1.5), "data"),
        (lambda s: s.access(True), "pa"),
        (lambda s: s.access(1.5), "pa"),
        (lambda s: s.access("0x10"), "pa"),
        (lambda s: s.mapping.pa_to_coord(True), "pa"),
        (lambda s: s.activate_row(DramCoordinate(0, 0, 0, 0, 1.5, 0), 3), "row"),
        (lambda s: s.activate_row(DramCoordinate(0, 0, 0, 0, True, 0), 3), "row"),
        (lambda s: s.activate_row(DramCoordinate(0, 0, 0, 0, "1", 0), 3), "row"),
        (lambda s: s.mapping.coord_to_pa(DramCoordinate(0, 0, 0, 0, 1.5, 0)), "row"),
    ],
    ids=[
        "activate_row-bool",
        "activate_row-float",
        "write_byte-float-value",
        "write_byte-bool-value",
        "write_byte-float-pa",
        "read_byte-float-pa",
        "access-bool-data",
        "access-float-data",
        "access-bool-pa",
        "access-float-pa",
        "access-str-pa",
        "pa_to_coord-bool-pa",
        "activate_row-float-row",
        "activate_row-bool-row",
        "activate_row-str-row",
        "coord_to_pa-float-row",
    ],
)
def test_non_integer_input_leaves_state_unchanged(call, argument):
    state = SimState(tiny_simple(), det_params(hc_first=4), fill=0xAA)
    hammer(state, 5, 6)
    state.write_byte(0x21, 0x5A)
    before = _snapshot(state)
    with pytest.raises(ValueError, match=argument):
        call(state)
    assert _snapshot(state) == before


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: SimState(s.mapping, s.params, 0), "refresh_every must be >= 1, got 0"),
        (lambda s: SimState(s.mapping, s.params, fill=256), "fill 256 outside [0, 256)"),
        (lambda s: s.activate_row(s.geometry.unpack(0), 0), "times must be >= 1, got 0"),
        (lambda s: s.write_byte(0x20, 256), "value 256 outside [0, 256)"),
        (lambda s: s.access(0x20, "write", 300), "data 300 outside [0, 256)"),
        (lambda s: s.access(0x20, "write", None), "data must be an integer, got None"),
    ],
    ids=["refresh_every", "fill", "times", "value", "data-range", "data-missing"],
)
def test_integer_check_messages(call, message):
    state = SimState(tiny_simple(), det_params())
    with pytest.raises(ValueError) as info:
        call(state)
    assert str(info.value) == message


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


def test_deterministic_latch_is_per_bank():
    state = SimState(tiny_simple(), det_params(hc_first=4))
    hammer(state, 5, 5, bank=0)
    hammer(state, 5, 5, bank=1)  # the same victim rows, in the other bank
    flips = state.collect_flips()
    assert sorted((f.coord.bank, f.coord.row) for f in flips) == [(0, 4), (0, 6), (1, 4), (1, 6)]


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
    assert state.access(0x1234)  # refresh does not close row buffers


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
    hammer activation, stepped one at a time, and after every ``every``
    replay activations. Hammer runs span several windows, and hc_first may
    be at or above the refresh period, where no flip is possible. Last, one
    state interleaves both kinds of call, against the hand-stepped oracles
    at the state's own period."""
    rng = random.Random(data.draw(st.integers(0, 1 << 16), label="mapping seed"))
    mapping = random_invertible_mapping(rng, random_geometry(rng, max_total=1 << 12))
    geo = mapping.geometry
    every = data.draw(st.integers(1, 200), label="every")
    params = HammerParams(
        hc_first=data.draw(st.integers(1, 64) | st.integers(every, every + 2), label="hc_first"),
        flip_probability=data.draw(st.sampled_from([1.0, 0.5, 0.05]), label="p"),
        blast_radius=data.draw(st.integers(1, 3), label="blast"),
        deterministic_mode=data.draw(st.booleans(), label="deterministic"),
        rng_seed=data.draw(st.integers(0, 1 << 16), label="rng seed"),
    )

    def bank_tuple():
        return tuple(
            data.draw(st.integers(0, n - 1))
            for n in (geo.channels, geo.ranks, geo.bankgroups, geo.banks)
        )

    sites = []
    for _ in range(data.draw(st.integers(1, 5), label="sites")):
        # some sites share a bank tuple, so they close each other's rows, and
        # some hammer the previous row again, carrying its count over
        reuse = sites and data.draw(st.sampled_from(["row", "bank", None]))
        if reuse == "row":
            coord = sites[-1][0]
        else:
            bt = sites[-1][0].bank_tuple if reuse == "bank" else bank_tuple()
            coord = DramCoordinate(*bt, data.draw(st.integers(0, geo.rows - 1)), 0)
        sites.append((coord, data.draw(st.integers(1, 4 * every + 3), label="count")))
    state = SimState(mapping, params, every)
    for coord, count in sites:
        state.activate_row(coord, count)
    expected = brute_hammer(mapping, params, sites, every)
    assert state.stats.to_dict() == expected.stats.to_dict()
    assert state.collect_flips() == expected.collect_flips()

    pool = data.draw(st.lists(st.integers(0, geo.total_bytes - 1), min_size=1, max_size=6))
    pool += [mapping.coord_to_pa(coord) for coord, _ in sites]  # the hammered rows
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

    # one state takes hammer runs and accesses in any order, on shared banks
    ops = data.draw(st.permutations(sites + entries), label="interleaving")
    state = SimState(mapping, params, every)
    expected = BruteState(mapping, params, every)
    for op in ops:
        if len(op) == 2:
            coord, count = op
            state.activate_row(coord, count)
            for _ in range(count):
                brute_activate(expected, coord)
        else:
            kind, pa, byte = op
            state.access(pa, kind, byte)
            brute_access(expected, pa, kind, byte)
    assert state.stats.to_dict() == expected.stats.to_dict()
    assert state.collect_flips() == expected.collect_flips()
    assert state.contents == expected.contents


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize(
    "hc_first, every, sites",
    [
        (10, 10, [(5, 1000)]),  # hc_first == refresh_every: no flip is possible
        (12, 10, [(5, 95), (9, 7)]),  # hc_first above refresh_every
        (3, 7, [(5, 50)]),  # one call spanning seven windows and part of an eighth
        (2, 10, [(5, 35)]),  # the latch re-arms after each refresh inside the call
        (4, 100, [(5, 6), (9, 6), (5, 6), (5, 3)]),  # rows 5 and 9 share a bank tuple
        (4, 100, [(5, 6), (7, 6)]),  # the second crossing finds shared victim 6 latched
        (4, 5, [(5, 12)]),  # the hc_first + 1-th activation ends each full window
        (3, 1000, [(5, 2), (5, 40)]),  # a step from below hc_first to 39 activations past it
        (3, 1000, [(5, 4), (5, 30)]),  # a step wholly past hc_first
    ],
)
def test_bulk_hammer_edge_cases(hc_first, every, sites, deterministic):
    params = HammerParams(
        hc_first=hc_first, flip_probability=0.5, deterministic_mode=deterministic, rng_seed=3
    )
    sites = [(DramCoordinate(0, 0, 0, 0, row, 0), count) for row, count in sites]
    state = SimState(tiny_simple(), params, every)
    for coord, count in sites:
        state.activate_row(coord, count)
    expected = brute_hammer(tiny_simple(), params, sites, every)
    assert state.stats.to_dict() == expected.stats.to_dict()
    assert state.collect_flips() == expected.collect_flips()
    activations = sum(count for _, count in sites)
    assert state.stats.refresh_windows == activations // every
    assert state.stats.precharges == activations - 1  # one bank, closed only at first
    if hc_first >= every:
        assert state.collect_flips() == []


def test_hammer_runs_match_single_activations_around_manual_refreshes():
    """Runs of 1 to 10 * refresh_every activations, with refresh_every on
    both sides of hc_first, in both flip modes and with manual refreshes
    between runs, count and flip as the same activations stepped one by one:
    closing every whole window of a run at once changes nothing."""
    rng = random.Random(29)
    mapping = tiny_simple()
    sides = set()
    for case in range(400):
        every, hc_first = rng.randint(1, 40), rng.randint(1, 60)
        sides.add(every <= hc_first)
        params = HammerParams(
            hc_first=hc_first, flip_probability=0.5, deterministic_mode=case % 2 == 0, rng_seed=case
        )
        state = SimState(mapping, params, every)
        expected = BruteState(mapping, params, every)
        for _ in range(rng.randint(1, 4)):
            coord = DramCoordinate(0, 0, 0, rng.randrange(2), rng.randrange(16), 0)
            count = rng.randint(1, 10 * every)
            state.activate_row(coord, count)
            for _ in range(count):
                brute_activate(expected, coord)
            if rng.random() < 0.4:
                state.refresh()
                expected.refresh()
        assert state.stats.to_dict() == expected.stats.to_dict(), case
        assert state.collect_flips() == expected.collect_flips(), case
    assert sides == {True, False}


def test_deterministic_latch_rearms_inside_one_call():
    state = SimState(tiny_simple(), det_params(hc_first=2), refresh_every=10)
    hammer(state, 5, 35)  # windows of 10, 10, 10 and 5 all pass hc_first
    assert [f.coord.row for f in state.collect_flips()] == [4, 6] * 4
    assert state.stats.refresh_windows == 3


def _full_snapshot(state: SimState):
    return (
        state.stats.to_dict(), dict(state.open_row), dict(state.act_count), state._window,
        set(state._det_flipped), dict(state.contents), list(state.flips), state.rng.getstate(),
    )


def test_chunk_equals_one_access_per_entry():
    """``replay`` leaves the state that one ``access`` per entry leaves,
    refresh windows, latches, flips and random state included, on chunks whose
    rows pass hc_first with writes between their activations, some of them on
    the bytes the hot rows' neighbours hold."""
    rng = random.Random(22)
    mapping = tiny_noncontig()
    geo = mapping.geometry
    flipped = 0
    for case in range(600):
        params = HammerParams(
            hc_first=rng.randint(1, 12), flip_probability=0.3, blast_radius=rng.randint(1, 2),
            deterministic_mode=rng.random() < 0.5, rng_seed=case,
        )
        every = rng.choice([1, 2, 3, 7, 50, 1000])
        pool = rng.sample(range(geo.total_bytes), rng.randint(1, 12))
        near = [  # every byte of the rows next to a pool row
            mapping.coord_to_pa(coord._replace(row=row, column=column))
            for coord in map(mapping.pa_to_coord, pool)
            for row in geo.neighbours(coord.row, params.blast_radius)
            for column in range(geo.columns)
        ]
        entries = [
            ("write", rng.choice(pool + near), rng.randrange(256)) if rng.random() < 0.2
            else ("read", rng.choice(pool), None)
            for _ in range(rng.randint(1, 100))
        ]
        cut = rng.randrange(len(entries))
        history, entries = entries[:cut], tuple(entries[cut:])  # a shared history, then the chunk
        states = [SimState(mapping, params, every) for _ in range(2)]
        for kind, pa, byte in history:
            for state in states:
                state.access(pa, kind, byte)
        before = len(states[0].flips)
        trace = AccessTrace(entries)  # int64 PAs, and bytes with -1 for a read
        states[0].replay(trace.pas, trace.data)
        for kind, pa, byte in entries:
            states[1].access(pa, kind, byte)
        assert _full_snapshot(states[0]) == _full_snapshot(states[1])
        flipped += len(states[0].flips) > before
    assert flipped >= 50
    # every access opens a new row, in the eight bank tuples in turn, over three
    # chunks and more, with windows of 1,000 activations closing mid-chunk
    stride = (1 << 15) + (1 << 13) + (1 << 6)  # a row, a bank group and PA 6 further
    trace = strided_trace(0, stride, 3 * REPLAY_CHUNK + 5)
    states = [SimState(builtin_mappings()["bank-xor"], HammerParams(), 1000) for _ in range(2)]
    states[0].replay(trace.pas, trace.data)
    for pa in trace.pas.tolist():
        states[1].access(pa)
    assert _full_snapshot(states[0]) == _full_snapshot(states[1])
    assert states[0].stats.row_buffer_hits == 0 and len(states[0].stats.bank_activations) == 8


@pytest.mark.parametrize("deterministic", [False, True], ids=["probabilistic", "deterministic"])
@pytest.mark.parametrize("bank_bits, key_dtype", [(13, np.uint16), (20, np.uint32)])
def test_replay_sorts_wide_bank_keys(bank_bits, key_dtype, deterministic):
    """On bank tuples 13 and 20 bits wide, whose bank keys sort as uint16 and
    uint32, ``replay`` leaves the state that one ``access`` per entry leaves,
    over three chunks of reads and writes to two rows in each of six banks,
    pairs of which differ only in the top bit: misses, a row left open across a
    chunk boundary, and rows past hc_first in windows that close mid-chunk."""
    rng = random.Random(bank_bits)
    widths = [bank_bits // 4] * 3 + [bank_bits - 3 * (bank_bits // 4)]  # channel .. bank bits
    geometry = Geometry(*(1 << w for w in widths), rows=16, columns=4, rows_per_subarray=8)
    mapping = random_invertible_mapping(rng, geometry)
    banks = [low | top for low in rng.sample(range(256), 3) for top in (0, 1 << bank_bits - 1)]
    pool = [
        mapping.coord_to_pa(geometry.unpack(bank | row << geometry.coord_offsets[4]))
        for bank in banks
        for row in rng.sample(range(geometry.rows), 2)
    ]
    entries = [
        ("write", pa, rng.randrange(256)) if rng.random() < 0.2 else ("read", pa, None)
        for pa in (rng.choice(pool) for _ in range(2 * REPLAY_CHUNK + 100))
    ]
    entries[REPLAY_CHUNK] = ("read", entries[REPLAY_CHUNK - 1][1], None)  # the open row again
    params = HammerParams(hc_first=100, flip_probability=0.01,
                          deterministic_mode=deterministic, rng_seed=bank_bits)
    states = [SimState(mapping, params, refresh_every=2500) for _ in range(2)]
    trace = AccessTrace(entries)
    states[0].replay(trace.pas, trace.data)
    hits = [states[1].access(pa, kind, byte) for kind, pa, byte in entries]
    assert _full_snapshot(states[0]) == _full_snapshot(states[1])
    assert hits[REPLAY_CHUNK] and not all(hits) and states[0].flips
    assert states[0].stats.refresh_windows >= 2
    assert np.min_scalar_type(states[0]._bank_mask) == key_dtype
    assert np.min_scalar_type(max(states[0].stats.bank_activations)) == key_dtype


def test_run_starts_matches_a_loop():
    """``_run_starts`` gives entry 0 and each entry that differs from the one
    before in some column, on int64 columns with negative values."""
    rng = np.random.default_rng(30)
    for length in [0, 1, 2, *rng.integers(3, 60, size=30).tolist()]:
        for width in (1, 2, 3):
            columns = [rng.integers(-3, 3, size=length) for _ in range(width)]
            rows = list(zip(*(c.tolist() for c in columns)))
            expected = [i for i in range(length) if i == 0 or rows[i] != rows[i - 1]]
            assert _run_starts(*columns).tolist() == expected
    assert _run_starts(np.array([-1, -1]), np.array([-1, 0])).tolist() == [0, 1]


def _state_with_history(rng: random.Random) -> SimState:
    """A ``tiny_simple`` state with flips, a closed window, counts and writes."""
    state = SimState(tiny_simple(), det_params(hc_first=2), refresh_every=8)
    hammer(state, 5, 10)  # flips in rows 4 and 6, and one refresh
    for _ in range(20):
        state.access(rng.randrange(state.geometry.total_bytes),
                     *rng.choice([("read", None), ("write", 0x5A)]))
    assert state.flips and state.stats.refresh_windows and state.act_count
    return state


@pytest.mark.parametrize("at", [0, 2 * REPLAY_CHUNK + 7], ids=["first-chunk", "third-chunk"])
def test_replay_checks_every_pa_before_it_changes_the_state(at):
    """A PA outside the space raises ``check_pa``'s error, wherever it lies,
    and leaves a state with history just as it was."""
    mapping = tiny_simple()
    total = mapping.geometry.total_bytes
    rng = random.Random(24)
    state = _state_with_history(rng)
    before = _full_snapshot(state)
    pas = np.array([rng.randrange(total) for _ in range(3 * REPLAY_CHUNK)], dtype=np.int64)
    pas[at] = total
    data = np.where(np.arange(len(pas)) % 3 == 0, 0xA5, -1)
    with pytest.raises(ValueError) as expected:
        mapping.geometry.check_pa(total)
    with pytest.raises(ValueError) as error:
        state.replay(pas, data)
    assert str(error.value) == str(expected.value)
    assert _full_snapshot(state) == before


@pytest.mark.parametrize(
    "bytes_at, pa_outside_at, message",
    [
        ({9: 300}, None, "data 300 outside [0, 256)"),
        ({2 * REPLAY_CHUNK + 7: -5}, None, "data -5 outside [0, 256)"),
        ({9: 300, 10: -5}, 10, "data 300 outside [0, 256)"),
        ({9: -5}, 9, "data -5 outside [0, 256)"),  # one entry: its byte first, as access
        ({10: 300}, 9, None),  # an earlier PA outside: check_pa's error
    ],
    ids=["300", "minus-5-third-chunk", "first-of-two", "byte-before-pa", "pa-first"],
)
def test_replay_checks_every_byte_before_it_changes_the_state(bytes_at, pa_outside_at, message):
    """A byte outside -1..255 raises ``access``'s error for the first bad entry,
    the byte's before its PA's, and leaves a state with history just as it was."""
    rng = random.Random(25)
    state = _state_with_history(rng)
    before = _full_snapshot(state)
    total = state.geometry.total_bytes
    pas = np.array([rng.randrange(total) for _ in range(3 * REPLAY_CHUNK)], dtype=np.int64)
    data = np.where(np.arange(len(pas)) % 3 == 0, 0xA5, -1)
    for at, byte in bytes_at.items():
        data[at] = byte
    if pa_outside_at is not None:
        pas[pa_outside_at] = total
    if message is None:
        with pytest.raises(ValueError) as expected:
            state.geometry.check_pa(total)
        message = str(expected.value)
    with pytest.raises(ValueError) as error:
        state.replay(pas, data)
    assert str(error.value) == message
    assert _full_snapshot(state) == before


def test_replay_refuses_arrays_of_different_lengths():
    state = _state_with_history(random.Random(25))
    before = _full_snapshot(state)
    with pytest.raises(ValueError, match=r"^pas and data differ in length: 2 and 1$"):
        state.replay(np.array([0x40, 0x80]), np.array([300]))
    assert _full_snapshot(state) == before


@pytest.mark.parametrize(
    "pas, data, message",
    [
        ([0x40, 0x80], [1.5, -1.0], "data must be an integer array, got dtype float64"),
        ([0x40, 0x80], [True, False], "data must be an integer array, got dtype bool"),
        ([64.0, 128.0], [-1, -1], "pas must be an integer array, got dtype float64"),
        ([0x40, 0x80], np.array([7, -1], dtype=object), "data must be an integer array, got dtype object"),
        ([1.5, 0x80], [1.5, -1], "pas must be an integer array, got dtype float64"),
    ],
    ids=["data-float", "data-bool", "pas-float", "data-object", "both-float"],
)
def test_replay_refuses_arrays_that_are_not_integer(pas, data, message):
    """A dtype other than a signed or unsigned integer raises, naming the array,
    and leaves a state with history just as it was."""
    state = _state_with_history(random.Random(25))
    before = _full_snapshot(state)
    with pytest.raises(ValueError) as error:
        state.replay(np.asarray(pas), np.asarray(data))
    assert str(error.value) == message
    assert _full_snapshot(state) == before


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
    for victim_row in (3, 4):  # beyond the blast radius; across the subarray seam
        victim = state.geometry.pack(DramCoordinate(0, 0, 0, 0, victim_row, 0))
        with pytest.raises(InvariantError, match="out of reach"):
            state._record_flip(victim, aggressor_row=1, bit=0)
    assert state.flips == [] and state.contents == {}
    assert not issubclass(InvariantError, ValueError)


def test_invariant_check_survives_optimized_mode():
    # python -O strips assert statements; the confinement check must stay
    code = (
        "from vmhammer import DramCoordinate, HammerParams, SimState, builtin_mappings\n"
        "from vmhammer.dram import InvariantError\n"
        "state = SimState(builtin_mappings()['simple'], HammerParams())\n"
        "try:\n"
        "    victim = state.geometry.pack(DramCoordinate(0, 0, 0, 0, 5, 0))\n"
        "    state._record_flip(victim, aggressor_row=1, bit=0)\n"
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
    with pytest.raises(MappingError, match="not invertible: rank 7 of 8"):
        SimState(broken, det_params())


def test_stats_dict_keys(presets):
    state = SimState(presets["simple"], det_params())
    state.access(0x0)
    data = state.stats.to_dict()
    assert data["accesses"] == 1
    assert data["activations"] == 1
    assert data["row_buffer_hits"] == 0
    assert data["per_bank_activations"] == {"0:0:0:0": 1}
