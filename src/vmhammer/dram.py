"""Open-page DRAM state with activation counting and threshold bitflips.

The model tracks, per bank tuple (channel, rank, bankgroup, bank), the open
row and per-row activation counts within the current refresh window, keyed by
packed coordinate vectors (a row's without column bits, a bank's bits below
the row). The state closes its window itself every ``refresh_every``
activations. A row activated more than ``hc_first`` times in one window may
flip bits in neighbouring rows of its subarray, each victim a packed key
unpacked once for its record; ``deterministic_mode`` makes the first a sure flip.

``_maybe_flip`` is the one routine that draws or latches, with draws of their
own for each activation past ``hc_first``, so a run of them equals as many
single activations. ``_activate`` counts a run of any length, split at window
ends, for ``activate_row`` and ``access``. ``replay`` takes a trace's arrays
of PAs and bytes, checks every entry before it changes anything, and counts
``REPLAY_CHUNK`` accesses at once in a few numpy passes; only activations
past ``hc_first`` reach Python. A chunk's hits come from one stable sort of
its bank keys in the narrowest unsigned dtype that holds them, which numpy
sorts by radix up to 16 bits, and ``_run_starts`` finds the runs of any
integer columns. ``_close_windows`` closes refresh windows up to a total, the
only code that does. ``check_access`` is the one check of an access's kind,
byte and PA type, for ``access``, a trace's entries and replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .mapping import AddressMapping, DramCoordinate, Geometry, InvariantError, check_int

__all__ = [
    "InvariantError",
    "HammerParams",
    "Stats",
    "BitflipRecord",
    "SimState",
]

REFRESH_EVERY = 100_000  # default activations per refresh window
REPLAY_CHUNK = 8192  # trace entries translated and counted per numpy pass


def check_access(pa: int, kind: str, data: int | None) -> None:
    """Raise ``SimState.access``'s error for an access no geometry admits: an
    unknown kind, a write's byte that is not an int in 0..255, or a PA that
    is not an int. ``access`` then checks the PA against its geometry."""
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
    if kind == "write":
        check_int("data", data, 0, 256)
    check_int("pa", pa)


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where a run of entries equal in every one of the integer columns begins:
    entry 0, and each entry that differs from the one before in some column."""
    starts = np.ones(len(columns[0]), dtype=bool)
    starts[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in columns])
    return np.flatnonzero(starts)


@dataclass(frozen=True)
class HammerParams:
    """Disturbance-error knobs.

    hc_first is the per-window activation count a row must exceed before its
    neighbours become flip candidates (strictly greater: the first opportunity
    is the activation taking the count to hc_first + 1).
    """

    hc_first: int = 50_000
    flip_probability: float = 1e-4
    blast_radius: int = 1
    deterministic_mode: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_int("hc_first", self.hc_first, 1)
        check_int("blast_radius", self.blast_radius, 1)
        check_int("rng_seed", self.rng_seed)
        prob = self.flip_probability
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise ValueError(f"flip_probability must be a number, got {prob!r}")
        if not isinstance(self.deterministic_mode, bool):
            raise ValueError(
                f"deterministic_mode must be true or false, got {self.deterministic_mode!r}"
            )
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"flip_probability must be in (0, 1], got {prob}")


@dataclass
class Stats:
    """Access accounting. Every miss (and every explicit row activation)
    activates; the activations are the per-bank counts summed, and the
    accesses the hits plus the activations. A bank's open row is never
    closed, so every activation precharges but the first in each bank, which
    finds it closed. ``per_bank_activations`` keys the per-bank counts by tuple."""

    geometry: Geometry
    row_buffer_hits: int = 0
    refresh_windows: int = 0
    bank_activations: dict[int, int] = field(default_factory=dict)

    @property
    def per_bank_activations(self) -> dict[tuple[int, int, int, int], int]:
        return {self.geometry.unpack(bank).bank_tuple: n for bank, n in self.bank_activations.items()}

    @property
    def activations(self) -> int:
        return sum(self.bank_activations.values())

    @property
    def accesses(self) -> int:
        return self.row_buffer_hits + self.activations

    @property
    def precharges(self) -> int:
        return self.activations - len(self.bank_activations)

    def to_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "row_buffer_hits": self.row_buffer_hits,
            "activations": self.activations,
            "precharges": self.precharges,
            "refresh_windows": self.refresh_windows,
            "per_bank_activations": {
                ":".join(str(x) for x in bt): n
                for bt, n in sorted(self.per_bank_activations.items())
            },
        }


@dataclass(frozen=True)
class BitflipRecord:
    """One induced bitflip: bit ``bit_index`` of the byte at ``pa`` inverted."""

    pa: int
    coord: DramCoordinate
    bit_index: int
    aggressor_row: int
    old_value: int

    @property
    def new_value(self) -> int:
        return self.old_value ^ (1 << self.bit_index)

    def to_dict(self, geometry: Geometry, pa_digits: int) -> dict:
        return {
            "pa": f"0x{self.pa:0{pa_digits}x}",
            "coord": self.coord.to_dict(geometry),
            "bit_index": self.bit_index,
            "aggressor_row": self.aggressor_row,
            "old_value": self.old_value,
            "new_value": self.new_value,
        }


class SimState:
    """Mutable DRAM state bound to one validated address mapping.

    The mapping is fixed at construction because flip records carry both the
    victim coordinate and its physical address, which requires the inverse
    translation during activation. Every ``refresh_every`` activations since
    the window opened, the state closes the window itself, as ``refresh``
    does, whether they came one by one or in a replay. A byte never
    written or flipped reads ``fill``, the pattern memory was filled with.
    """

    def __init__(
        self,
        mapping: AddressMapping,
        params: HammerParams,
        refresh_every: int = REFRESH_EVERY,
        fill: int = 0,
    ) -> None:
        check_int("refresh_every", refresh_every, 1)
        check_int("fill", fill, 0, 256)
        self.mapping = mapping
        self.geometry: Geometry = mapping.geometry
        self.params = params
        self.refresh_every = refresh_every
        self.fill = fill
        self._bank_mask = (1 << self.geometry.coord_offsets[4]) - 1  # bits below the row
        self._row_mask = (1 << self.geometry.coord_offsets[5]) - 1  # bits below the column
        self._window = 0  # activations since the refresh window opened
        self.open_row: dict[int, int] = {}  # bank key -> row key
        self.act_count: dict[int, int] = {}  # row key -> activations this window
        self.contents: dict[int, int] = {}  # sparse; unwritten bytes read fill
        self.flips: list[BitflipRecord] = []
        self.stats = Stats(self.geometry)
        self.rng = random.Random(params.rng_seed)
        self._det_flipped: set[int] = set()  # per-window latch, by victim row key
        mapping.inverse_columns  # fail fast on non-invertible mappings

    # -- memory access path -------------------------------------------------

    def access(self, pa: int, kind: str = "read", data: int | None = None) -> bool:
        """One memory access under the open-page policy; True on a row-buffer
        hit. The byte read or written is in ``read_byte``."""
        check_access(pa, kind, data)
        self.geometry.check_pa(pa)
        if kind == "write":  # the accessed row is never its own flip's victim
            self.contents[pa] = data
        key = gf2.image(self.mapping._forward_tables, pa) & self._row_mask
        if self.open_row.get(key & self._bank_mask) == key:
            self.stats.row_buffer_hits += 1
            return True
        self._activate(key, 1)
        return False

    def activate_row(self, coord: DramCoordinate, times: int = 1) -> None:
        """``times`` unconditional activations of one row, the hammer primitive.

        Models a flush+access loop that defeats the row buffer: each counts as
        an access that always misses, re-opening the row even if already open.
        The run is one ``_activate`` call. Each activation past ``hc_first``
        gets its own random draws, in order; in deterministic mode the
        crossing latches every neighbour until the refresh, whichever
        activation it falls on.
        """
        check_int("times", times, 1)
        self.geometry.check_coord(coord)
        self._activate(self.geometry.pack(coord) & self._row_mask, times)

    def refresh(self) -> None:
        """Close the refresh window, one past the total closed so far, and open
        a new one: clear activation counts and latches."""
        self._close_windows(self.stats.refresh_windows + 1)

    def replay(self, pas: np.ndarray, data: np.ndarray) -> None:
        """The accesses of a trace's int64 arrays, as ``access`` makes them one
        by one: to ``pas[i]``, writing byte ``data[i]`` or, at -1, reading.
        Every entry is checked before the state changes: arrays of different
        lengths or of a dtype that is not an integer one raise ``ValueError``,
        and the first entry with a byte outside -1..255 or a PA outside the
        space raises ``access``'s error, the byte's first. Then each
        ``REPLAY_CHUNK`` entries are translated in one numpy pass and counted
        at once."""
        geo = self.geometry
        if len(pas) != len(data):
            raise ValueError(f"pas and data differ in length: {len(pas)} and {len(data)}")
        for name, array in (("pas", pas), ("data", data)):
            if array.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer array, got dtype {array.dtype}")
        # total_bytes may be 2^63, one past int64; its predecessor is not
        bad = np.flatnonzero((pas < 0) | (pas > geo.total_bytes - 1) | (data < -1) | (data > 255))
        if len(bad):
            pa, byte = int(pas[bad[0]]), int(data[bad[0]])
            check_access(pa, "read" if byte == -1 else "write", byte)
            geo.check_pa(pa)
        tables = [np.array(table, dtype=np.int64) for table in self.mapping._forward_tables]
        for lo in range(0, len(pas), REPLAY_CHUNK):
            chunk = pas[lo : lo + REPLAY_CHUNK]
            self._access_chunk(gf2.image_array(tables, chunk), chunk, data[lo : lo + REPLAY_CHUNK])

    # -- side-effect-free inspection ----------------------------------------

    def read_byte(self, pa: int) -> int:
        self.geometry.check_pa(pa)
        return self.contents.get(pa, self.fill)

    def write_byte(self, pa: int, value: int) -> None:
        self.geometry.check_pa(pa)
        check_int("value", value, 0, 256)
        self.contents[pa] = value

    def collect_flips(self) -> list[BitflipRecord]:
        return list(self.flips)

    # -- internals -----------------------------------------------------------

    def _access_chunk(self, vecs: np.ndarray, pas: np.ndarray, data: np.ndarray) -> None:
        """The checked accesses to int64 ``pas`` (packed vectors ``vecs``), each
        writing its ``data`` byte or, at -1, reading, as ``access`` makes them
        one by one, in numpy passes. When a row can pass ``hc_first``, one
        ``lexsort`` by (window, row) ranks each miss in its window; each run of
        activations past it (one row, one window, no write between) is one
        ``_maybe_flip`` call, in trace order, after the writes up to its first
        entry, with windows closed up to the chunk's first total plus the run's
        window. The other writes land at once; then windows close up to that
        total plus the chunk's crossings."""
        keys = vecs & self._row_mask
        miss = self._open_rows(keys)
        missed = keys[miss]  # row keys, in trace order
        self.stats.row_buffer_hits += len(vecs) - len(missed)
        rows, n = np.unique(missed, return_counts=True)
        before = np.array([self.act_count.get(row, 0) for row in rows.tolist()], dtype=np.int64)
        writes = np.flatnonzero(data >= 0)  # the chunk's writes, by position
        write_pas, write_bytes = pas[writes].tolist(), data[writes].tolist()
        start, base, stored = self._window, self.stats.refresh_windows, 0  # writes stored so far
        if (before + n > self.params.hc_first).any():
            m = len(missed)
            # a period past the chunk puts every miss in window 0, and need not fit int64
            windows = (start + np.arange(m)) // min(self.refresh_every, start + m)
            ranked = np.lexsort((missed, windows))  # stable: trace order within a row
            firsts = _run_starts(windows[ranked], missed[ranked])
            counts = np.empty(m, dtype=np.int64)  # each miss's row count in its window
            counts[ranked] = np.arange(1, m + 1) - np.repeat(firsts, np.diff(firsts, append=m))
            counts += np.where(windows == 0, before[np.searchsorted(rows, missed)], 0)
            hot = np.flatnonzero(counts > self.params.hc_first)
            upto = np.searchsorted(writes, np.flatnonzero(miss)[hot], side="right")  # writes so far
            runs = _run_starts(missed[hot], windows[hot], upto)
            lengths = np.diff(runs, append=len(hot))
            lasts = hot[runs + lengths - 1]
            hot_runs = zip(missed[lasts].tolist(), counts[lasts].tolist(), lengths.tolist(),
                           windows[hot[runs]].tolist(), upto[runs].tolist())
            for key, count, length, window, written in hot_runs:
                self.contents.update(zip(write_pas[stored:written], write_bytes[stored:written]))
                stored = written  # the writes up to the run
                self._close_windows(base + window)
                self._maybe_flip(key, count, length)
        self.contents.update(zip(write_pas[stored:], write_bytes[stored:]))
        crossings, left = divmod(start + len(missed), self.refresh_every)
        self._close_windows(base + crossings)
        if crossings:  # only the misses after the last refresh count in the new window
            rows, n = np.unique(missed[len(missed) - left :], return_counts=True)
            before = 0
        self.act_count.update(zip(rows.tolist(), (before + n).tolist()))
        self._window = left

    def _close_windows(self, total: int) -> None:
        """Close refresh windows until ``total`` have closed, clearing activation
        counts and latches, which no closed window passes on; a no-op once they have."""
        if total > self.stats.refresh_windows:
            self.act_count.clear()
            self._det_flipped.clear()
            self._window = 0
            self.stats.refresh_windows = total

    def _open_rows(self, keys: np.ndarray) -> np.ndarray:
        """Which of row keys ``keys``, in order, miss the row buffer, found with
        one stable sort by bank; each bank's misses are added to its
        activations, and its last key is left open. The bank keys are sorted
        in the narrowest unsigned dtype that holds them, which numpy sorts by
        radix up to 16 bits; a stable sort gives the same order in any dtype."""
        bank_of = keys & self._bank_mask
        order = np.argsort(bank_of.astype(np.min_scalar_type(self._bank_mask)), kind="stable")
        by_bank, banks = keys[order], bank_of[order]
        starts = _run_starts(banks)  # each bank's first key
        first_banks = banks[starts].tolist()
        previous = np.empty_like(by_bank)  # a hit equals its bank's previous key
        previous[1:] = by_bank[:-1]
        previous[starts] = [self.open_row.get(bank, -1) for bank in first_banks]
        sorted_miss = by_bank != previous
        miss = np.empty(len(keys), dtype=bool)
        miss[order] = sorted_miss
        misses = np.add.reduceat(sorted_miss, starts, dtype=np.int64).tolist()
        lasts = by_bank[np.append(starts[1:], len(keys)) - 1].tolist()  # each bank's last key
        per_bank = self.stats.bank_activations
        for bank, n, last in zip(first_banks, misses, lasts):
            per_bank[bank] = per_bank.get(bank, 0) + n
            self.open_row[bank] = last
        return miss

    def _activate(self, key: int, times: int) -> None:
        """``times`` back-to-back activations of row ``key``, the counting step
        of ``activate_row`` and ``access``, added to its bank's count. Each step
        up to a window end runs the flip check once and closes windows up to the
        new total; when ``refresh_every <= hc_first`` no window can flip, so the
        first step also takes every whole window left in the run."""
        bank = key & self._bank_mask
        per_bank = self.stats.bank_activations
        per_bank[bank] = per_bank.get(bank, 0) + times
        self.open_row[bank] = key
        while times:
            step = min(times, self.refresh_every - self._window)
            count = self.act_count.get(key, 0) + step
            self.act_count[key] = count
            self._maybe_flip(key, count, step)
            if self.refresh_every <= self.params.hc_first:  # no window of one row can flip
                step += (times - step) // self.refresh_every * self.refresh_every
            times -= step
            crossed, self._window = divmod(self._window + step, self.refresh_every)
            self._close_windows(self.stats.refresh_windows + crossed)

    def _maybe_flip(self, key: int, count: int, n: int = 1) -> None:
        """The flip chances of row ``key``'s last ``n`` activations, which took
        its count to ``count``; the one routine that draws or latches. Each one
        past ``hc_first`` draws for every neighbour, ascending; deterministic
        mode latches them in one pass. A neighbour's row key is its latch key,
        and with a drawn column set, the flip's vector."""
        if count <= self.params.hc_first:
            return
        row_offset, column_offset = self.geometry.coord_offsets[4:]
        aggressor, bank = key >> row_offset, key & self._bank_mask
        victims = [bank | row << row_offset
                   for row in self.geometry.neighbours(aggressor, self.params.blast_radius)]
        deterministic = self.params.deterministic_mode
        for _ in range(1 if deterministic else min(n, count - self.params.hc_first)):
            for victim in victims:
                if deterministic:
                    if victim not in self._det_flipped:
                        self._det_flipped.add(victim)
                        self._record_flip(victim, aggressor, bit=0)
                elif self.rng.random() < self.params.flip_probability:
                    column = self.rng.randrange(self.geometry.columns)
                    bit = self.rng.randrange(8)
                    self._record_flip(victim | column << column_offset, aggressor, bit)

    def _record_flip(self, vec: int, aggressor_row: int, bit: int) -> None:
        """Flip bit ``bit`` of the byte at packed vector ``vec``, unpacked once."""
        geo = self.geometry
        victim = geo.unpack(vec)
        # Confinement: same subarray, within blast radius (the bank tuple is
        # the aggressor's by construction).
        if abs(victim.row - aggressor_row) > self.params.blast_radius or (
            geo.subarray_of(victim.row) != geo.subarray_of(aggressor_row)
        ):
            raise InvariantError(
                f"flip in row {victim.row} is out of reach of aggressor row {aggressor_row}"
            )
        pa = gf2.image(self.mapping._inverse_tables, vec)
        flip = BitflipRecord(pa, victim, bit, aggressor_row, self.contents.get(pa, self.fill))
        self.contents[pa] = flip.new_value
        self.flips.append(flip)
