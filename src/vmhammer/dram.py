"""Open-page DRAM state with activation counting and threshold bitflips.

The model tracks, per bank tuple (channel, rank, bankgroup, bank), the open
row and per-row activation counts within the current refresh window. The
state closes its window itself every ``refresh_every`` activations. Rows
activated more than ``hc_first`` times in one window probabilistically flip
bits in neighbouring rows of the same subarray; ``deterministic_mode`` turns
the first such opportunity into a certain flip for reproducible tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .mapping import AddressMapping, DramCoordinate, Geometry, is_integer

__all__ = [
    "InvariantError",
    "HammerParams",
    "Stats",
    "BitflipRecord",
    "AccessOutcome",
    "SimState",
]

BankTuple = tuple[int, int, int, int]

REFRESH_EVERY = 100_000  # default activations per refresh window


class InvariantError(Exception):
    """An internal consistency check failed: a bug, never bad input."""


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
        for name in ("hc_first", "blast_radius", "rng_seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        prob = self.flip_probability
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise ValueError(f"flip_probability must be a number, got {prob!r}")
        if not isinstance(self.deterministic_mode, bool):
            raise ValueError(
                f"deterministic_mode must be true or false, got {self.deterministic_mode!r}"
            )
        if self.hc_first < 1:
            raise ValueError(f"hc_first must be >= 1, got {self.hc_first}")
        if not 0.0 < self.flip_probability <= 1.0:
            raise ValueError(
                f"flip_probability must be in (0, 1], got {self.flip_probability}"
            )
        if self.blast_radius < 1:
            raise ValueError(f"blast_radius must be >= 1, got {self.blast_radius}")


@dataclass
class Stats:
    """Access accounting. accesses == row_buffer_hits + activations holds
    throughout: every miss (and every explicit row activation) activates."""

    accesses: int = 0
    row_buffer_hits: int = 0
    activations: int = 0
    precharges: int = 0
    refresh_windows: int = 0
    per_bank_activations: dict[BankTuple, int] = field(default_factory=dict)

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
    """One induced bitflip. new_value == old_value ^ (1 << bit_index)."""

    pa: int
    coord: DramCoordinate
    bit_index: int
    aggressor_row: int
    old_value: int
    new_value: int

    def to_dict(self, geometry: Geometry, pa_digits: int) -> dict:
        return {
            "pa": f"0x{self.pa:0{pa_digits}x}",
            "coord": self.coord.to_dict(geometry),
            "bit_index": self.bit_index,
            "aggressor_row": self.aggressor_row,
            "old_value": self.old_value,
            "new_value": self.new_value,
        }


@dataclass(frozen=True)
class AccessOutcome:
    hit: bool
    value: int | None


class SimState:
    """Mutable DRAM state bound to one validated address mapping.

    The mapping is fixed at construction because flip records carry both the
    victim coordinate and its physical address, which requires the inverse
    translation during activation. Every ``refresh_every`` activations since
    the window opened, the state calls its own ``refresh``. A byte never
    written or flipped reads ``fill``, the pattern memory was filled with.
    """

    def __init__(
        self,
        mapping: AddressMapping,
        params: HammerParams,
        refresh_every: int = REFRESH_EVERY,
        fill: int = 0,
    ) -> None:
        if not is_integer(refresh_every) or refresh_every < 1:
            raise ValueError(f"refresh_every must be an integer >= 1, got {refresh_every!r}")
        if not is_integer(fill) or not 0 <= fill <= 0xFF:
            raise ValueError(f"fill must be an integer in 0..255, got {fill!r}")
        self.mapping = mapping
        self.geometry: Geometry = mapping.geometry
        self.params = params
        self.refresh_every = refresh_every
        self.fill = fill
        self._window = 0  # activations since the refresh window opened
        self.open_row: dict[BankTuple, int] = {}
        self.act_count: dict[tuple[BankTuple, int], int] = {}
        self.contents: dict[int, int] = {}  # sparse; unwritten bytes read fill
        self.flips: list[BitflipRecord] = []
        self.stats = Stats()
        self.rng = random.Random(params.rng_seed)
        self._det_flipped: set[tuple[BankTuple, int]] = set()  # per-window latch
        mapping.inverse_columns  # fail fast on non-invertible mappings

    # -- memory access path -------------------------------------------------

    def access(self, pa: int, kind: str = "read", data: int | None = None) -> AccessOutcome:
        """One memory access under the open-page policy."""
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        if kind == "write" and (data is None or not 0 <= data <= 0xFF):
            raise ValueError(f"write needs a byte value, got {data!r}")
        coord = self.mapping.pa_to_coord(pa)
        bt = coord.bank_tuple
        self.stats.accesses += 1
        hit = self.open_row.get(bt) == coord.row
        if hit:
            self.stats.row_buffer_hits += 1
        else:
            if bt in self.open_row:
                self.stats.precharges += 1
            self._activate(coord)
        if kind == "write":
            self.contents[pa] = data
            return AccessOutcome(hit=hit, value=None)
        return AccessOutcome(hit=hit, value=self.contents.get(pa, self.fill))

    def activate_row(self, coord: DramCoordinate, times: int = 1) -> None:
        """``times`` unconditional activations of one row, the hammer primitive.

        Models a flush+access loop that defeats the row buffer: each counts as
        an access that always misses, re-opening the row even if already open.
        """
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.geometry.check_coord(coord)
        bt = coord.bank_tuple
        for _ in range(times):
            self.stats.accesses += 1
            if bt in self.open_row:
                self.stats.precharges += 1
            self._activate(coord)

    def refresh(self) -> None:
        """Close the refresh window and open a new one: clear activation
        counts and latches."""
        self.act_count.clear()
        self._det_flipped.clear()
        self._window = 0
        self.stats.refresh_windows += 1

    # -- side-effect-free inspection ----------------------------------------

    def read_byte(self, pa: int) -> int:
        self._check_pa(pa)
        return self.contents.get(pa, self.fill)

    def write_byte(self, pa: int, value: int) -> None:
        self._check_pa(pa)
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte value out of range: {value!r}")
        self.contents[pa] = value

    def collect_flips(self) -> list[BitflipRecord]:
        return list(self.flips)

    # -- internals -----------------------------------------------------------

    def _check_pa(self, pa: int) -> None:
        total = self.geometry.total_bytes
        if not 0 <= pa < total:
            raise ValueError(f"pa 0x{pa:x} outside [0, 0x{total:x})")

    def _activate(self, coord: DramCoordinate) -> None:
        bt = coord.bank_tuple
        self.open_row[bt] = coord.row
        self.stats.activations += 1
        self.stats.per_bank_activations[bt] = self.stats.per_bank_activations.get(bt, 0) + 1
        key = (bt, coord.row)
        count = self.act_count.get(key, 0) + 1
        self.act_count[key] = count
        self._maybe_flip(coord, count)
        self._window += 1
        if self._window == self.refresh_every:
            self.refresh()

    def _maybe_flip(self, coord: DramCoordinate, count: int) -> None:
        if count <= self.params.hc_first:
            return
        bt = coord.bank_tuple
        for victim in self.geometry.neighbours(coord.row, self.params.blast_radius):
            if self.params.deterministic_mode:
                if (bt, victim) in self._det_flipped:
                    continue
                self._det_flipped.add((bt, victim))
                self._record_flip(coord, victim, column=0, bit=0)
            elif self.rng.random() < self.params.flip_probability:
                column = self.rng.randrange(self.geometry.columns)
                bit = self.rng.randrange(8)
                self._record_flip(coord, victim, column=column, bit=bit)

    def _record_flip(self, aggressor: DramCoordinate, victim_row: int, column: int, bit: int) -> None:
        geo = self.geometry
        victim = DramCoordinate(
            aggressor.channel,
            aggressor.rank,
            aggressor.bankgroup,
            aggressor.bank,
            victim_row,
            column,
        )
        # Confinement: same subarray, within blast radius (the bank tuple is
        # the aggressor's by construction).
        if abs(victim_row - aggressor.row) > self.params.blast_radius or (
            geo.subarray_of(victim_row) != geo.subarray_of(aggressor.row)
        ):
            raise InvariantError(
                f"flip in row {victim_row} is out of reach of aggressor row {aggressor.row}"
            )
        pa = self.mapping.coord_to_pa(victim)
        old = self.contents.get(pa, self.fill)
        new = old ^ (1 << bit)
        self.contents[pa] = new
        self.flips.append(
            BitflipRecord(
                pa=pa,
                coord=victim,
                bit_index=bit,
                aggressor_row=aggressor.row,
                old_value=old,
                new_value=new,
            )
        )
