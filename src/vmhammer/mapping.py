"""DRAM address mappings as GF(2)-linear functions of physical-address bits.

A mapping assigns every DRAM coordinate bit (channel, rank, bankgroup, bank,
row, column, all LSB-first) an XOR of physical-address bits. Validation checks
that the stacked bit matrix is invertible, which is exactly the condition for
the mapping to be a bijection between physical addresses and coordinates; the
inverse matrix then gives the exact coordinate-to-address translation.

A coordinate is also one packed bit vector: the fields in COORD_KINDS order,
LSB-first, channel in the lowest bits and column in the highest. The columns
of the forward and inverse matrices are the images of single bits, and both
translations are XORs of per-byte lookups built from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from . import gf2

__all__ = [
    "COORD_KINDS",
    "MappingError",
    "InvariantError",
    "Geometry",
    "DramCoordinate",
    "AddressMapping",
    "ValidationReport",
    "validate",
    "parse_mapping",
    "load_mapping",
    "default_geometry",
    "builtin_mappings",
]

class MappingError(ValueError):
    """Malformed or non-invertible mapping definition."""


class InvariantError(Exception):
    """An internal consistency check failed: a bug, never bad input."""


def is_integer(value) -> bool:
    """True for an int; False for bool, str, float and the rest."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value, lo=None, hi=None, error=ValueError) -> None:
    """Raise ``error`` unless value is an int, not a bool, >= lo and, given hi, < hi."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if hi is not None:
        if not lo <= value < hi:
            raise error(f"{name} {value} outside [{lo}, {hi})")
    elif lo is not None and value < lo:
        raise error(f"{name} must be >= {lo}, got {value}")


def _log2(value: int) -> int:
    return value.bit_length() - 1


class DramCoordinate(NamedTuple):
    """One byte's place in DRAM, a tuple in COORD_KINDS order."""

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int

    @property
    def bank_tuple(self) -> tuple[int, int, int, int]:
        return self[:4]

    def to_dict(self, geometry: Geometry) -> dict:
        return dict(self._asdict(), subarray=geometry.subarray_of(self.row))


# Fixed coordinate order used for matrix rows and coordinate-vector packing;
# column comes last, so a row tuple is the low bits of a coordinate vector.
COORD_KINDS = DramCoordinate._fields


@dataclass(frozen=True)
class Geometry:
    """Power-of-two extents of one DRAM configuration.

    ``columns`` counts bytes per row per bank; ``rows_per_subarray`` splits the
    row space of every bank into equally sized subarrays.
    """

    channels: int
    ranks: int
    bankgroups: int
    banks: int
    rows: int
    columns: int
    rows_per_subarray: int

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            check_int(f"geometry.{name}", value, error=MappingError)
            if value < 1 or value & (value - 1):
                raise MappingError(
                    f"geometry.{name} must be a power-of-two count >= 1, got {value}"
                )
        if self.rows_per_subarray > self.rows:
            raise MappingError(
                f"geometry.rows_per_subarray ({self.rows_per_subarray}) "
                f"cannot exceed rows ({self.rows})"
            )
        if self.address_width > 63:
            raise MappingError(
                f"geometry spans {self.address_width} address bits, at most 63 are supported"
            )

    # cached_property writes the instance dict directly, so it coexists with
    # frozen; cached values take no part in equality or hashing
    @cached_property
    def total_bytes(self) -> int:
        return (
            self.channels
            * self.ranks
            * self.bankgroups
            * self.banks
            * self.rows
            * self.columns
        )

    @property
    def address_width(self) -> int:
        return _log2(self.total_bytes)

    @property
    def subarray_count(self) -> int:
        return self.rows // self.rows_per_subarray

    @property
    def bank_tuple_count(self) -> int:
        return self.channels * self.ranks * self.bankgroups * self.banks

    @property
    def pa_digits(self) -> int:
        """Hex digits needed to print any physical address."""
        return max(1, (self.address_width + 3) // 4)

    @cached_property
    def extents(self) -> tuple[int, ...]:
        """Extent of each coordinate, in COORD_KINDS order."""
        return (self.channels, self.ranks, self.bankgroups, self.banks, self.rows, self.columns)

    @cached_property
    def coord_offsets(self) -> tuple[int, ...]:
        """Bit offset of each coordinate in the packed vector, in COORD_KINDS order."""
        offsets = [0]
        for extent in self.extents[:-1]:
            offsets.append(offsets[-1] + _log2(extent))
        return tuple(offsets)

    def extent(self, kind: str) -> int:
        return self.extents[COORD_KINDS.index(kind)]

    def coord_width(self, kind: str) -> int:
        return _log2(self.extent(kind))

    def check_coord(self, coord: DramCoordinate) -> None:
        """Raise ValueError unless every field of coord is an integer inside
        its extent."""
        for kind, value, extent in zip(COORD_KINDS, coord, self.extents):
            check_int(kind, value, 0, extent)

    def check_pa(self, pa: int) -> None:
        """Raise ValueError unless pa is an integer inside the address space."""
        check_int("pa", pa)
        total = self.total_bytes
        if not 0 <= pa < total:
            raise ValueError(f"pa {hex(pa)} outside [0, {hex(total)})")

    def pack(self, coord: DramCoordinate) -> int:
        """Packed coordinate vector of an in-range coordinate."""
        vec = 0
        for value, offset in zip(coord, self.coord_offsets):
            vec |= value << offset
        return vec

    @cached_property
    def _fields(self) -> tuple[tuple[int, int], ...]:
        return tuple((offset, extent - 1) for offset, extent in zip(self.coord_offsets, self.extents))

    def unpack(self, vec: int) -> DramCoordinate:
        """The coordinate of a packed vector."""
        return DramCoordinate._make([(vec >> offset) & mask for offset, mask in self._fields])

    def subarray_of(self, row: int) -> int:
        return row // self.rows_per_subarray

    def neighbours(self, row: int, radius: int) -> list[int]:
        """Rows a hammered ``row`` can disturb, ascending: those within
        ``radius`` of it in its own subarray, excluding the row itself."""
        first = row - row % self.rows_per_subarray
        last = first + self.rows_per_subarray - 1
        return [v for v in range(max(row - radius, first), min(row + radius, last) + 1) if v != row]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Geometry":
        if not isinstance(data, Mapping):
            raise MappingError("geometry must be an object")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise MappingError(f"geometry is missing fields: {', '.join(missing)}")
        extra = [name for name in data if name not in names]
        if extra:
            raise MappingError(f"geometry has unknown fields: {', '.join(extra)}")
        return cls(**{name: data[name] for name in names})


def _normalize_function(
    kind: str, bits: Iterable[Iterable[int]], width: int, address_width: int
) -> tuple[tuple[int, ...], ...]:
    if not isinstance(bits, (list, tuple)):
        raise MappingError(f"functions.{kind} must be an array of XOR sets")
    out = []
    for pos, term in enumerate(bits):
        if not isinstance(term, (list, tuple)) or not all(is_integer(b) for b in term):
            raise MappingError(f"functions.{kind}[{pos}] must be an array of bit indices")
        indices = sorted({int(b) for b in term})
        if not indices:
            raise MappingError(f"functions.{kind}[{pos}] is an empty XOR set")
        if indices[0] < 0 or indices[-1] >= address_width:
            raise MappingError(
                f"functions.{kind}[{pos}] references bit {indices[-1] if indices[-1] >= address_width else indices[0]}, "
                f"outside the {address_width}-bit address"
            )
        out.append(tuple(indices))
    if len(out) != width:
        raise MappingError(
            f"functions.{kind} defines {len(out)} output bits, geometry needs {width}"
        )
    return tuple(out)


@dataclass(frozen=True)
class AddressMapping:
    """Geometry plus one XOR function per coordinate output bit.

    ``bit_functions`` is indexed like COORD_KINDS; each entry lists, LSB-first,
    the XOR set of physical-address bit indices producing that coordinate bit.
    """

    geometry: Geometry
    bit_functions: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def build(
        cls, geometry: Geometry, functions: Mapping[str, Iterable[Iterable[int]]]
    ) -> "AddressMapping":
        if not isinstance(functions, Mapping):
            raise MappingError("functions must be an object")
        unknown = [k for k in functions if k not in COORD_KINDS]
        if unknown:
            raise MappingError(f"functions has unknown coordinates: {', '.join(sorted(unknown))}")
        per_kind = []
        for kind in COORD_KINDS:
            width = geometry.coord_width(kind)
            if kind not in functions:
                if width:
                    raise MappingError(
                        f"functions.{kind} is required (extent {geometry.extent(kind)})"
                    )
                per_kind.append(())
                continue
            per_kind.append(
                _normalize_function(kind, functions[kind], width, geometry.address_width)
            )
        return cls(geometry, tuple(per_kind))

    def function(self, kind: str) -> tuple[tuple[int, ...], ...]:
        return self.bit_functions[COORD_KINDS.index(kind)]

    @cached_property
    def matrix_rows(self) -> tuple[int, ...]:
        """Forward matrix rows in COORD_KINDS order, LSB-first within a kind:
        each output bit's XOR set as a PA-bit mask."""
        return tuple(sum(1 << b for b in term) for fn in self.bit_functions for term in fn)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Forward matrix columns: the coordinate vector of each single-bit PA."""
        return _transpose(self.matrix_rows, self.geometry.address_width)

    @cached_property
    def inverse_columns(self) -> tuple[int, ...]:
        """Inverse matrix columns: the PA of each single-bit coordinate vector."""
        report = validate(self)
        if not report.valid:
            raise MappingError(f"mapping is not invertible: {report.error}")
        return _transpose(report.inverse_rows, self.geometry.address_width)

    @cached_property
    def _forward_tables(self) -> tuple[list[int], ...]:
        return gf2.image_tables(self.columns)

    @cached_property
    def _inverse_tables(self) -> tuple[list[int], ...]:
        return gf2.image_tables(self.inverse_columns)

    def pa_to_coord(self, pa: int) -> DramCoordinate:
        self.geometry.check_pa(pa)
        return self.geometry.unpack(gf2.image(self._forward_tables, pa))

    def coord_to_pa(self, coord: DramCoordinate) -> int:
        self.geometry.check_coord(coord)
        return gf2.image(self._inverse_tables, self.geometry.pack(coord))

    def to_dict(self) -> dict:
        functions = {}
        for kind, fn in zip(COORD_KINDS, self.bit_functions):
            if fn:
                functions[kind] = [list(term) for term in fn]
        return {"geometry": self.geometry.to_dict(), "functions": functions}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the invertibility check of a mapping."""

    address_width: int
    output_bits: int
    rank: int | None
    error: str | None
    witness: tuple[tuple[str, int], ...] | None
    inverse_rows: tuple[int, ...] | None

    @property
    def valid(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        out: dict = {
            "valid": self.valid,
            "address_width": self.address_width,
            "output_bits": self.output_bits,
            "rank": self.rank,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.witness is not None:
            out["witness"] = [{"coordinate": k, "bit": b} for k, b in self.witness]
        if self.inverse_rows is not None:
            out["inverse_rows"] = [f"0x{m:x}" for m in self.inverse_rows]
        return out


def _transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """The width columns of a matrix given by its rows, each a width-bit
    mask: bit i of column j is bit j of row i. Walks each row's set bits
    only; a row with a bit at or above width, or a negative one, is a bug
    and raises InvariantError."""
    columns = [0] * width
    for i, row in enumerate(rows):
        if row >> width:
            raise InvariantError(f"row {i} ({row:#x}) does not fit {width} bits")
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(columns)


def _bit_labels(mapping: AddressMapping) -> list[tuple[str, int]]:
    labels = []
    for kind in COORD_KINDS:
        for i in range(len(mapping.function(kind))):
            labels.append((kind, i))
    return labels


def validate(mapping: AddressMapping) -> ValidationReport:
    """Check invertibility; report rank and a dependency witness on failure.

    The width comparison runs before any rank computation: a mapping whose
    output bit count differs from the address width is rejected outright.
    The witness is the first output bit, in COORD_KINDS order, that is an XOR
    of earlier output bits, together with exactly those bits.
    """
    width = mapping.geometry.address_width
    rows = mapping.matrix_rows
    rank = inverse = witness = error = None
    if len(rows) != width:
        error = f"{len(rows)} output bits do not cover the {width}-bit address space"
    else:
        rank, inverse, dependency = gf2.analyze(list(rows), width)
        if inverse is None:  # then dependency is set: square and rank-deficient
            labels = _bit_labels(mapping)
            witness = tuple(labels[p] for p in range(width) if dependency >> p & 1)
            error = f"rank {rank} of {width}: output bits are linearly dependent"
    return ValidationReport(
        address_width=width,
        output_bits=len(rows),
        rank=rank,
        error=error,
        witness=witness,
        inverse_rows=None if inverse is None else tuple(inverse),
    )


def parse_mapping(text: str) -> AddressMapping:
    """Parse a JSON mapping definition (geometry + functions)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MappingError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise MappingError("JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise MappingError("top level must be an object")
    if "geometry" not in data:
        raise MappingError("missing top-level field: geometry")
    if "functions" not in data:
        raise MappingError("missing top-level field: functions")
    geometry = Geometry.from_dict(data["geometry"])
    return AddressMapping.build(geometry, data["functions"])


def load_mapping(path: str) -> AddressMapping:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mapping(fh.read())


def default_geometry() -> Geometry:
    """4 GiB single-channel DDR4-style shape.

    1 channel, 1 rank, 4 bank groups, 2 banks, 65536 rows of 8 KiB,
    512-row subarrays (128 subarrays per bank).
    """
    return Geometry(
        channels=1,
        ranks=1,
        bankgroups=4,
        banks=2,
        rows=65536,
        columns=8192,
        rows_per_subarray=512,
    )


def builtin_mappings(geometry: Geometry | None = None) -> dict[str, AddressMapping]:
    """The three built-in mapping presets.

    All presets share f_column = pa bits 12..0 and f_bankgroup = pa bits 14..13
    and differ in how bank and row are derived:

      simple                  bank = pa31, row = pa30..15
      bank-xor                bank = pa31 ^ pa6, row = pa30..15
      bank-xor-noncontig-row  bank = pa21 ^ pa6, row = pa31..22,20..15

    Only defined for geometries with the default bit widths (13 column bits,
    2 bankgroup bits, 1 bank bit, 16 row bits, no channel or rank bits).
    """
    geometry = geometry if geometry is not None else default_geometry()
    widths = {kind: geometry.coord_width(kind) for kind in COORD_KINDS}
    needed = {"channel": 0, "rank": 0, "bankgroup": 2, "bank": 1, "row": 16, "column": 13}
    if widths != needed:
        raise MappingError(
            "presets require a geometry with bit widths "
            f"{needed}, got {widths}"
        )
    column = [[b] for b in range(13)]
    bankgroup = [[13], [14]]
    contiguous_row = [[b] for b in range(15, 31)]
    noncontig_row = [[b] for b in range(15, 21)] + [[b] for b in range(22, 32)]
    return {
        "simple": AddressMapping.build(
            geometry,
            {"column": column, "bankgroup": bankgroup, "bank": [[31]], "row": contiguous_row},
        ),
        "bank-xor": AddressMapping.build(
            geometry,
            {"column": column, "bankgroup": bankgroup, "bank": [[31, 6]], "row": contiguous_row},
        ),
        "bank-xor-noncontig-row": AddressMapping.build(
            geometry,
            {"column": column, "bankgroup": bankgroup, "bank": [[21, 6]], "row": noncontig_row},
        ),
    }
