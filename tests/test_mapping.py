"""Address mapping structure, translation, and validation checks.

Expected coordinates were frozen from the bit-by-bit oracle in oracles.py;
the exhaustive and property tests then hold the fast paths to the same
answers.
"""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmhammer import (
    AddressMapping,
    DramCoordinate,
    Geometry,
    MappingError,
    builtin_mappings,
    default_geometry,
    load_mapping,
    parse_mapping,
    validate,
)
from vmhammer import gf2
from vmhammer.mapping import InvariantError, _transpose, check_int
from vmhammer.layout import group_stride, row_chunk_stride

from oracles import (
    all_coords,
    brute_coord,
    brute_transpose,
    brute_valid,
    pack_coords,
    random_geometry,
    random_invertible_mapping,
    random_mapping,
    random_row_high_mapping,
    random_split_mapping,
    tiny_noncontig,
)


# -- geometry -------------------------------------------------------------------


def test_default_geometry_shape(geometry):
    assert geometry.total_bytes == 4 << 30
    assert geometry.address_width == 32
    assert geometry.bank_tuple_count == 8
    assert geometry.subarray_count == 128
    assert geometry.coord_width("column") == 13
    assert geometry.coord_width("row") == 16
    assert geometry.coord_width("bank") == 1
    assert geometry.coord_width("bankgroup") == 2
    assert geometry.coord_width("channel") == 0
    assert geometry.coord_width("rank") == 0
    assert geometry.subarray_of(511) == 0
    assert geometry.subarray_of(512) == 1


def test_geometry_rejects_bad_fields():
    good = default_geometry().to_dict()
    with pytest.raises(MappingError):
        Geometry.from_dict({**good, "rows": 3})  # not a power of two
    with pytest.raises(MappingError):
        Geometry.from_dict({**good, "rows": 0})
    with pytest.raises(MappingError):
        Geometry.from_dict({**good, "rows_per_subarray": good["rows"] * 2})
    with pytest.raises(MappingError):
        Geometry.from_dict({k: v for k, v in good.items() if k != "banks"})
    with pytest.raises(MappingError):
        Geometry.from_dict({**good, "bogus": 1})
    with pytest.raises(MappingError):  # 64 address bits do not fit an int64
        Geometry.from_dict({**good, "channels": 1 << 32})


def test_geometry_field_errors_keep_their_wording_and_order():
    """Missing fields are named in Geometry's field order, unknown ones in the
    order given, and the first bad field in field order is the one refused."""
    good = default_geometry().to_dict()
    assert list(good) == [
        "channels", "ranks", "bankgroups", "banks", "rows", "columns", "rows_per_subarray",
    ]
    reversed_without = {k: good[k] for k in reversed(good) if k not in ("ranks", "rows_per_subarray")}
    with pytest.raises(MappingError, match=r"^geometry is missing fields: ranks, rows_per_subarray$"):
        Geometry.from_dict(reversed_without)
    with pytest.raises(MappingError, match=r"^geometry has unknown fields: zeta, alpha$"):
        Geometry.from_dict({**good, "zeta": 1, "alpha": 2})
    with pytest.raises(MappingError, match=r"^geometry\.banks must be a power-of-two count >= 1, got 0$"):
        Geometry.from_dict({**good, "rows": 3, "banks": 0})
    with pytest.raises(MappingError, match=r"^geometry\.ranks must be an integer, got '1'$"):
        Geometry(**{**good, "ranks": "1", "columns": 3})


def test_geometry_dict_roundtrip(geometry):
    assert Geometry.from_dict(geometry.to_dict()) == geometry


def test_geometry_dict_holds_only_its_fields():
    geometry = default_geometry()
    assert geometry.total_bytes and geometry.coord_offsets and geometry._fields  # now cached
    assert set(vars(geometry)) > {"total_bytes", "coord_offsets", "_fields"}
    assert geometry.to_dict() == {
        "channels": geometry.channels,
        "ranks": geometry.ranks,
        "bankgroups": geometry.bankgroups,
        "banks": geometry.banks,
        "rows": geometry.rows,
        "columns": geometry.columns,
        "rows_per_subarray": geometry.rows_per_subarray,
    }
    assert list(geometry.to_dict()) == [f.name for f in dataclasses.fields(Geometry)]


def test_neighbours_stop_at_the_subarray(geometry):
    per = geometry.rows_per_subarray
    first = 3 * per
    for row in (first, first + per // 2, first + per - 1):
        reach = geometry.neighbours(row, per - 1)
        assert reach == [v for v in range(first, first + per) if v != row]
        assert geometry.neighbours(row, 2**70) == reach
    assert geometry.neighbours(first + 5, 2) == [first + 3, first + 4, first + 6, first + 7]
    single = Geometry.from_dict({**geometry.to_dict(), "rows_per_subarray": 1})
    for row in (0, 7, single.rows - 1):
        assert single.neighbours(row, 1) == single.neighbours(row, 2**70) == []


# -- preset structure and frozen translations ------------------------------------


def test_preset_bit_functions(presets):
    column = tuple((b,) for b in range(13))
    bankgroup = ((13,), (14,))
    assert presets["simple"].function("column") == column
    assert presets["simple"].function("bankgroup") == bankgroup
    assert presets["simple"].function("bank") == ((31,),)
    assert presets["simple"].function("row") == tuple((b,) for b in range(15, 31))
    assert presets["bank-xor"].function("bank") == ((6, 31),)
    assert presets["bank-xor"].function("row") == presets["simple"].function("row")
    assert presets["bank-xor-noncontig-row"].function("bank") == ((6, 21),)
    assert presets["bank-xor-noncontig-row"].function("row") == tuple(
        (b,) for b in (*range(15, 21), *range(22, 32))
    )


FROZEN_COORDS = {
    # mapping name -> pa -> (channel, rank, bankgroup, bank, row, column)
    "simple": {
        0x80000000: (0, 0, 0, 1, 0, 0),
        0x00012345: (0, 0, 1, 0, 2, 837),
        0x0DEADBEE: (0, 0, 2, 0, 7125, 7150),
        0x80A5C3F7: (0, 0, 2, 1, 331, 1015),
    },
    "bank-xor": {
        0x80000040: (0, 0, 0, 0, 0, 64),
        0x00012345: (0, 0, 1, 1, 2, 837),
        0x0DEADBEE: (0, 0, 2, 1, 7125, 7150),
        0x80A5C3F7: (0, 0, 2, 0, 331, 1015),
    },
    "bank-xor-noncontig-row": {
        0x00200000: (0, 0, 0, 1, 0, 0),
        0x00012345: (0, 0, 1, 1, 2, 837),
        0x0DEADBEE: (0, 0, 2, 0, 3541, 7150),
        0x80A5C3F7: (0, 0, 2, 0, 32907, 1015),
    },
}


def test_frozen_translations(presets):
    for name, cases in FROZEN_COORDS.items():
        mapping = presets[name]
        for pa, parts in cases.items():
            coord = mapping.pa_to_coord(pa)
            assert (
                coord.channel,
                coord.rank,
                coord.bankgroup,
                coord.bank,
                coord.row,
                coord.column,
            ) == parts, f"{name} 0x{pa:08x}"
            assert mapping.coord_to_pa(coord) == pa


def test_noncontig_inverse_example(presets):
    mapping = presets["bank-xor-noncontig-row"]
    coord = DramCoordinate(0, 0, 0, 1, 0, 0)
    assert mapping.coord_to_pa(coord) == 0x00200000


def test_translation_rejects_out_of_range(presets):
    mapping = presets["simple"]
    with pytest.raises(ValueError, match=r"^pa 0x100000000 outside \[0, 0x100000000\)$"):
        mapping.pa_to_coord(1 << 32)
    with pytest.raises(ValueError, match=r"^pa -0x1 outside \[0, 0x100000000\)$"):
        mapping.pa_to_coord(-1)
    with pytest.raises(ValueError):
        mapping.coord_to_pa(DramCoordinate(0, 0, 0, 2, 0, 0))


def test_check_int_message_forms():
    check_int("n", 5)
    check_int("n", 5, 5)
    check_int("n", 0, 0, 1)
    for value in (1.0, True, "1", None):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {value!r}$"):
            check_int("n", value, 0, 2)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        check_int("n", 0, 1)
    for value in (-1, 256):
        with pytest.raises(ValueError, match=rf"^n {value} outside \[0, 256\)$"):
            check_int("n", value, 0, 256)
    with pytest.raises(MappingError, match=r"^geometry.rows must be an integer, got 4.0$"):
        Geometry.from_dict({**default_geometry().to_dict(), "rows": 4.0})


# -- structural validation of mapping definitions ---------------------------------


def test_build_rejects_structural_errors(geometry):
    funcs = builtin_mappings()["simple"].to_dict()["functions"]
    bad = {**funcs, "bank": [[32]]}
    with pytest.raises(MappingError):
        AddressMapping.build(geometry, bad)
    with pytest.raises(MappingError):
        AddressMapping.build(geometry, {**funcs, "bank": [[]]})
    with pytest.raises(MappingError):
        AddressMapping.build(geometry, {**funcs, "bank": []})  # wrong arity
    with pytest.raises(MappingError, match="functions.bank must be an array of XOR sets"):
        AddressMapping.build(geometry, {**funcs, "bank": 6})
    with pytest.raises(MappingError):
        AddressMapping.build(geometry, {**funcs, "wat": [[0]]})
    without_row = {k: v for k, v in funcs.items() if k != "row"}
    with pytest.raises(MappingError):
        AddressMapping.build(geometry, without_row)


def test_build_normalizes_terms(geometry):
    # each output bit is a set of PA bits; repeats and ordering are cosmetic
    funcs = builtin_mappings()["simple"].to_dict()["functions"]
    mapping = AddressMapping.build(geometry, {**funcs, "bank": [[31, 6, 6]]})
    assert mapping.function("bank") == ((6, 31),)


def test_parse_mapping_reports_json_position():
    with pytest.raises(MappingError) as err:
        parse_mapping("{\n  broken\n}")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "top level must be an object"),
        ('{"functions": {}}', "missing top-level field: geometry"),
        ('{"geometry": {}}', "missing top-level field: functions"),
        (
            '{"geometry": {"channels": 1, "ranks": 1, "bankgroups": 1, "banks": 1, "rows": 2,'
            ' "columns": 2, "rows_per_subarray": 2}, "functions": []}',
            "functions must be an object",
        ),
    ],
)
def test_parse_mapping_rejects_bad_structure(text, message):
    with pytest.raises(MappingError, match=f"^{message}$"):
        parse_mapping(text)


def test_parse_mapping_roundtrip(presets, tmp_path):
    mapping = presets["bank-xor"]
    text = json.dumps(mapping.to_dict())
    assert parse_mapping(text) == mapping
    path = tmp_path / "m.json"
    path.write_text(text)
    assert load_mapping(str(path)) == mapping


# -- invertibility validation ------------------------------------------------------


def test_presets_validate(presets):
    for name, mapping in presets.items():
        report = validate(mapping)
        assert report.valid, name
        assert report.rank == 32
        assert report.address_width == 32
        assert report.error is None and report.witness is None
        assert len(report.inverse_rows) == 32


def test_duplicated_bit_rejected_with_witness(presets):
    funcs = presets["simple"].to_dict()["functions"]
    clash = AddressMapping.build(
        default_geometry(), {**funcs, "row": [[31], *funcs["row"][1:]]}
    )
    report = validate(clash)
    assert not report.valid
    assert report.rank == 31
    assert report.witness == (("bank", 0), ("row", 0))
    # the witness rows really do cancel
    acc = 0
    for kind, bit in report.witness:
        mask = 0
        for b in clash.function(kind)[bit]:
            mask |= 1 << b
        acc ^= mask
    assert acc == 0


def test_witness_is_the_first_dependent_bit(presets):
    # column 0 repeats bank 0 (PA 0) and column 1 repeats bankgroup 1 (PA 1);
    # column 0 is the first bit, in COORD_KINDS order, that earlier bits give
    funcs = presets["simple"].to_dict()["functions"]
    clash = AddressMapping.build(
        default_geometry(), {**funcs, "bank": [[0]], "bankgroup": [[13], [1]]}
    )
    report = validate(clash)
    assert not report.valid
    assert report.rank == 30
    assert report.witness == (("bank", 0), ("column", 0))


def test_validation_report_dict(presets):
    data = validate(presets["simple"]).to_dict()
    assert data["valid"] is True
    assert data["rank"] == 32
    assert len(data["inverse_rows"]) == 32
    assert all(r.startswith("0x") for r in data["inverse_rows"])
    # only a directly constructed mapping can miss output bits
    simple = presets["simple"]
    short = AddressMapping(simple.geometry, simple.bit_functions[:4] + ((), ()))
    assert validate(short).to_dict() == {
        "valid": False,
        "address_width": 32,
        "output_bits": 3,
        "rank": None,
        "error": "3 output bits do not cover the 32-bit address space",
    }


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_transpose_matches_the_bit_by_bit_oracle(data):
    width = data.draw(st.integers(min_value=1, max_value=63))
    row = st.one_of(
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.sets(st.integers(0, width - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits)),
    )
    rows = tuple(data.draw(st.lists(row, max_size=width + 4)))
    columns = _transpose(rows, width)
    assert columns == brute_transpose(rows, width)
    assert _transpose(columns, len(rows)) == rows


def test_transpose_rejects_a_row_wider_than_width():
    assert _transpose((0b101, 0b010), 3) == (0b01, 0b10, 0b01)
    for row in (1 << 3, 0b1111, 1 << 70, -1):
        with pytest.raises(InvariantError, match="row 1 .* does not fit 3 bits"):
            _transpose((0b001, row), 3)


def test_tiny_noncontig_exhaustive():
    mapping = tiny_noncontig()
    report = validate(mapping)
    assert report.valid and report.rank == 10
    total = mapping.geometry.total_bytes
    seen = set()
    for pa in range(total):
        coord = mapping.pa_to_coord(pa)
        parts = (
            coord.channel,
            coord.rank,
            coord.bankgroup,
            coord.bank,
            coord.row,
            coord.column,
        )
        assert parts == brute_coord(mapping, pa)
        assert mapping.coord_to_pa(coord) == pa
        seen.add(parts)
    assert len(seen) == total


@settings(max_examples=2000, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_preset_roundtrip_property(pa):
    for mapping in builtin_mappings().values():
        coord = mapping.pa_to_coord(pa)
        assert mapping.coord_to_pa(coord) == pa


@settings(max_examples=500, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_translation_is_linear(pa_a, pa_b):
    # coordinate bits are xors of PA bits, so translation distributes over xor
    for mapping in builtin_mappings().values():
        a = mapping.pa_to_coord(pa_a)
        b = mapping.pa_to_coord(pa_b)
        x = mapping.pa_to_coord(pa_a ^ pa_b)
        assert x.bankgroup == a.bankgroup ^ b.bankgroup
        assert x.bank == a.bank ^ b.bank
        assert x.row == a.row ^ b.row
        assert x.column == a.column ^ b.column


def test_validate_matches_brute_force_on_random_mappings():
    rng = random.Random(0xC0FFEE)
    for trial in range(40):
        geometry = random_geometry(rng, max_total=1 << 13)
        mapping = (
            random_invertible_mapping(rng, geometry)
            if trial % 2
            else random_mapping(rng, geometry)
        )
        report = validate(mapping)
        assert report.valid == brute_valid(mapping), mapping.to_dict()
        if report.valid:
            # spot-check the inverse on a few addresses
            for pa in rng.sample(range(geometry.total_bytes), 16):
                assert mapping.coord_to_pa(mapping.pa_to_coord(pa)) == pa
        else:
            acc = 0
            for kind, bit in report.witness:
                mask = 0
                for b in mapping.function(kind)[bit]:
                    mask |= 1 << b
                acc ^= mask
            assert acc == 0 and report.witness


def test_exhaustive_translation_against_oracle():
    rng = random.Random(7)
    for _ in range(6):
        geometry = random_geometry(rng, max_total=1 << 12)
        mapping = random_invertible_mapping(rng, geometry)
        coords = all_coords(mapping)
        packed = pack_coords(geometry, coords)
        for pa in range(0, geometry.total_bytes, 97):
            coord = mapping.pa_to_coord(pa)
            assert tuple(coords[pa]) == (
                coord.channel,
                coord.rank,
                coord.bankgroup,
                coord.bank,
                coord.row,
                coord.column,
            )
            assert mapping.coord_to_pa(coord) == pa
        assert len(set(packed.tolist())) == geometry.total_bytes


def test_translation_wider_than_32_bits(geometry):
    wide = Geometry.from_dict({**geometry.to_dict(), "channels": 2})
    assert wide.address_width == 33
    rng = random.Random(33)
    mapping = random_invertible_mapping(rng, wide)
    for pa in [wide.total_bytes - 1, 1 << 32] + rng.sample(range(wide.total_bytes), 500):
        coord = mapping.pa_to_coord(pa)
        assert tuple(coord) == brute_coord(mapping, pa)
        assert mapping.coord_to_pa(coord) == pa


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_translation_matches_pa_to_coord(data):
    """The per-byte tables translate an int64 array of PAs, as trace replay
    does a chunk at a time, to the packed coordinates pa_to_coord gives: every
    PA of a space up to 4 KiB, else sampled PAs and both ends of a space up to
    63 bits; an empty array gives an empty one."""
    rng = random.Random(data.draw(st.integers(0, 1 << 16), label="mapping seed"))
    make = data.draw(
        st.sampled_from([random_invertible_mapping, random_split_mapping, random_row_high_mapping]),
        label="generator",
    )
    geometry = random_geometry(rng, max_total=1 << data.draw(st.integers(12, 63), label="bits"))
    mapping = make(rng, geometry)
    top = geometry.total_bytes - 1
    if top < 1 << 12:
        pas = list(range(top + 1))
    else:
        pas = data.draw(st.lists(st.integers(0, top), max_size=200), label="pas") + [0, top]
    vecs = gf2.image_array(mapping._forward_tables, np.array(pas, dtype=np.int64))
    assert vecs.dtype == np.int64
    assert vecs.tolist() == [geometry.pack(mapping.pa_to_coord(pa)) for pa in pas]
    empty = gf2.image_array(mapping._forward_tables, np.array([], dtype=np.int64))
    assert empty.dtype == np.int64 and empty.tolist() == []


# -- derived stride helpers --------------------------------------------------------


def test_stride_constants(presets):
    for mapping in presets.values():
        assert row_chunk_stride(mapping) == 32768
    assert group_stride(presets["simple"]) == 16 << 20
    assert group_stride(presets["bank-xor"]) == 16 << 20
    assert group_stride(presets["bank-xor-noncontig-row"]) == 32 << 20
