"""Attack scenarios, verdict reports, and trace replay.

run_attack wires the pieces together: plan a layout, hammer the selected
aggressors on a state whose unwritten bytes read the check pattern, then
classify each recorded bitflip by the owning region. The verdict is MITIGATED
exactly when no flip lands in victim-owned memory. The refresh window belongs
to SimState: both run_attack and replay_trace only pass its period through.
replay_trace hands a trace's two arrays to a fresh state (SimState.replay),
which checks, translates and counts them.

resolve_mapping is the one place a mapping spec (preset name, file path or
inline object) becomes an AddressMapping, for scenario files and the command
line alike; with_overrides is the one way to change a scenario's fields,
hammer parameters included.

render_json is the one renderer of a report's or a command's JSON text. It
writes json.dumps(indent=2, sort_keys=True)'s bytes itself, in about half
that call's time, since an indent sends json to its pure-Python encoder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .dram import REFRESH_EVERY, BitflipRecord, HammerParams, SimState, Stats, check_access
from .layout import (
    MITIGATIONS,
    AggressorSite,
    MemoryLayout,
    PlanError,
    SilozPlan,
    classify_pa,
    find_aggressors,
    plan_layout,
    row_footprint,
)
from .mapping import (
    AddressMapping,
    Geometry,
    MappingError,
    builtin_mappings,
    check_int,
    is_integer,
    load_mapping,
)

__all__ = [
    "MITIGATED",
    "NOT_MITIGATED",
    "MITIGATIONS",
    "ScenarioError",
    "TraceError",
    "Scenario",
    "AttackReport",
    "AccessTrace",
    "run_attack",
    "run_matrix",
    "replay_trace",
    "parse_trace",
    "format_trace",
    "sequential_trace",
    "strided_trace",
    "matvec_trace",
    "toggle_trace",
    "parse_size",
    "resolve_mapping",
    "with_overrides",
    "scenario_from_dict",
    "load_scenario",
    "load_matrix_scenarios",
    "builtin_matrix",
    "matrix_summary",
    "render_json",
]

MITIGATED = "MITIGATED"
NOT_MITIGATED = "NOT_MITIGATED"

RowTuple = tuple[int, int, int, int, int]


class ScenarioError(ValueError):
    """Ill-formed or unrunnable scenario."""


class TraceError(ValueError):
    """Malformed trace file."""


def parse_size(value) -> int:
    """Parse a byte count: int, decimal/hex string, or KiB/MiB/GiB suffix."""
    if isinstance(value, bool):
        raise ScenarioError(f"not a size: {value!r}")
    if isinstance(value, int):
        return value
    text = str(value).strip()
    try:
        for suffix, factor in (("KiB", 1 << 10), ("MiB", 1 << 20), ("GiB", 1 << 30)):
            if text.endswith(suffix):
                return int(text[: -len(suffix)]) * factor
        return int(text, 0)
    except ValueError:
        raise ScenarioError(f"not a size: {value!r}") from None


def _is_int_sequence(value) -> bool:
    return isinstance(value, (tuple, list)) and all(is_integer(v) for v in value)


@dataclass(frozen=True)
class Scenario:
    """One attack configuration against a two-sided VM layout."""

    mapping: AddressMapping
    hammer: HammerParams
    vm_sizes: tuple[int, ...]
    mitigation: str = "none"
    guard_global_rows: int = 1
    attacker_vm: str = "vm1"
    victim_vm: str = "vm0"
    hammer_count: int | None = None  # None means hc_first + 1000
    refresh_every: int = REFRESH_EVERY
    aggressor_selection: str | tuple[int, ...] = "all"
    check_pattern: int = 0xAA
    label: str = "inline"

    def __post_init__(self) -> None:
        if not isinstance(self.mapping, AddressMapping):
            raise ScenarioError(f"mapping must be an AddressMapping, got {self.mapping!r}")
        if not isinstance(self.hammer, HammerParams):
            raise ScenarioError(f"hammer must be a HammerParams, got {self.hammer!r}")
        for name in ("mitigation", "attacker_vm", "victim_vm", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ScenarioError(f"{name} must be a string, got {value!r}")
        check_int("guard_global_rows", self.guard_global_rows, 1, error=ScenarioError)
        check_int("refresh_every", self.refresh_every, 1, error=ScenarioError)
        check_int("check_pattern", self.check_pattern, 0, 256, error=ScenarioError)
        if self.hammer_count is not None:
            check_int("hammer_count", self.hammer_count, 1, error=ScenarioError)
        if not _is_int_sequence(self.vm_sizes):
            raise ScenarioError(f"vm_sizes must be a list of integers, got {self.vm_sizes!r}")
        if self.mitigation not in MITIGATIONS:
            raise ScenarioError(f"unknown mitigation {self.mitigation!r}")
        if not self.vm_sizes:
            raise ScenarioError("vm_sizes must name at least one VM")
        if self.attacker_vm == self.victim_vm:
            raise ScenarioError("attacker_vm and victim_vm must differ")
        owners = sorted(f"vm{i}" for i in range(len(self.vm_sizes)))
        for vm in (self.attacker_vm, self.victim_vm):
            if vm not in owners:
                raise ScenarioError(f"{vm!r} is not one of the planned VMs {owners}")
        selection = self.aggressor_selection
        if isinstance(selection, str):
            valid = selection in ("all", "first")
        else:
            valid = _is_int_sequence(selection)
        if not valid:
            raise ScenarioError(
                f"aggressor_selection must be 'all', 'first', or a row list, got {selection!r}"
            )
        if not selection:
            raise ScenarioError("explicit aggressor_selection must list rows")

    @property
    def effective_hammer_count(self) -> int:
        if self.hammer_count is not None:
            return self.hammer_count
        return self.hammer.hc_first + 1000

    def canonical_dict(self) -> dict:
        selection = self.aggressor_selection
        return {
            "mapping": self.mapping.to_dict(),
            "hammer": {
                f.name: getattr(self.hammer, f.name) for f in dataclasses.fields(self.hammer)
            },
            "mitigation": self.mitigation,
            "guard_global_rows": self.guard_global_rows,
            "vm_sizes": list(self.vm_sizes),
            "attacker_vm": self.attacker_vm,
            "victim_vm": self.victim_vm,
            "hammer_count": self.effective_hammer_count,
            "refresh_every": self.refresh_every,
            "aggressor_selection": list(selection) if not isinstance(selection, str) else selection,
            "check_pattern": self.check_pattern,
            "label": self.label,
        }

    def hash(self) -> str:
        return _digest(self.canonical_dict())


def _digest(canonical: dict) -> str:
    """sha256 of a scenario's canonical dict as compact JSON, keys sorted."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _reject_unknown(what: str, data: dict, known: set[str]) -> None:
    unknown = sorted(str(k) for k in data if k not in known)
    if unknown:
        raise ScenarioError(f"{what} has unknown fields: {', '.join(unknown)}")


def resolve_mapping(
    spec, base_dir: str | None = None, geometry: Geometry | None = None
) -> tuple[AddressMapping, str]:
    """The mapping a spec names, and the label a scenario takes from it.

    A spec is a preset name, built on ``geometry`` (default: the default
    geometry), an inline {"geometry", "functions"} object, or a mapping-file
    path, relative to ``base_dir`` (default: the working directory). The
    label is the preset name, the file's stem, or Scenario's default label.
    """
    if isinstance(spec, dict):
        if "geometry" not in spec or "functions" not in spec:
            raise ScenarioError("inline mapping needs geometry and functions")
        geometry = Geometry.from_dict(spec["geometry"])
        return AddressMapping.build(geometry, spec["functions"]), Scenario.label
    if not isinstance(spec, str):
        raise ScenarioError(f"mapping must be a name, path, or object, got {spec!r}")
    presets = builtin_mappings(geometry)
    if spec in presets:
        return presets[spec], spec
    path = os.path.join(base_dir or "", spec)
    if not os.path.exists(path):
        raise MappingError(
            f"{spec!r} is neither a preset ({', '.join(sorted(presets))}) nor a file"
        )
    return load_mapping(path), os.path.splitext(os.path.basename(path))[0]


def with_overrides(scenario: Scenario, **fields) -> Scenario:
    """A copy of scenario with the given Scenario fields replaced, ``hammer``
    included, then the given HammerParams fields replaced in its hammer. Any
    other name raises ScenarioError."""
    params = _field_names(HammerParams)
    _reject_unknown("overrides", fields, _field_names(Scenario) | params)
    hammer = {name: fields.pop(name) for name in params & fields.keys()}
    scenario = dataclasses.replace(scenario, **fields)
    return dataclasses.replace(scenario, hammer=dataclasses.replace(scenario.hammer, **hammer))


def scenario_from_dict(data: dict, base_dir: str | None = None) -> Scenario:
    """Build a Scenario from a parsed scenario file.

    The mapping may be a preset name, a mapping-file path (relative to the
    scenario file), or an inline geometry+functions object. A top-level
    geometry object applies to preset names only. Every other field is
    passed as is to Scenario and HammerParams, which own the defaults and
    the field checks; unknown fields are rejected.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be an object")
    if "mapping" not in data:
        raise ScenarioError("scenario is missing the mapping field")
    if "vm_sizes" not in data:
        raise ScenarioError("scenario is missing vm_sizes")
    _reject_unknown("scenario", data, _field_names(Scenario) | {"geometry"})
    hammer = data.get("hammer", {})
    if not isinstance(hammer, dict):
        raise ScenarioError("hammer must be an object")
    _reject_unknown("hammer", hammer, _field_names(HammerParams))
    if not isinstance(data["vm_sizes"], list):
        raise ScenarioError(f"vm_sizes must be a list of sizes, got {data['vm_sizes']!r}")
    spec, geometry = data["mapping"], None
    if "geometry" in data:
        if not isinstance(spec, str) or spec not in builtin_mappings():
            raise ScenarioError("a top-level geometry applies to preset names only")
        geometry = Geometry.from_dict(data["geometry"])
    mapping, label = resolve_mapping(spec, base_dir, geometry)
    rest = {k: v for k, v in data.items() if k not in ("mapping", "geometry", "hammer")}
    rest["vm_sizes"] = tuple(parse_size(s) for s in data["vm_sizes"])
    rest.setdefault("label", label)
    if isinstance(rest.get("aggressor_selection"), list):
        rest["aggressor_selection"] = tuple(rest["aggressor_selection"])
    try:
        params = HammerParams(**hammer)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return Scenario(mapping=mapping, hammer=params, **rest)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}"
            ) from None
        except RecursionError:
            raise ScenarioError(f"{path}: JSON is nested too deeply") from None


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(_read_json(path), os.path.dirname(os.path.abspath(path)))


# -- aggressor selection ------------------------------------------------------------


def _select_aggressors(
    sites: list[AggressorSite], selection: str | tuple[int, ...]
) -> list[AggressorSite]:
    if selection == "all":
        return sites
    if selection == "first":
        return sites[:1]
    wanted = set(selection)
    chosen = [s for s in sites if s.coord.row in wanted]
    if not chosen:
        raise ScenarioError(
            f"aggressor_selection rows {sorted(wanted)} are not candidate aggressors"
        )
    return chosen


# -- the attack itself -------------------------------------------------------------


@dataclass
class AttackReport:
    """What one attack did. flip_owners holds each flip's owning region, in
    flip order; the fallback flag, the histogram, the verdict and the seeded
    rows follow from the stored fields."""

    scenario: Scenario
    layout: MemoryLayout
    siloz: SilozPlan | None
    aggressors: tuple[AggressorSite, ...]
    flips: tuple[BitflipRecord, ...]
    flip_owners: tuple[str, ...]
    stats: Stats

    @property
    def boundary_fallback(self) -> bool:
        """Fallback sites carry no victim rows; discovered sites always do."""
        return not any(site.victim_rows for site in self.aggressors)

    @property
    def ownership_histogram(self) -> Counter[str]:
        return Counter(self.flip_owners)

    @property
    def verdict(self) -> str:
        return NOT_MITIGATED if self.scenario.victim_vm in self.flip_owners else MITIGATED

    @property
    def seeded_rows(self) -> tuple[RowTuple, ...]:
        """Rows a hammered aggressor can flip: same bank tuple and subarray,
        within the blast radius."""
        geo = self.scenario.mapping.geometry
        radius = self.scenario.hammer.blast_radius
        return tuple(
            sorted(
                {
                    site.coord.bank_tuple + (victim,)
                    for site in self.aggressors
                    for victim in geo.neighbours(site.coord.row, radius)
                }
            )
        )

    def to_dict(self) -> dict:
        from . import __version__

        geo = self.scenario.mapping.geometry
        digits = geo.pa_digits
        canonical = self.scenario.canonical_dict()
        out = {
            "tool": {"name": "vmhammer", "version": __version__},
            "scenario": canonical,
            "scenario_hash": _digest(canonical),
            "verdict": self.verdict,
            "layout": self.layout.to_dict(digits),
            "aggressors": [a.to_dict(geo, digits) for a in self.aggressors],
            "boundary_fallback": self.boundary_fallback,
            "seeded_rows": [list(rt) for rt in self.seeded_rows],
            "flips": [
                dict(f.to_dict(geo, digits), owner=owner)
                for f, owner in zip(self.flips, self.flip_owners)
            ],
            "ownership_histogram": dict(sorted(self.ownership_histogram.items())),
            "stats": self.stats.to_dict(),
        }
        if self.siloz is not None:
            out["siloz"] = self.siloz.to_dict(digits)
        return out


def render_json(data) -> str:
    """The JSON text of a report or a command's result, indented two spaces
    with keys sorted: byte for byte ``json.dumps(data, indent=2,
    sort_keys=True) + "\\n"``, which falls back to json's pure-Python
    encoder, as its C one takes no indent; this renders in about half the
    time. A value json refuses raises TypeError here too."""
    return _render(data, "\n") + "\n"


# the bases json tests a value against, in its order; a subclass renders as its base
_JSON_BASES = (str, int, float, list, tuple, dict)


def _render(value, pad: str, kind: type | None = None) -> str:
    """``value`` as JSON whose nested lines begin with ``pad``; ``kind`` is
    the base a subclass renders as."""
    kind = kind or type(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        # a str or int item, most of a report, is written in place, not by a call
        if kind is dict:
            items = [
                f"{_quote(k) if type(k) is str else _key(k)}: "
                f"{_quote(v) if (t := type(v)) is str else repr(v) if t is int else _render(v, inner)}"
                for k, v in sorted(value.items())
            ]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        items = [
            _quote(v) if (t := type(v)) is str else repr(v) if t is int else _render(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    for base in _JSON_BASES:
        if isinstance(value, base):
            return _render(value, pad, base)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as JSON: json writes a number, bool or None key as its text."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _render(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def run_attack(scenario: Scenario) -> AttackReport:
    """Plan, hammer, classify. Deterministic for equal scenarios.

    The aggressors are selected from the sites find_aggressors picks for the
    two footprints. With no mitigation, sites that carry no victim rows (no
    attacker row is adjacent) are refused rather than hammered.

    Every byte reads check_pattern until a flip changes it, so a flip's
    old_value is the pattern, or the byte as an earlier flip left it.
    """
    mapping = scenario.mapping
    layout, siloz_plan = plan_layout(
        mapping, scenario.mitigation, scenario.vm_sizes, scenario.guard_global_rows
    )
    attacker = row_footprint(mapping, layout.region_of(scenario.attacker_vm))
    victim = row_footprint(mapping, layout.region_of(scenario.victim_vm))
    sites = find_aggressors(mapping, attacker, victim, scenario.hammer.blast_radius)
    if scenario.mitigation == "none" and not any(site.victim_rows for site in sites):
        raise ScenarioError("no attacker row is adjacent to the victim; nothing to hammer")
    selected = _select_aggressors(sites, scenario.aggressor_selection)
    state = SimState(mapping, scenario.hammer, scenario.refresh_every, scenario.check_pattern)
    for site in selected:
        state.activate_row(site.coord, scenario.effective_hammer_count)
    flips = tuple(state.collect_flips())
    return AttackReport(
        scenario=scenario,
        layout=layout,
        siloz=siloz_plan,
        aggressors=tuple(selected),
        flips=flips,
        flip_owners=tuple(classify_pa(layout, f.pa) for f in flips),
        stats=state.stats,
    )


def _check_cells(scenarios: list[Scenario], names: list[str] | None = None) -> None:
    """Raise ScenarioError if two scenarios share a mitigation and a label, the
    key of their summary cell; names[i] (default scenarios[i]) names each."""
    if names is None:
        names = [f"scenarios[{i}]" for i in range(len(scenarios))]
    cells: dict[tuple[str, str], str] = {}  # (mitigation, label) -> first entry
    for name, scenario in zip(names, scenarios):
        if (first := cells.setdefault((scenario.mitigation, scenario.label), name)) != name:
            raise ScenarioError(f"{first} and {name} share mitigation "
                                f"{scenario.mitigation!r} and label {scenario.label!r}")


def run_matrix(scenarios: list[Scenario]) -> list[AttackReport | dict]:
    """Run scenarios independently; errors land in the failing slot. Two
    scenarios that share a summary cell raise ScenarioError before any runs."""
    _check_cells(scenarios)
    out: list[AttackReport | dict] = []
    for i, scenario in enumerate(scenarios):
        try:
            out.append(run_attack(scenario))
        except (ScenarioError, PlanError, MappingError) as exc:  # error is data here
            out.append(
                {
                    "index": i,
                    "label": scenario.label,
                    "mitigation": scenario.mitigation,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
    return out


def matrix_summary(reports: list[AttackReport | dict]) -> dict:
    """Verdict grid keyed by mitigation, then mapping label."""
    grid: dict[str, dict[str, str]] = {}
    for report in reports:
        if isinstance(report, AttackReport):
            mit = report.scenario.mitigation
            label = report.scenario.label
            cell = report.verdict
        else:
            mit = str(report.get("mitigation", "?"))
            label = str(report.get("label", "?"))
            cell = "ERROR"
        grid.setdefault(mit, {})[label] = cell
    return grid


def builtin_matrix() -> list[Scenario]:
    """The default mitigation/mapping grid over the built-in presets, in
    deterministic flip mode; with_overrides changes its hammer settings.

    VM pairs are sized per mitigation so each planner's behavior is visible:
    8 MiB adjacent VMs for the unmitigated baseline, 16 MiB for subarray-group
    isolation, 256 MiB with one guard row for guard-row isolation.
    """
    presets = builtin_mappings()
    sizes: dict[str, tuple[int, ...]] = {
        "none": (8 << 20, 8 << 20),
        "siloz": (16 << 20, 16 << 20),
        "citadel": (256 << 20, 256 << 20),
    }
    hammer = HammerParams(deterministic_mode=True)
    return [
        Scenario(
            mapping=mapping,
            hammer=hammer,
            vm_sizes=sizes[mitigation],
            mitigation=mitigation,
            aggressor_selection="first",
            label=name,
        )
        for mitigation in MITIGATIONS
        for name, mapping in presets.items()
    ]


def load_matrix_scenarios(path: str) -> list[Scenario]:
    """Scenarios from a {"scenarios": [...]} file or a directory of *.json,
    no two with one mitigation and label, the key of their summary cell."""
    if os.path.isdir(path):
        names = sorted(name for name in os.listdir(path) if name.endswith(".json"))
        scenarios = [load_scenario(os.path.join(path, name)) for name in names]
        if not scenarios:
            raise ScenarioError(f"{path}: no *.json scenario files")
    else:
        data = _read_json(path)
        if not isinstance(data, dict) or not isinstance(data.get("scenarios"), list):
            raise ScenarioError(f"{path}: expected an object with a scenarios array")
        base = os.path.dirname(os.path.abspath(path))
        scenarios = [scenario_from_dict(entry, base) for entry in data["scenarios"]]
        names = None  # the default, scenarios[i]
    try:
        _check_cells(scenarios, names)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return scenarios


# -- traces -------------------------------------------------------------------------

PA_END = 1 << 63  # a trace's PAs are int64


class AccessTrace:
    """A memory access trace, two read-only int64 arrays: ``pas[i]`` is entry
    i's PA and ``data[i]`` its byte for a write, -1 for a read.

    ``AccessTrace(entries)`` takes any iterable of (kind, pa, data) entries
    and checks each in one pass. For a bad entry it raises the error
    ``SimState.access`` raises, for the first one in trace order, and for a
    PA outside int64 ``check_int``'s; ``replay_trace`` checks the PAs against
    its geometry. Traces compare by their arrays and are not hashable."""

    def __init__(self, entries: Iterable[tuple[str, int, int | None]]) -> None:
        pas, data = [], []
        for kind, pa, byte in entries:
            if kind == "read":
                byte = -1
            elif kind != "write" or type(byte) is not int or not 0 <= byte < 256:
                check_access(pa, kind, byte)  # access's own error, or an int subclass passes
            if type(pa) is not int or not -PA_END <= pa < PA_END:
                check_access(pa, kind, byte)
                check_int("pa", pa, -PA_END, PA_END)
            pas.append(pa)
            data.append(byte)
        pas = np.array(pas, dtype=np.int64)  # drop the list before data's array is made
        self._freeze(pas, data)

    @classmethod
    def _of(cls, pas, data) -> AccessTrace:
        """The trace of checked PAs and bytes (-1 for a read)."""
        trace = cls.__new__(cls)
        trace._freeze(pas, data)
        return trace

    def _freeze(self, pas, data) -> None:
        self.pas = np.asarray(pas, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.int64)
        self.pas.flags.writeable = self.data.flags.writeable = False

    def __len__(self) -> int:
        return len(self.pas)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessTrace):
            return NotImplemented
        return np.array_equal(self.pas, other.pas) and np.array_equal(self.data, other.data)


def parse_trace(text: str, limit: int | None = None) -> AccessTrace:
    """Parse trace lines: 'R <hex-pa>' or 'W <hex-pa> <hex-byte>', # comments.

    A negative PA is a malformed entry, as the synthesizers refuse one too;
    a PA at or past ``limit``, when one is given, or past int64 is rejected
    with its line.
    """
    end = PA_END if limit is None else min(limit, PA_END)
    pas, data = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        try:
            if len(parts) == 2 and parts[0] in ("R", "r"):
                byte = -1
            elif len(parts) == 3 and parts[0] in ("W", "w"):
                byte = int(parts[2], 16)
                if not 0 <= byte < 256:
                    raise ValueError
            else:
                raise ValueError
            pa = int(parts[1], 16)
            if pa < 0:
                raise ValueError
        except ValueError:
            raise TraceError(f"line {lineno}: malformed trace entry {raw.strip()!r}") from None
        if pa >= end:
            raise TraceError(f"line {lineno}: pa 0x{pa:x} not below 0x{end:x}")
        pas.append(pa)
        data.append(byte)
    return AccessTrace._of(pas, data)


def format_trace(trace: AccessTrace) -> str:
    """The trace's text as ``parse_trace`` reads it back. A negative PA, which
    ``parse_trace`` rejects, raises ``ValueError`` naming the first such entry."""
    negative = np.flatnonzero(trace.pas < 0)
    if len(negative):
        i = int(negative[0])
        raise ValueError(f"entry {i}: pa -0x{-int(trace.pas[i]):x} is negative; a trace file has none")
    lines = [
        f"R 0x{pa:x}" if byte < 0 else f"W 0x{pa:x} 0x{byte:02x}"
        for pa, byte in zip(trace.pas.tolist(), trace.data.tolist())
    ]
    return "\n".join(lines) + "\n"


def _check_span(lo: int, hi: int, limit: int | None) -> None:
    """Refuse a trace whose lowest PA lo is negative or whose highest PA hi is
    not below limit, or past int64; synthesizers call it before building."""
    end = PA_END if limit is None else min(limit, PA_END)
    if lo < 0:
        raise ValueError(f"trace overflows the address space: pa -0x{-lo:x} is negative")
    if hi >= end:
        raise ValueError(f"trace overflows the region: pa 0x{hi:x} not below 0x{end:x}")


def _reads(pas: np.ndarray) -> AccessTrace:
    """A read of each address in pas."""
    return AccessTrace._of(pas, np.full(len(pas), -1, dtype=np.int64))


def sequential_trace(base_pa: int, count: int, limit: int | None = None) -> AccessTrace:
    """count reads of consecutive byte addresses starting at base_pa."""
    return strided_trace(base_pa, 1, count, limit)


def strided_trace(
    base_pa: int, stride: int, count: int, limit: int | None = None
) -> AccessTrace:
    """count reads spaced stride bytes apart."""
    check_int("base_pa", base_pa)
    check_int("stride", stride)
    check_int("count", count, 1)
    ends = (base_pa, base_pa + (count - 1) * stride)
    _check_span(min(ends), max(ends), limit)
    step = stride if count > 1 else 0  # a lone read's stride need not fit int64
    pas = np.full(count, step, dtype=np.int64)  # unlike arange, refuses a count numpy cannot size
    pas[0] = base_pa
    return _reads(np.cumsum(pas, out=pas))


def matvec_trace(rows: int, cols: int, base_pa: int, limit: int | None = None) -> AccessTrace:
    """Read pattern of a row-major matrix-vector product of 8-byte elements.

    The matrix lives at base_pa, the vector directly after it. The matrix is
    streamed once; the vector is re-read for every matrix row. Per element the
    order is matrix read, then vector read (one read per element).
    """
    check_int("rows", rows, 1)
    check_int("cols", cols, 1)
    check_int("base_pa", base_pa)
    vector_base = base_pa + rows * cols * 8
    _check_span(base_pa, vector_base + (cols - 1) * 8, limit)
    pas = np.empty(2 * rows * cols, dtype=np.int64)
    pas[0::2] = base_pa + 8 * np.arange(rows * cols, dtype=np.int64)
    pas[1::2] = np.tile(vector_base + 8 * np.arange(cols, dtype=np.int64), rows)
    return _reads(pas)


def toggle_trace(
    base_pa: int, mask: int, count: int, limit: int | None = None
) -> AccessTrace:
    """count reads alternating between base_pa and base_pa ^ mask.

    With mask covering a bank-xor input bit plus a row bit, the two addresses
    conflict in one bank under a direct bank mapping but land in different
    banks under an xor mapping, exposing hit-rate differences between the two.
    """
    check_int("base_pa", base_pa)
    check_int("mask", mask)
    check_int("count", count, 1)
    pair = [base_pa, base_pa ^ mask] if count > 1 else [base_pa]
    _check_span(min(pair), max(pair), limit)
    pas = np.full(count, pair[-1], dtype=np.int64)  # refuses a count numpy cannot size
    pas[0::2] = base_pa
    return _reads(pas)


def replay_trace(
    trace: AccessTrace,
    mapping: AddressMapping,
    params: HammerParams,
    refresh_every: int = REFRESH_EVERY,
) -> tuple[Stats, list[BitflipRecord]]:
    """Drive every trace access through a fresh state that closes its refresh
    window every ``refresh_every`` activations (``SimState.replay``)."""
    state = SimState(mapping, params, refresh_every)
    state.replay(trace.pas, trace.data)
    return state.stats, state.collect_flips()
