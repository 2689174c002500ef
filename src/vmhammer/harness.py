"""Attack scenarios, verdict reports, and trace replay.

run_attack wires the pieces together: plan a layout, hammer the selected
aggressors on a state whose unwritten bytes read the check pattern, then
classify each recorded bitflip by the owning region. The verdict is MITIGATED
exactly when no flip lands in victim-owned memory. The refresh window belongs
to SimState: both run_attack and replay_trace only pass its period through.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .dram import REFRESH_EVERY, BitflipRecord, HammerParams, SimState, Stats
from .layout import (
    MITIGATIONS,
    AggressorSite,
    MemoryLayout,
    PlanError,
    boundary_fallback,
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
    default_geometry,
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
    "synth_trace",
    "parse_size",
    "scenario_from_dict",
    "load_scenario",
    "load_matrix_scenarios",
    "builtin_matrix",
    "matrix_summary",
    "report_to_json",
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
        for name in ("mitigation", "attacker_vm", "victim_vm", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ScenarioError(f"{name} must be a string, got {value!r}")
        integers = ("guard_global_rows", "refresh_every", "check_pattern")
        if self.hammer_count is not None:
            integers += ("hammer_count",)
        for name in integers:
            value = getattr(self, name)
            if not is_integer(value):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if not _is_int_sequence(self.vm_sizes):
            raise ScenarioError(f"vm_sizes must be a list of integers, got {self.vm_sizes!r}")
        if self.mitigation not in MITIGATIONS:
            raise ScenarioError(f"unknown mitigation {self.mitigation!r}")
        if not self.vm_sizes:
            raise ScenarioError("vm_sizes must name at least one VM")
        if self.attacker_vm == self.victim_vm:
            raise ScenarioError("attacker_vm and victim_vm must differ")
        if self.hammer_count is not None and self.hammer_count < 1:
            raise ScenarioError(f"hammer_count must be >= 1, got {self.hammer_count}")
        if self.refresh_every < 1:
            raise ScenarioError(f"refresh_every must be >= 1, got {self.refresh_every}")
        if self.guard_global_rows < 1:
            raise ScenarioError(
                f"guard_global_rows must be >= 1, got {self.guard_global_rows}"
            )
        if not 0 <= self.check_pattern <= 0xFF:
            raise ScenarioError(f"check_pattern must be a byte, got {self.check_pattern}")
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
            "hammer": dataclasses.asdict(self.hammer),
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
        canon = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _reject_unknown(what: str, data: dict, known: set[str]) -> None:
    unknown = sorted(str(k) for k in data if k not in known)
    if unknown:
        raise ScenarioError(f"{what} has unknown fields: {', '.join(unknown)}")


def _scenario_mapping(data: dict, base_dir: str | None) -> tuple[AddressMapping, str]:
    """The mapping a scenario names, and the label it defaults to."""
    spec = data["mapping"]
    presets = builtin_mappings(default_geometry())
    if "geometry" in data:
        if not isinstance(spec, str) or spec not in presets:
            raise ScenarioError("a top-level geometry applies to preset names only")
        presets = builtin_mappings(Geometry.from_dict(data["geometry"]))
    if isinstance(spec, dict):
        if "geometry" not in spec or "functions" not in spec:
            raise ScenarioError("inline mapping needs geometry and functions")
        geometry = Geometry.from_dict(spec["geometry"])
        return AddressMapping.build(geometry, spec["functions"]), Scenario.label
    if not isinstance(spec, str):
        raise ScenarioError(f"mapping must be a name, path, or object, got {spec!r}")
    if spec in presets:
        return presets[spec], spec
    path = spec if os.path.isabs(spec) or base_dir is None else os.path.join(base_dir, spec)
    return load_mapping(path), os.path.splitext(os.path.basename(path))[0]


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
    mapping, label = _scenario_mapping(data, base_dir)
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


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}"
            ) from None
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


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


def _reachable_rows(
    geometry: Geometry, sites: list[AggressorSite], blast_radius: int
) -> list[RowTuple]:
    """Rows a hammered aggressor can flip: same bank tuple and subarray,
    within the blast radius. The report lists them as its seeded_rows."""
    return sorted(
        {
            site.coord.bank_tuple + (victim,)
            for site in sites
            for victim in geometry.neighbours(site.coord.row, blast_radius)
        }
    )


# -- the attack itself -------------------------------------------------------------


@dataclass
class AttackReport:
    scenario: Scenario
    layout: MemoryLayout
    siloz_groups: dict | None
    aggressors: tuple[AggressorSite, ...]
    boundary_fallback: bool
    seeded_rows: tuple[RowTuple, ...]
    flips: tuple[BitflipRecord, ...]
    flip_owners: tuple[str, ...]
    ownership_histogram: dict[str, int]
    verdict: str
    stats: Stats
    tool_version: str = field(default="")

    def to_dict(self) -> dict:
        geo = self.scenario.mapping.geometry
        digits = geo.pa_digits
        out = {
            "tool": {"name": "vmhammer", "version": self.tool_version},
            "scenario": self.scenario.canonical_dict(),
            "scenario_hash": self.scenario.hash(),
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
        if self.siloz_groups is not None:
            out["siloz"] = self.siloz_groups
        return out


def report_to_json(report: AttackReport | dict) -> str:
    data = report.to_dict() if isinstance(report, AttackReport) else report
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def run_attack(scenario: Scenario) -> AttackReport:
    """Plan, hammer, classify. Deterministic for equal scenarios.

    Every byte reads check_pattern until a flip changes it, so a flip's
    old_value is the pattern, or the byte as an earlier flip left it.
    """
    from . import __version__

    mapping = scenario.mapping
    layout, siloz_plan = plan_layout(
        mapping, scenario.mitigation, scenario.vm_sizes, scenario.guard_global_rows
    )
    owners = {f"vm{i}" for i in range(len(scenario.vm_sizes))}
    for vm in (scenario.attacker_vm, scenario.victim_vm):
        if vm not in owners:
            raise ScenarioError(f"{vm!r} is not one of the planned VMs {sorted(owners)}")
    blast = scenario.hammer.blast_radius
    attacker = row_footprint(mapping, layout.region_of(scenario.attacker_vm))
    victim = row_footprint(mapping, layout.region_of(scenario.victim_vm))
    sites = find_aggressors(mapping, attacker, victim, blast)
    fallback = False
    if not sites:
        if scenario.mitigation == "none":
            raise ScenarioError(
                "no attacker row is adjacent to the victim; nothing to hammer"
            )
        sites = boundary_fallback(mapping, attacker, victim)
        fallback = True
    selected = _select_aggressors(sites, scenario.aggressor_selection)
    state = SimState(mapping, scenario.hammer, scenario.refresh_every, scenario.check_pattern)
    for site in selected:
        state.activate_row(site.coord, scenario.effective_hammer_count)
    flips = tuple(state.collect_flips())
    flip_owners = tuple(classify_pa(layout, f.pa) for f in flips)
    histogram: dict[str, int] = {}
    for owner in flip_owners:
        histogram[owner] = histogram.get(owner, 0) + 1
    verdict = MITIGATED if histogram.get(scenario.victim_vm, 0) == 0 else NOT_MITIGATED
    return AttackReport(
        scenario=scenario,
        layout=layout,
        siloz_groups=siloz_plan.to_dict() if siloz_plan is not None else None,
        aggressors=tuple(selected),
        boundary_fallback=fallback,
        seeded_rows=tuple(_reachable_rows(mapping.geometry, selected, blast)),
        flips=flips,
        flip_owners=flip_owners,
        ownership_histogram=histogram,
        verdict=verdict,
        stats=state.stats,
        tool_version=__version__,
    )


def run_matrix(scenarios: list[Scenario]) -> list[AttackReport | dict]:
    """Run scenarios independently; errors land in the failing slot."""
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


def builtin_matrix(
    hc_first: int = HammerParams.hc_first,
    rng_seed: int = HammerParams.rng_seed,
    hammer_count: int | None = None,
    mitigations: tuple[str, ...] = MITIGATIONS,
) -> list[Scenario]:
    """The default mitigation/mapping grid over the built-in presets, in
    deterministic flip mode.

    VM pairs are sized per mitigation so each planner's behavior is visible:
    8 MiB adjacent VMs for the unmitigated baseline, 16 MiB for subarray-group
    isolation, 256 MiB with one guard row for guard-row isolation.
    """
    presets = builtin_mappings(default_geometry())
    sizes: dict[str, tuple[int, ...]] = {
        "none": (8 << 20, 8 << 20),
        "siloz": (16 << 20, 16 << 20),
        "citadel": (256 << 20, 256 << 20),
    }
    hammer = HammerParams(hc_first=hc_first, deterministic_mode=True, rng_seed=rng_seed)
    return [
        Scenario(
            mapping=mapping,
            hammer=hammer,
            vm_sizes=sizes[mitigation],
            mitigation=mitigation,
            hammer_count=hammer_count,
            aggressor_selection="first",
            label=name,
        )
        for mitigation in mitigations
        for name, mapping in presets.items()
    ]


def load_matrix_scenarios(path: str) -> list[Scenario]:
    """Scenarios from a {"scenarios": [...]} file or a directory of *.json."""
    if os.path.isdir(path):
        scenarios = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                scenarios.append(load_scenario(os.path.join(path, name)))
        if not scenarios:
            raise ScenarioError(f"{path}: no *.json scenario files")
        return scenarios
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}"
            ) from None
    if not isinstance(data, dict) or not isinstance(data.get("scenarios"), list):
        raise ScenarioError(f"{path}: expected an object with a scenarios array")
    base = os.path.dirname(os.path.abspath(path))
    return [scenario_from_dict(entry, base) for entry in data["scenarios"]]


# -- traces -------------------------------------------------------------------------

TraceOp = tuple[str, int, "int | None"]


@dataclass(frozen=True)
class AccessTrace:
    entries: tuple[TraceOp, ...]

    def __len__(self) -> int:
        return len(self.entries)


def parse_trace(text: str) -> AccessTrace:
    """Parse trace lines: 'R <hex-pa>' or 'W <hex-pa> <hex-byte>', # comments."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        try:
            if kind == "R" and len(parts) == 2:
                entries.append(("read", int(parts[1], 16), None))
            elif kind == "W" and len(parts) == 3:
                data = int(parts[2], 16)
                if not 0 <= data <= 0xFF:
                    raise ValueError
                entries.append(("write", int(parts[1], 16), data))
            else:
                raise ValueError
        except ValueError:
            raise TraceError(f"line {lineno}: malformed trace entry {raw.strip()!r}") from None
    return AccessTrace(tuple(entries))


def format_trace(trace: AccessTrace) -> str:
    lines = []
    for kind, pa, data in trace.entries:
        if kind == "read":
            lines.append(f"R 0x{pa:x}")
        else:
            lines.append(f"W 0x{pa:x} 0x{data:02x}")
    return "\n".join(lines) + "\n"


def _check_positive(**fields: int) -> None:
    for name, value in fields.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_pas(pas, limit: int | None) -> None:
    if min(pas) < 0:
        raise ValueError(f"trace overflows the address space: pa -0x{-min(pas):x} is negative")
    if limit is not None and max(pas) >= limit:
        raise ValueError(f"trace overflows the region: pa 0x{max(pas):x} not below 0x{limit:x}")


def sequential_trace(base_pa: int, count: int, limit: int | None = None) -> AccessTrace:
    """count reads of consecutive byte addresses starting at base_pa."""
    _check_positive(count=count)
    pas = [base_pa + i for i in range(count)]
    _check_pas(pas, limit)
    return AccessTrace(tuple(("read", pa, None) for pa in pas))


def strided_trace(
    base_pa: int, stride: int, count: int, limit: int | None = None
) -> AccessTrace:
    """count reads spaced stride bytes apart."""
    _check_positive(count=count)
    pas = [base_pa + i * stride for i in range(count)]
    _check_pas(pas, limit)
    return AccessTrace(tuple(("read", pa, None) for pa in pas))


def matvec_trace(
    rows: int,
    cols: int,
    base_pa: int,
    element_size: int = 8,
    limit: int | None = None,
) -> AccessTrace:
    """Read pattern of a row-major matrix-vector product.

    The matrix lives at base_pa, the vector directly after it. The matrix is
    streamed once; the vector is re-read for every matrix row. Per element the
    order is matrix read, then vector read (one read per element).
    """
    _check_positive(rows=rows, cols=cols)
    vector_base = base_pa + rows * cols * element_size
    entries = []
    for i in range(rows):
        for j in range(cols):
            entries.append(("read", base_pa + (i * cols + j) * element_size, None))
            entries.append(("read", vector_base + j * element_size, None))
    _check_pas([pa for _, pa, _ in entries], limit)
    return AccessTrace(tuple(entries))


def toggle_trace(
    base_pa: int, mask: int, count: int, limit: int | None = None
) -> AccessTrace:
    """count reads alternating between base_pa and base_pa ^ mask.

    With mask covering a bank-xor input bit plus a row bit, the two addresses
    conflict in one bank under a direct bank mapping but land in different
    banks under an xor mapping, exposing hit-rate differences between the two.
    """
    _check_positive(count=count)
    pas = [base_pa ^ (mask if i & 1 else 0) for i in range(count)]
    _check_pas(pas, limit)
    return AccessTrace(tuple(("read", pa, None) for pa in pas))


def synth_trace(kind: str, limit: int | None = None, **kwargs) -> AccessTrace:
    """Dispatcher over the trace synthesizers by kind name."""
    makers = {
        "sequential": sequential_trace,
        "strided": strided_trace,
        "matvec": matvec_trace,
        "toggle": toggle_trace,
    }
    if kind not in makers:
        raise ValueError(f"unknown trace kind {kind!r}; pick from {sorted(makers)}")
    return makers[kind](limit=limit, **kwargs)


def replay_trace(
    trace: AccessTrace,
    mapping: AddressMapping,
    params: HammerParams,
    refresh_every: int = REFRESH_EVERY,
) -> tuple[Stats, list[BitflipRecord]]:
    """Drive every trace access through a fresh state that closes its refresh
    window every ``refresh_every`` activations."""
    state = SimState(mapping, params, refresh_every)
    for kind, pa, data in trace.entries:
        state.access(pa, kind, data)
    return state.stats, state.collect_flips()
