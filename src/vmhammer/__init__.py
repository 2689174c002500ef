"""Desk-scale DRAM model for studying inter-VM RowHammer mitigations.

The package splits into:

  gf2       bit-packed GF(2) elimination, image tables, span enumeration
  mapping   GF(2)-linear physical-address mappings, validation, translation
  dram      open-page DRAM state, activation counting, threshold bitflips
  layout    VM memory layouts, footprints, mitigation planners
  harness   attack scenarios, reports, trace replay and synthesis
  cli       command-line front end
"""

from .mapping import (
    COORD_KINDS,
    AddressMapping,
    DramCoordinate,
    Geometry,
    MappingError,
    ValidationReport,
    builtin_mappings,
    default_geometry,
    load_mapping,
    parse_mapping,
    validate,
)
from .dram import BitflipRecord, HammerParams, SimState, Stats
from .layout import (
    UNALLOCATED,
    UNUSED,
    AggressorSite,
    MemoryLayout,
    PlanError,
    Region,
    SilozPlan,
    check_layout,
    classify_pa,
    find_aggressors,
    plan_citadel,
    plan_siloz,
    row_footprint,
)
from .harness import (
    MITIGATED,
    NOT_MITIGATED,
    AccessTrace,
    AttackReport,
    Scenario,
    ScenarioError,
    TraceError,
    matvec_trace,
    parse_trace,
    replay_trace,
    run_attack,
    run_matrix,
    sequential_trace,
    strided_trace,
    toggle_trace,
)

__version__ = "0.1.0"
