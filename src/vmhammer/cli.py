"""Command-line front end.

Exit status: 0 for success (valid mapping, MITIGATED verdict), 1 for
domain-negative results (invalid mapping, infeasible plan, NOT_MITIGATED
under --expect-mitigated, matrix slots with errors), 2 for usage, IO, and
parse errors. Successful commands print JSON (or the documented matrix table)
on stdout; errors print a machine-readable object on stderr.

A mapping argument goes through harness.resolve_mapping and the hammer flags
through harness.with_overrides, as scenario files do. Each gen-trace kind is
a sub-parser that binds its synthesizer and takes only its own flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import NoReturn

from . import __version__
from .dram import HammerParams
from .harness import (
    AttackReport,
    builtin_matrix,
    format_trace,
    load_matrix_scenarios,
    load_scenario,
    matrix_summary,
    matvec_trace,
    parse_size,
    parse_trace,
    render_json,
    replay_trace,
    resolve_mapping,
    run_attack,
    run_matrix,
    sequential_trace,
    strided_trace,
    toggle_trace,
    with_overrides,
)
from .layout import MITIGATIONS, PlanError, plan_layout
from .mapping import DramCoordinate, validate

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


HAMMER_FIELDS = tuple(f.name for f in dataclasses.fields(HammerParams))
OVERRIDE_FIELDS = HAMMER_FIELDS + ("hammer_count",)
TRACE_FIELDS = ("base_pa", "limit", "count", "stride", "rows", "cols", "mask")


def _given(args, names) -> dict:
    """The flags among ``names`` given on the command line, by parameter name."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


# -- subcommands -----------------------------------------------------------------


def cmd_validate_map(args) -> int:
    mapping, _ = resolve_mapping(args.mapping)
    report = validate(mapping)
    _emit(args, render_json(report.to_dict()))
    return 0 if report.valid else DOMAIN_ERROR


def cmd_translate(args) -> int:
    mapping, _ = resolve_mapping(args.mapping)
    geo = mapping.geometry
    digits = geo.pa_digits
    if ":" in args.address:
        parts = args.address.split(":")
        if len(parts) != 6:
            raise ValueError(
                "coordinate must be channel:rank:bankgroup:bank:row:column"
            )
        coord = DramCoordinate(*(int(p, 0) for p in parts))
        pa = mapping.coord_to_pa(coord)
    else:
        pa = int(args.address, 16)
        coord = mapping.pa_to_coord(pa)
    _emit(
        args,
        render_json({"pa": f"0x{pa:0{digits}x}", "coordinate": coord.to_dict(geo)}),
    )
    return 0


def cmd_plan(args) -> int:
    mapping, _ = resolve_mapping(args.mapping)
    sizes = [parse_size(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise ValueError("--sizes must list at least one VM size")
    layout, siloz_plan = plan_layout(mapping, args.mitigation, sizes, args.guard_rows)
    plan = layout if siloz_plan is None else siloz_plan
    _emit(args, render_json(plan.to_dict(mapping.geometry.pa_digits)))
    return 0


def cmd_attack(args) -> int:
    scenario = with_overrides(load_scenario(args.scenario), **_given(args, OVERRIDE_FIELDS))
    report = run_attack(scenario)
    _emit(args, render_json(report.to_dict()))
    if args.expect_mitigated and report.verdict != "MITIGATED":
        return DOMAIN_ERROR
    return 0


MARKS = {"MITIGATED": "✓", "NOT_MITIGATED": "✗", "ERROR": "!"}


def _render_table(summary: dict) -> str:
    labels: list[str] = []
    for row in summary.values():
        for label in row:
            if label not in labels:
                labels.append(label)
    width = max([len("mitigation")] + [len(m) for m in summary])
    lines = ["  ".join(["mitigation".ljust(width)] + labels)]
    for mitigation, row in summary.items():
        cells = [MARKS.get(row.get(label, ""), "?").center(len(label)) for label in labels]
        lines.append("  ".join([mitigation.ljust(width)] + cells).rstrip())
    return "\n".join(lines) + "\n"


def cmd_matrix(args) -> int:
    scenarios = load_matrix_scenarios(args.path) if args.path else builtin_matrix()
    overrides = _given(args, OVERRIDE_FIELDS)
    reports = run_matrix([with_overrides(s, **overrides) for s in scenarios])
    summary = matrix_summary(reports)
    if args.table:
        _emit(args, _render_table(summary))
    else:
        payload = {
            "summary": summary,
            "reports": [
                r.to_dict() if isinstance(r, AttackReport) else r for r in reports
            ],
        }
        _emit(args, render_json(payload))
    failed = any(not isinstance(r, AttackReport) for r in reports)
    return DOMAIN_ERROR if failed else 0


def cmd_replay_trace(args) -> int:
    mapping, _ = resolve_mapping(args.mapping)
    with open(args.trace, "r", encoding="utf-8") as fh:
        trace = parse_trace(fh.read(), mapping.geometry.total_bytes)
    params = HammerParams(**_given(args, HAMMER_FIELDS))
    stats, flips = replay_trace(trace, mapping, params, **_given(args, ("refresh_every",)))
    geo = mapping.geometry
    digits = geo.pa_digits
    _emit(
        args,
        render_json({
            "stats": stats.to_dict(),
            "flips": [f.to_dict(geo, digits) for f in flips],
        }),
    )
    return 0


def cmd_gen_trace(args) -> int:
    # a kind's sub-parser binds its synthesizer and sets only the fields it takes
    _emit(args, format_trace(args.synth(**_given(args, TRACE_FIELDS))))
    return 0


# -- parser ------------------------------------------------------------------------


def _hex_int(text: str) -> int:
    return int(text, 0)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage text, so main reports
    them as one JSON error object with exit status 2. A value that starts
    with a minus and a digit, such as ``-0x40``, is a negative number and
    not a flag, as Python 3.13's argparse reads it; older ones see only
    ``-8``-style decimals so."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the result to a file instead of stdout")
    hammer = argparse.ArgumentParser(add_help=False, parents=[common])
    hammer.add_argument("--seed", type=int, default=None, dest="rng_seed",
                        help="RNG seed override")
    hammer.add_argument("--deterministic", action="store_const", const=True, default=None,
                        dest="deterministic_mode", help="force deterministic flip mode")
    hammer.add_argument("--hc-first", type=int, default=None, dest="hc_first",
                        help="activation threshold override")
    scenario = argparse.ArgumentParser(add_help=False, parents=[hammer])
    scenario.add_argument("--hammer-count", type=int, default=None, dest="hammer_count",
                          help="activations per aggressor override")

    parser = _Parser(
        prog="vmhammer",
        description="DRAM address-mapping and RowHammer mitigation workbench",
    )
    parser.add_argument("--version", action="version", version=f"vmhammer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-map", parents=[common],
                       help="check a mapping for invertibility",
                       description="Check a mapping for invertibility. An invalid "
                       "mapping's witness is the first output bit, in channel, rank, "
                       "bankgroup, bank, row, column order, that is an XOR of earlier "
                       "output bits, together with exactly those bits.")
    p.add_argument("mapping", help="preset name or mapping file")
    p.set_defaults(func=cmd_validate_map)

    p = sub.add_parser("translate", parents=[common],
                       help="translate a PA (hex) or coordinate (ch:rk:bg:bank:row:col)")
    p.add_argument("mapping")
    p.add_argument("address")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("plan", parents=[common], help="plan a VM layout")
    p.add_argument("mitigation", choices=MITIGATIONS)
    p.add_argument("mapping")
    p.add_argument("--sizes", required=True, help="comma-separated VM sizes (e.g. 16MiB,16MiB)")
    p.add_argument("--guard-rows", type=int, default=1, dest="guard_rows",
                   help="guard rows between VMs (citadel)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("attack", parents=[scenario], help="run one attack scenario file")
    p.add_argument("scenario")
    p.add_argument("--expect-mitigated", action="store_true",
                   help="exit 1 unless the verdict is MITIGATED")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("matrix", parents=[scenario],
                       help="run a scenario matrix (default: built-in 3x3 grid)")
    p.add_argument("path", nargs="?", help="scenario matrix file or directory")
    p.add_argument("--table", action="store_true", help="print the verdict grid as text")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("replay-trace", parents=[hammer], help="replay an access trace")
    p.add_argument("trace")
    p.add_argument("mapping")
    p.add_argument("--refresh-every", type=int, default=None, dest="refresh_every",
                   help="activations per refresh window")
    p.add_argument("--flip-probability", type=float, default=None, dest="flip_probability")
    p.add_argument("--blast-radius", type=int, default=None, dest="blast_radius")
    p.set_defaults(func=cmd_replay_trace)

    trace = argparse.ArgumentParser(add_help=False, parents=[common])
    trace.add_argument("--base", type=_hex_int, default=0, dest="base_pa", metavar="BASE")
    trace.add_argument("--limit", type=_hex_int, default=None,
                       help="reject traces reaching past this address")
    counted = argparse.ArgumentParser(add_help=False, parents=[trace])
    counted.add_argument("--count", type=int, default=1024)
    p = sub.add_parser("gen-trace", help="synthesize an access trace")
    p.set_defaults(func=cmd_gen_trace)
    kinds = p.add_subparsers(dest="kind", required=True)
    kinds.add_parser("sequential", parents=[counted]).set_defaults(synth=sequential_trace)
    k = kinds.add_parser("strided", parents=[counted])
    k.add_argument("--stride", type=_hex_int, required=True)
    k.set_defaults(synth=strided_trace)
    k = kinds.add_parser("matvec", parents=[trace])
    k.add_argument("--rows", type=int, required=True)
    k.add_argument("--cols", type=int, required=True)
    k.set_defaults(synth=matvec_trace)
    k = kinds.add_parser("toggle", parents=[counted])
    k.add_argument("--mask", type=_hex_int, required=True)
    k.set_defaults(synth=toggle_trace)

    return parser


PARSER = build_parser()  # built once per process; each parse_args starts afresh


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit:  # --help and --version print and exit 0
        return 0
    except argparse.ArgumentError as exc:
        _error(exc)
        return USAGE_ERROR
    try:
        return args.func(args)
    except PlanError as exc:
        _error(exc)
        return DOMAIN_ERROR
    except MemoryError as exc:  # a failed list allocation carries no message
        # the tracebacks along the chain hold the failed run's frames and all
        # they allocated; free them, or writing the error runs out too
        link: BaseException | None = exc
        while link is not None:
            link.__traceback__ = None
            link = link.__context__
        _error(MemoryError(str(exc) or "out of memory"))
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        _error(exc)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
