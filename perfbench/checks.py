"""Correctness checks for benchmark outputs.

Every checked output gets a sha256 digest and a list of problems; an output
with any problem counts as a failed operation. Digests cover only the report
keys listed in REPORT_KEYS, so reports that gain keys later (timings,
evidence) hash the same as long as these keys keep their values.
"""

from __future__ import annotations

import hashlib
import json

REPORT_KEYS = (
    "scenario_hash",
    "verdict",
    "layout",
    "aggressors",
    "boundary_fallback",
    "seeded_rows",
    "flips",
    "ownership_histogram",
    "stats",
    "siloz",
)
VICTIM = "vm0"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def stats_problems(stats: dict) -> list[str]:
    if stats["accesses"] != stats["row_buffer_hits"] + stats["activations"]:
        return [
            f"accesses {stats['accesses']} != row_buffer_hits "
            f"{stats['row_buffer_hits']} + activations {stats['activations']}"
        ]
    return []


def flip_problems(flips: list[dict]) -> list[str]:
    problems = []
    for i, flip in enumerate(flips):
        bit = flip["bit_index"]
        if not 0 <= bit < 8 or flip["new_value"] != flip["old_value"] ^ (1 << bit):
            problems.append(
                f"flip {i}: new_value {flip['new_value']} is not old_value "
                f"{flip['old_value']} with bit {bit} flipped"
            )
    return problems


def check_report(report: dict, expected_verdict: str) -> tuple[str, list[str]]:
    """Digest and invariant problems of one AttackReport.to_dict() payload.

    A MITIGATED verdict must also mean that no flip is owned by the victim.
    """
    problems = stats_problems(report["stats"]) + flip_problems(report["flips"])
    if report["verdict"] != expected_verdict:
        problems.append(f"verdict {report['verdict']}, expected {expected_verdict}")
    if expected_verdict == "MITIGATED":
        owners = [f.get("owner") for f in report["flips"]]
        if VICTIM in owners or report["ownership_histogram"].get(VICTIM, 0):
            problems.append(f"a flip is owned by the victim {VICTIM}")
    return digest({k: report[k] for k in REPORT_KEYS if k in report}), problems


def check_replay(stats: dict, flips: list[dict], trace_length: int) -> tuple[str, list[str]]:
    problems = stats_problems(stats) + flip_problems(flips)
    if stats["accesses"] != trace_length:
        problems.append(f"{stats['accesses']} accesses for a {trace_length}-entry trace")
    return digest({"stats": stats, "flips": flips}), problems


def check_plan(layout: dict | None, error: str | None, sizes: list[int]) -> tuple[str, list[str]]:
    """A plan either raised PlanError or gave every VM its requested size."""
    if layout is None:
        return digest({"error": error}), []
    got = sorted(
        (r["owner"], r["size"]) for r in layout["regions"] if r["owner"].startswith("vm")
    )
    want = sorted((f"vm{i}", size) for i, size in enumerate(sizes))
    problems = [] if got == want else [f"VM regions {got}, requested {want}"]
    return digest(layout), problems


def against_reference(name: str, value: str, reference: dict[str, str]) -> list[str]:
    expected = reference.get(name)
    if expected is None:
        return [f"no reference digest for {name}"]
    if value != expected:
        return [f"digest {value[:12]} differs from reference {expected[:12]}"]
    return []
