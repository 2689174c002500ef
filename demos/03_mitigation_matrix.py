"""Inter-VM attacks against allocation policies: the verdict grid.

Run as: python3 demos/03_mitigation_matrix.py
"""

from vmhammer.harness import builtin_matrix, matrix_summary, run_matrix, with_overrides

MARKS = {"MITIGATED": "mitigated", "NOT_MITIGATED": "FLIPPED", "ERROR": "error"}


def main():
    # reduced threshold keeps the demo fast; verdicts match the full scale
    scenarios = [with_overrides(sc, hc_first=100) for sc in builtin_matrix()]
    reports = run_matrix(scenarios)

    print("verdict grid (attacker vm1 hammering toward victim vm0):\n")
    summary = matrix_summary(reports)
    width = max(len(label) for row in summary.values() for label in row)
    for mitigation, row in summary.items():
        print(f"  {mitigation:>8}: ", end="")
        print("  ".join(f"{label}={MARKS[v]}" for label, v in row.items()))

    print("\nwhere the flips actually landed:")
    for report in reports:
        sc = report.scenario
        hist = dict(sorted(report.ownership_histogram.items()))
        agg = report.aggressors[0].coord
        print(f"  {sc.mitigation:>8}/{sc.label:<26} aggressor row {agg.row:>5} "
              f"-> {hist or 'no flips'}")

    print("\nreading the grid:")
    print("  none:    adjacent VM rows share a subarray, the victim flips")
    print("  siloz:   VMs get disjoint subarray groups, flips stay home")
    print("  citadel: one guard row between VMs soaks up the boundary flips")


if __name__ == "__main__":
    main()
