"""RowHammer at the row level: activation counting, refresh, blast radius.

Run as: python3 demos/02_bitflip_threshold.py
"""

from vmhammer import builtin_mappings
from vmhammer.dram import HammerParams, SimState
from vmhammer.mapping import DramCoordinate

HC_FIRST = 100  # desk-scale threshold so the demo runs in a blink
MAPPING = builtin_mappings()["simple"]


def fresh_state(deterministic=True, **overrides):
    params = HammerParams(
        hc_first=HC_FIRST, deterministic_mode=deterministic, **overrides
    )
    return SimState(MAPPING, params)


def main():
    aggressor = DramCoordinate(0, 0, 0, 0, row=256, column=0)

    # staying at the threshold is safe; one more activation is not
    state = fresh_state()
    state.activate_row(aggressor, HC_FIRST)
    print(f"{HC_FIRST} activations: {len(state.collect_flips())} flips")
    state.activate_row(aggressor)
    flips = state.collect_flips()
    print(f"{HC_FIRST + 1} activations: {len(flips)} flips in rows "
          f"{sorted(f.coord.row for f in flips)} (both neighbors of 256)\n")

    # the state closes its refresh window every refresh_every activations,
    # here before the threshold is passed
    params = HammerParams(hc_first=HC_FIRST, deterministic_mode=True)
    state = SimState(MAPPING, params, refresh_every=HC_FIRST)
    for burst in range(4):
        state.activate_row(aggressor, HC_FIRST)
    print(f"4 bursts of {HC_FIRST} with refresh between: "
          f"{len(state.collect_flips())} flips, "
          f"{state.stats.refresh_windows} refresh windows\n")

    # a wider blast radius reaches further, but never across a subarray seam
    state = fresh_state(blast_radius=2)
    edge = DramCoordinate(0, 0, 0, 0, row=511, column=0)  # last row of subarray 0
    state.activate_row(edge, HC_FIRST + 1)
    rows = sorted(f.coord.row for f in state.collect_flips())
    print(f"blast radius 2 at subarray edge row 511: flips in rows {rows} "
          "(rows 512+ belong to the next subarray)\n")

    # probabilistic mode draws per excess activation instead of latching
    state = fresh_state(deterministic=False, flip_probability=0.05, rng_seed=7)
    state.activate_row(aggressor, HC_FIRST + 400)
    flips = state.collect_flips()
    print(f"probabilistic mode, 400 activations past threshold at p=0.05: "
          f"{len(flips)} flips (repeats toggle the same bits back and forth)")


if __name__ == "__main__":
    main()
