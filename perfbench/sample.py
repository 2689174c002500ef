"""One benchmark sample: set up one workload, run its timed calls, check them.

Run by run.py in a fresh single-threaded process per sample, so the
module-level lru_caches of vmhammer start empty, as they do for every CLI
invocation. Prints one JSON object on its last stdout line.

    python3 perfbench/sample.py --workload replay --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0

sys.path.insert(0, str(HERE))
from checks import (  # noqa: E402
    against_reference,
    check_plan,
    check_replay,
    check_report,
)

MATRIX_VERDICTS = {"none": "NOT_MITIGATED", "siloz": "MITIGATED", "citadel": "MITIGATED"}
PROBE_CHUNKS = 8  # speed-probe timings taken before and again after the timed calls


@dataclasses.dataclass
class Call:
    """One timed call.

    check(result) returns the checked outputs as [(name, digest, problems)]
    and the simulated statistics seen as [(Stats dict, flip count)]. Seeded
    outputs are compared with the reference digests only at the default seed.
    """

    name: str
    run: object
    check: object
    seeded: bool
    parts: dict = dataclasses.field(default_factory=dict)  # sub-call seconds


def import_vmhammer():
    src = ROOT / "src"
    if not (src / "vmhammer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vmhammer sources under {src}")
    sys.path.insert(0, str(src))
    import vmhammer
    import vmhammer.cli

    if Path(vmhammer.__file__).resolve().parent != (src / "vmhammer").resolve():
        sys.exit(f"perfbench: imported vmhammer from {vmhammer.__file__}, not {src}")
    return vmhammer


def probe_chunk() -> None:
    """A fixed pure-Python loop of dict, tuple and integer work, about 40 ms
    on the reference host. It does not touch vmhammer, so its time tracks
    only how fast the shared host runs the interpreter at that moment. Its
    dict holds 4,096 keys, well under a MiB, so it leaves peak RSS alone."""
    counts = {}
    for i in range(80_000):
        key = (i & 63, (i >> 6) & 63)
        counts[key] = counts.get(key, 0) + (i ^ (i >> 3)) % 7


def probe_times() -> list[float]:
    """Seconds of PROBE_CHUNKS probe chunks, with the cyclic collector off so
    that the program's heap cannot make them slower."""
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_CHUNKS):
            start = time.perf_counter()
            probe_chunk()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


# -- workloads: each returns the timed calls, after all set-up is done ---------


def setup_matrix(vmh, seed: int, workdir: str) -> list[Call]:
    out = os.path.join(workdir, "matrix.json")

    def run():
        return vmh.cli.main(["matrix", "--output", out])

    def check(code):
        with open(out, encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        outputs, sim = [], []
        for report in reports:
            if "error" in report:
                name = f"{report['mitigation']}/{report['label']}"
                outputs.append((name, "", [f"cell failed: {report['error']}"]))
                continue
            mitigation = report["scenario"]["mitigation"]
            name = f"{mitigation}/{report['scenario']['label']}"
            outputs.append((name, *check_report(report, MATRIX_VERDICTS[mitigation])))
            sim.append((report["stats"], len(report["flips"])))
        if code != 0:
            outputs.append(("exit_code", "", [f"vmhammer matrix exited {code}"]))
        return outputs, sim

    return [Call("matrix", run, check, seeded=False)]


def mixed_trace(vmh, seed: int, length: int):
    """Row-conflicting reads with one write in four, under the simple preset:
    addresses fall in 16 random rows of bank 0, any bank group and column."""
    rng = random.Random(seed)
    rows = rng.sample(range(1 << 16), 16)
    entries = []
    for i in range(length):
        pa = (rng.choice(rows) << 15) | rng.getrandbits(15)
        if i % 4 == 3:
            entries.append(("write", pa, rng.getrandbits(8)))
        else:
            entries.append(("read", pa, None))
    return vmh.AccessTrace(tuple(entries))


def setup_replay(vmh, seed: int, workdir: str) -> list[Call]:
    harness = vmh.harness
    presets = vmh.builtin_mappings()
    params = vmh.HammerParams()
    matvec = harness.matvec_trace(256, 256, 0)
    mixed = mixed_trace(vmh, seed, len(matvec))
    calls = []
    for name, trace, preset, seeded in (
        ("matvec/simple", matvec, "simple", False),
        ("matvec/bank-xor", matvec, "bank-xor", False),
        ("mixed/simple", mixed, "simple", True),
    ):
        mapping = presets[preset]
        digits = max(1, (mapping.geometry.address_width + 3) // 4)

        def check(result, name=name, trace=trace, geo=mapping.geometry, digits=digits):
            stats, flips = result
            flip_dicts = [f.to_dict(geo, digits) for f in flips]
            outputs = [(name, *check_replay(stats.to_dict(), flip_dicts, len(trace)))]
            return outputs, [(stats.to_dict(), len(flips))]

        calls.append(
            Call(
                name,
                lambda t=trace, m=mapping: harness.replay_trace(t, m, params),
                check,
                seeded,
            )
        )
    return calls


def reduced_mappings(vmh) -> dict:
    """4096 rows of 512 per subarray, bank = PA27 ^ PA6 as in bank-xor.
    Row bits come from PA 15..26 LSB-first (forward) or MSB-first (reversed);
    the reversed mapping shrinks the siloz group stride to 32 KiB."""
    geo = vmh.Geometry(
        channels=1, ranks=1, bankgroups=4, banks=2,
        rows=4096, columns=8192, rows_per_subarray=512,
    )
    common = {"column": [[b] for b in range(13)], "bankgroup": [[13], [14]], "bank": [[27, 6]]}
    return {
        "forward": vmh.AddressMapping.build(geo, dict(common, row=[[b] for b in range(15, 27)])),
        "reversed": vmh.AddressMapping.build(geo, dict(common, row=[[b] for b in range(26, 14, -1)])),
    }


def setup_plan(vmh, seed: int, workdir: str) -> list[Call]:
    """One timed call issuing all ten planner requests back to back: the
    requests range from 0.5 ms to seconds, so per-request latency
    percentiles would swap ranks between samples. Each request's time is
    kept in Call.parts for the summary."""
    requests = []
    for name, mapping in vmh.builtin_mappings().items():
        requests.append((f"siloz/{name}", mapping, [16 << 20] * 2))
        requests.append((f"citadel/{name}", mapping, [256 << 20] * 2))
    for name, mapping in reduced_mappings(vmh).items():
        requests.append((f"siloz/{name}", mapping, [1 << 20] * 2))
        requests.append((f"citadel/{name}", mapping, [1 << 20] * 2))
    layout_mod = vmh.layout
    parts: dict[str, float] = {}

    def run():
        results = []
        for name, mapping, sizes in requests:
            start = time.perf_counter()
            try:
                if name.startswith("siloz"):
                    result = layout_mod.plan_siloz(mapping, list(sizes)).layout
                else:
                    result = layout_mod.plan_citadel(mapping, list(sizes), 1)
            except vmh.PlanError as exc:
                result = exc
            parts[name] = time.perf_counter() - start
            results.append(result)
        return results

    def check(results):
        outputs = []
        for (name, mapping, sizes), result in zip(requests, results):
            if isinstance(result, Exception):
                outputs.append((name, *check_plan(None, type(result).__name__, sizes)))
                continue
            digest, problems = check_plan(result.to_dict(), None, sizes)
            problems += vmh.check_layout(result, mapping.geometry)
            outputs.append((name, digest, problems))
        return outputs, []

    return [Call("plan", run, check, seeded=False, parts=parts)]


WORKLOADS = {
    "matrix": setup_matrix,
    "replay": setup_replay,
    "plan": setup_plan,
}


SIM_KEYS = ("accesses", "activations", "row_buffer_hits", "refresh_windows")


def sim_counts(seen) -> dict[str, int]:
    """Simulated statistics summed over the timed calls' returned Stats."""
    totals = dict.fromkeys(SIM_KEYS + ("flips",), 0)
    for stats, flips in seen:
        for key in SIM_KEYS:
            totals[key] += stats[key]
        totals["flips"] += flips
    return totals


def checked_outputs(calls, results, seed: int, reference: dict) -> tuple[list, list]:
    """Checked outputs as dicts, and the simulated statistics they carried."""
    outputs, seen = [], []
    for call, result in zip(calls, results):
        try:
            if isinstance(result, Exception):
                raise result
            checked, stats = call.check(result)
        except Exception as exc:  # a crashed call or malformed output fails, the rest go on
            traceback.print_exception(exc, file=sys.stderr)
            checked, stats = [(call.name, "", [f"{type(exc).__name__}: {exc}"])], []
        seen += stats
        for name, digest, problems in checked:
            if seed == DEFAULT_SEED or not call.seeded:
                problems = problems + against_reference(name, digest, reference)
            outputs.append({"name": name, "digest": digest, "problems": problems})
    return outputs, seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vmh = import_vmhammer()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        calls = WORKLOADS[args.workload](vmh, args.seed, workdir)
        ready = time.monotonic()
        probe = probe_times()
        if tracer:
            tracer.reset()
        durations, results = [], []
        for call in calls:
            start = time.perf_counter()
            try:
                result = call.run()
            except Exception as exc:  # counted as a failed output by checked_outputs
                result = exc
            durations.append(time.perf_counter() - start)
            results.append(result)
        trace_metrics = tracer.metrics() if tracer else None
        probe += probe_times()
        outputs, seen = checked_outputs(calls, results, args.seed, reference)

    print(json.dumps({
        "ready": ready,
        "durations_s": durations,
        "probe_s": probe,
        "parts_s": {k: v for call in calls for k, v in call.parts.items()},
        "outputs": outputs,
        "sim": sim_counts(seen),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": trace_metrics,
        "absent": tracer.absent if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
