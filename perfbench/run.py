#!/usr/bin/env python3
"""vmhammer benchmark: runs one workload for a fixed time, prints metrics.

    python3 perfbench/run.py --workload replay --seed 0 --seconds 40 --trace 0

Samples run one at a time, each in a fresh single-threaded process
(perfbench/sample.py), for about --seconds. With --trace 0 the last stdout
line holds the end-to-end metrics named in BENCHMARK.json, as medians over
the samples; with --trace 1 it holds the per-layer metrics, from traced
samples alternating with untraced ones so the tracing overhead shows. Timings
are host time. Simulated statistics are deterministic for a seed.

The DRAM model is unvalidated against hardware: no accuracy figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from checks import combined_digest  # noqa: E402

DEADLINE_S = 170  # the whole run, set-up included, ends within this
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
MODEL_NOTE = "the DRAM model is unvalidated against hardware; no accuracy figure is given"
# Median time of one speed-probe chunk (sample.probe_chunk) on the reference
# host, a shared 2-vCPU Intel Xeon VM with Python 3.11.7, whose speed drifts
# by 20-40% over minutes. wall_adj_s scales each sample's wall time by this
# over the sample's own probe median, so the slow drift cancels.
NOMINAL_PROBE_S = 0.039


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def run_sample(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One fresh process; its result, or None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        print(f"perfbench: {workload} sample gave no result: {exc}", file=sys.stderr)
        return None
    result["setup_s"] = result["ready"] - launched
    result["traced"] = trace
    return result


def median_wall(samples: list[dict]) -> float:
    return statistics.median(sum(s["durations_s"]) for s in samples)


def adjusted_wall(sample: dict) -> float:
    """The sample's timed seconds at the reference host's speed."""
    return sum(sample["durations_s"]) * NOMINAL_PROBE_S / statistics.median(sample["probe_s"])


def end_to_end(samples: list[dict]) -> dict:
    """The end-to-end metrics, as medians over samples."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": median_wall(samples),
        "wall_adj_s": statistics.median(adjusted_wall(s) for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
    }


def us_per_access(samples: list[dict]) -> float | None:
    accesses = samples[0]["sim"]["accesses"]
    return median_wall(samples) * 1e6 / accesses if accesses else None


def summary(workload: str, samples: list[dict], attempted: int, failed: int) -> dict:
    """The figures in the workload's own terms, with units and bases."""
    e2e = end_to_end(samples)
    out = {
        "setup_s": {"value": e2e["setup_s"], "unit": "s"},
        "wall_s": {"value": e2e["wall_s"], "unit": "s"},
        "wall_adj_s": {"value": e2e["wall_adj_s"], "unit": "s"},
        "probe_ms": {
            "value": statistics.median(statistics.median(s["probe_s"]) for s in samples) * 1e3,
            "unit": "ms",
            "nominal": NOMINAL_PROBE_S * 1e3,
        },
    }
    per_access = us_per_access(samples)
    if per_access is not None:
        out["us_per_access"] = {
            "value": per_access,
            "unit": "us",
            "accesses_per_sample": samples[0]["sim"]["accesses"],
        }
    out["peak_rss_mib"] = {"value": e2e["peak_rss_mib"], "unit": "MiB"}
    out["fail_ratio"] = {
        "value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted,
    }
    parts = {
        name: statistics.median(s["parts_s"][name] for s in samples) * 1e3
        for name in samples[0]["parts_s"]
    }
    if parts:
        out["request_ms"] = parts
    if "siloz/reversed" in parts:
        out["siloz_cliff"] = {
            "reversed_ms": parts["siloz/reversed"],
            "forward_ms": parts["siloz/forward"],
            "ratio": parts["siloz/reversed"] / parts["siloz/forward"],
        }
    return {
        "workload": workload,
        "samples": len(samples),
        "digest": combined_digest([o["digest"] for o in samples[0]["outputs"]]),
        "metrics": out,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["trace"]:
        metrics[name] = statistics.median(s["trace"][name] for s in traced)
    sim = traced[0]["sim"]
    for key in ("accesses", "activations", "row_buffer_hits", "flips", "refresh_windows"):
        metrics[f"dram.{key}"] = sim[key]
    metrics["dram.hit_ratio"] = sim["row_buffer_hits"] / sim["accesses"] if sim["accesses"] else 0.0
    metrics["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
    metrics["untraced.us_per_access"] = us_per_access(untraced) or 0.0
    return metrics


def tally(samples: list[dict | None]) -> tuple[int, int]:
    """Attempted and failed outputs. Every sample repeats the same inputs, so
    its digests must match the first completed sample's; a sample that
    crashed fails every output it owed."""
    completed = [s for s in samples if s is not None]
    expected = {o["name"]: o["digest"] for o in completed[0]["outputs"]} if completed else {}
    attempted = failed = 0
    for sample in samples:
        if sample is None:
            attempted += len(expected)
            failed += len(expected)
            continue
        for out in sample["outputs"]:
            attempted += 1
            problems = list(out["problems"])
            if expected.get(out["name"]) != out["digest"]:
                problems.append("digest differs between samples of one run")
            if problems:
                failed += 1
                print(json.dumps({"failed": out["name"], "problems": problems}), file=sys.stderr)
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "vmhammer" / "__init__.py").is_file():
        print(f"perfbench: no vmhammer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"--workload must be one of {', '.join(whys)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"workload": args.workload, "why": whys[args.workload], "model": MODEL_NOTE}))

    # Launch another sample only if it should end within --seconds, judged
    # by the latest samples; the first sample, and in a traced run every
    # untraced/traced pair, always completes.
    samples: list[dict | None] = []
    durations: list[float] = []
    pair = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - started
        if DEADLINE_S - elapsed < 5:
            break
        if len(samples) >= pair and len(samples) % pair == 0:
            recent = durations[-2:]
            next_s = sum(recent) if args.trace else statistics.mean(recent)
            if elapsed + next_s > args.seconds:
                break
        traced = bool(args.trace) and len(samples) % 2 == 1
        launched = time.monotonic()
        samples.append(run_sample(args.workload, args.seed, traced, DEADLINE_S - elapsed))
        durations.append(time.monotonic() - launched)

    completed = [s for s in samples if s is not None]
    untraced = [s for s in completed if not s["traced"]]
    traced = [s for s in completed if s["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no sample completed", file=sys.stderr)
        return 1
    attempted, failed = tally(samples)
    print(json.dumps({"summary": summary(args.workload, untraced, attempted, failed)}))
    if args.trace:
        absent = sorted({name for s in traced for name in s["absent"]})
        print(json.dumps({"absent": absent}))
        computed = per_layer(untraced, traced)
    else:
        computed = end_to_end(untraced)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
