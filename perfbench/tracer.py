"""Per-layer tracing by wrapping public vmhammer functions from outside.

Each target is patched where it is looked up: a module function is replaced
in every loaded vmhammer module that bound it by name (harness imports
plan_siloz from layout, for example), a method is replaced on its class.
A target the program no longer defines is reported as absent; one it no
longer calls reports zero calls. Self time is a call's duration minus the
duration of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> "module:attribute" or "module:Class.method"
TARGETS = {
    "cli.main": "vmhammer.cli:main",
    "harness.run_attack": "vmhammer.harness:run_attack",
    "harness.seed_pattern": "vmhammer.harness:seed_pattern",
    "harness.replay_trace": "vmhammer.harness:replay_trace",
    "layout.plan_siloz": "vmhammer.layout:plan_siloz",
    "layout.plan_citadel": "vmhammer.layout:plan_citadel",
    "layout.find_aggressors": "vmhammer.layout:find_aggressors",
    "layout.row_footprint": "vmhammer.layout:row_footprint",
    "layout.classify_pa": "vmhammer.layout:classify_pa",
    "dram.activate_row": "vmhammer.dram:SimState.activate_row",
    "dram.access": "vmhammer.dram:SimState.access",
    "dram.refresh": "vmhammer.dram:SimState.refresh",
    "dram.write_byte": "vmhammer.dram:SimState.write_byte",
    "mapping.pa_to_coord": "vmhammer.mapping:AddressMapping.pa_to_coord",
    "mapping.coord_to_pa": "vmhammer.mapping:AddressMapping.coord_to_pa",
}
# Targets whose argument tuples are remembered, to measure how often a call
# repeats inputs already seen in the process: the property the program's
# lru_caches depend on.
KEYED = ("layout.row_footprint", "layout.find_aggressors")
PER_CALL = ("dram.activate_row", "dram.access", "mapping.pa_to_coord", "mapping.coord_to_pa")


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.repeats = dict.fromkeys(KEYED, 0)
        self.seen: dict[str, set] = {name: set() for name in KEYED}
        self.absent: list[str] = []
        self._stack = [0.0]  # per open call: time spent in wrapped children

    def install(self) -> None:
        for name, target in TARGETS.items():
            module_name, _, attr = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "vmhammer" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def reset(self) -> None:
        """Zero the counters; remembered inputs stay, so later repeats count."""
        for name in TARGETS:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        for name in KEYED:
            self.repeats[name] = 0

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        seen = self.seen.get(name)
        repeats = self.repeats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                try:
                    if key in seen:
                        repeats[name] += 1
                    else:
                        seen.add(key)
                except TypeError:  # unhashable arguments cannot repeat a cache key
                    pass
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in PER_CALL:
            calls = self.calls[name]
            out[f"{name}.us_per_call"] = self.self_s[name] / calls * 1e6 if calls else 0.0
        for name in KEYED:
            calls = self.calls[name]
            out[f"{name}.repeat_ratio"] = self.repeats[name] / calls if calls else 0.0
        out["trace.absent"] = len(self.absent)
        return out
