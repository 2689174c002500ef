"""End-to-end CLI checks: exit codes, JSON output, and file plumbing."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vmhammer.cli import main

from oracles import tiny_noncontig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def assert_one_error(err: str) -> dict:
    """stderr holds exactly one JSON error object and nothing else."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert list(payload) == ["error"] and set(payload["error"]) == {"type", "message"}
    return payload["error"]


def write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def reduced_scenario(**overrides) -> dict:
    data = {
        "mapping": "simple",
        "vm_sizes": ["8MiB", "8MiB"],
        "hammer": {"hc_first": 64, "deterministic_mode": True},
        "aggressor_selection": "first",
    }
    data.update(overrides)
    return data


# -- validate-map -------------------------------------------------------------


def test_validate_map_preset_ok(capsys):
    code, data = stdout_json(capsys, "validate-map", "simple")
    assert code == 0
    assert data["valid"] is True
    assert data["rank"] == 32


def test_validate_map_rejects_degenerate_mapping(capsys, tmp_path, presets):
    broken = presets["simple"].to_dict()
    broken["functions"]["bank"] = [[15]]  # PA bit 15 already drives row bit 0
    path = write_json(tmp_path / "broken.json", broken)
    code, data = stdout_json(capsys, "validate-map", path)
    assert code == 1
    assert data["valid"] is False
    assert data["witness"]  # names the colliding coordinate bits


def test_validate_map_unknown_source(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate-map", "no-such-preset")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "MappingError"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{\n  nope\n")
    code, out, err = run_cli(capsys, "validate-map", str(garbled))
    assert code == 2
    assert "line 2" in json.loads(err)["error"]["message"]


# -- translate ----------------------------------------------------------------


def test_translate_pa_to_coordinate(capsys):
    code, data = stdout_json(capsys, "translate", "simple", "0x12345")
    assert code == 0
    assert data == {
        "pa": "0x00012345",
        "coordinate": {
            "channel": 0,
            "rank": 0,
            "bankgroup": 1,
            "bank": 0,
            "row": 2,
            "column": 837,
            "subarray": 0,
        },
    }


def test_translate_coordinate_to_pa(capsys):
    code, data = stdout_json(capsys, "translate", "simple", "0:0:1:0:2:837")
    assert code == 0
    assert data["pa"] == "0x00012345"


def test_translate_rejects_bad_addresses(capsys):
    for address in ("0:0:0:0:99999:0", "0:0:0:0:0", "0x100000000", "zz"):
        code, out, err = run_cli(capsys, "translate", "simple", address)
        assert (code, out) == (2, ""), address
        assert "error" in json.loads(err)


# -- plan ---------------------------------------------------------------------


def test_plan_siloz_json(capsys):
    code, data = stdout_json(capsys, "plan", "siloz", "simple", "--sizes", "16MiB,16MiB")
    assert code == 0
    assert data["contained"] == {"vm0": True, "vm1": True}
    assert data["layout"]["regions"][0]["owner"] == "vm0"
    assert {vm: len(groups) for vm, groups in data["groups"].items()} == {
        "vm0": 4, "vm1": 4,
    }


def test_plan_citadel_json(capsys):
    code, data = stdout_json(
        capsys, "plan", "citadel", "simple", "--sizes", "32MiB,32MiB"
    )
    assert code == 0
    assert [r["owner"] for r in data["regions"]] == ["vm0", "unused", "vm1"]
    assert data["regions"][1] == {"owner": "unused", "start_pa": "0x02000000", "size": 0x8000}


def test_plan_none_packs_back_to_back(capsys):
    code, data = stdout_json(capsys, "plan", "none", "simple", "--sizes", "8MiB,8MiB")
    assert code == 0
    assert [r["start_pa"] for r in data["regions"]] == ["0x00000000", "0x00800000"]


def test_plan_infeasible_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "plan", "citadel", "simple", "--sizes", "2GiB,2GiB"
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "PlanError"

    # an unmitigated plan that spills past the address space fails the same way
    code, out, err = run_cli(capsys, "plan", "none", "simple", "--sizes", "4GiB,1MiB")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "PlanError"


def test_misaligned_sizes_fail_alike_in_plan_and_attack(capsys, tmp_path):
    """Sizes that are not whole rows are one PlanError from both commands,
    under every mitigation."""
    for mitigation in ("none", "siloz", "citadel"):
        path = write_json(
            tmp_path / "odd.json",
            {"mapping": "simple", "vm_sizes": [100, 100], "mitigation": mitigation},
        )
        code, out, err = run_cli(capsys, "attack", path)
        assert (code, out) == (1, ""), mitigation
        attack_error = assert_one_error(err)
        code, out, err = run_cli(capsys, "plan", mitigation, "simple", "--sizes", "100,100")
        assert (code, out) == (1, ""), mitigation
        assert assert_one_error(err) == attack_error, mitigation
        assert attack_error["type"] == "PlanError", mitigation


def test_plan_rejects_zero_guard_rows_under_every_mitigation(capsys):
    """Only citadel places guard rows, but no mitigation accepts fewer than one."""
    for mitigation in ("none", "siloz", "citadel"):
        code, out, err = run_cli(
            capsys, "plan", mitigation, "simple", "--sizes", "16MiB,16MiB", "--guard-rows", "0"
        )
        assert (code, out) == (1, ""), mitigation
        assert assert_one_error(err) == {
            "type": "PlanError", "message": "guard_global_rows must be >= 1, got 0",
        }, mitigation


def test_plan_rejects_non_invertible_mapping(capsys, tmp_path, presets):
    broken = presets["simple"].to_dict()
    broken["functions"]["bank"] = [[13]]  # PA bit 13 already drives bankgroup bit 0
    path = write_json(tmp_path / "rank31.json", broken)
    for mitigation in ("none", "siloz", "citadel"):
        code, out, err = run_cli(capsys, "plan", mitigation, path, "--sizes", "16MiB,16MiB")
        assert (code, out) == (2, ""), mitigation
        assert assert_one_error(err)["type"] == "MappingError", mitigation


def test_plan_rejects_empty_sizes(capsys):
    code, out, err = run_cli(capsys, "plan", "siloz", "simple", "--sizes", ",")
    assert code == 2
    assert "at least one" in json.loads(err)["error"]["message"]


# -- attack ---------------------------------------------------------------------


def test_attack_scenario_file(capsys, tmp_path):
    path = write_json(tmp_path / "attack.json", reduced_scenario())
    code, data = stdout_json(capsys, "attack", path)
    assert code == 0
    assert data["verdict"] == "NOT_MITIGATED"
    assert data["scenario"]["hammer"]["hc_first"] == 64

    # the same losing verdict becomes exit 1 when mitigation was expected
    code, out, err = run_cli(capsys, "attack", path, "--expect-mitigated")
    assert code == 1
    assert json.loads(out)["verdict"] == "NOT_MITIGATED"


def test_attack_expect_mitigated_passes_siloz(capsys, tmp_path):
    path = write_json(
        tmp_path / "siloz.json",
        reduced_scenario(mitigation="siloz", vm_sizes=["16MiB", "16MiB"]),
    )
    code, data = stdout_json(capsys, "attack", path, "--expect-mitigated")
    assert code == 0
    assert data["verdict"] == "MITIGATED"


def test_attack_overrides(capsys, tmp_path):
    path = write_json(tmp_path / "attack.json", reduced_scenario())
    code, data = stdout_json(
        capsys, "attack", path,
        "--hc-first", "32", "--hammer-count", "40", "--seed", "3",
    )
    assert code == 0
    sc = data["scenario"]
    assert sc["hammer"]["hc_first"] == 32
    assert sc["hammer"]["rng_seed"] == 3
    assert sc["hammer_count"] == 40


BAD_SCENARIOS = [
    (reduced_scenario(attacker_vm="vm0", victim_vm="vm0"), "ScenarioError"),
    (reduced_scenario(hammer_count="51000"), "ScenarioError"),
    (reduced_scenario(hammer={"hc_first": "100"}), "ScenarioError"),
    (reduced_scenario(mapping={"geometry": 5, "functions": {}}), "MappingError"),
    (reduced_scenario(vm_sizes=5), "ScenarioError"),
    (reduced_scenario(hamer_count=5), "ScenarioError"),
    (reduced_scenario(hammer={"hc_first": 64, "deterministic_mode": "no"}), "ScenarioError"),
    (reduced_scenario(hammer_count=True), "ScenarioError"),
    (reduced_scenario(aggressor_selection=5), "ScenarioError"),
    (reduced_scenario(aggressor_selection=[1.5]), "ScenarioError"),
    (reduced_scenario(guard_global_rows="x"), "ScenarioError"),
    (reduced_scenario(guard_global_rows=0), "ScenarioError"),
    (
        reduced_scenario(mitigation="siloz", vm_sizes=["16MiB", "16MiB"], guard_global_rows=-5),
        "ScenarioError",
    ),
    (reduced_scenario(label=5), "ScenarioError"),
    (reduced_scenario(geometry=tiny_noncontig().geometry.to_dict()), "MappingError"),
    (
        reduced_scenario(
            mapping=tiny_noncontig().to_dict(), geometry=tiny_noncontig().geometry.to_dict()
        ),
        "ScenarioError",
    ),
]


def test_attack_scenario_errors(capsys, tmp_path):
    for data, error_type in BAD_SCENARIOS:
        path = write_json(tmp_path / "bad.json", data)
        code, out, err = run_cli(capsys, "attack", path)
        assert (code, out) == (2, ""), data
        assert assert_one_error(err)["type"] == error_type, data

    code, out, err = run_cli(capsys, "attack", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert_one_error(err)

    path = write_json(tmp_path / "matrix.json", {"scenarios": 5})
    code, out, err = run_cli(capsys, "matrix", path)
    assert (code, out) == (2, "")
    assert assert_one_error(err)["type"] == "ScenarioError"


def tiny_scenario() -> dict:
    """Every scenario field set, on the 10-bit tiny_noncontig mapping: a run
    takes milliseconds and, under citadel, flips guard rows only."""
    return {
        "mapping": tiny_noncontig().to_dict(),
        "vm_sizes": [256, 256],
        "mitigation": "citadel",
        "guard_global_rows": 1,
        "attacker_vm": "vm1",
        "victim_vm": "vm0",
        "hammer": {
            "hc_first": 8, "flip_probability": 0.5, "blast_radius": 1,
            "deterministic_mode": True, "rng_seed": 0,
        },
        "hammer_count": 12,
        "refresh_every": 100,
        "aggressor_selection": "all",
        "check_pattern": 170,
        "label": "tiny",
    }


def node_paths(node, prefix=()):
    """Paths to every value of a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from node_paths(child, prefix + (i,))


# small values only, so that no mutation starts a long attack
FUZZ_VALUES = st.one_of(
    st.text(max_size=4),
    st.floats(min_value=-4, max_value=400),
    st.booleans(),
    st.none(),
    st.integers(min_value=-2, max_value=300),
    st.lists(st.integers(min_value=-2, max_value=40), max_size=3),
    st.dictionaries(st.sampled_from(["geometry", "functions", "x"]), st.integers(0, 3), max_size=2),
)


def mutate(data, draw) -> object:
    """Swap one value, drop one key, or add one unknown key, at any depth."""
    path = draw(st.sampled_from(list(node_paths(data))))
    if not path:
        return draw(FUZZ_VALUES)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    action = draw(st.sampled_from(["swap", "drop", "add"]))
    if action == "swap" or not isinstance(parent, dict):
        parent[path[-1]] = draw(FUZZ_VALUES)
    elif action == "drop":
        del parent[path[-1]]
    else:
        parent["unknown_field"] = draw(FUZZ_VALUES)
    return data


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_mutated_scenarios_never_traceback(capsys, tmp_path, data):
    scenario = mutate(tiny_scenario(), data.draw)
    for command, payload in (("attack", scenario), ("matrix", {"scenarios": [scenario]})):
        path = write_json(tmp_path / "fuzz.json", payload)
        code, out, err = run_cli(capsys, command, path)
        assert code in (0, 1, 2), (command, scenario)
        if err:
            assert_one_error(err)


# -- matrix -----------------------------------------------------------------------


def test_matrix_scenario_file(capsys, tmp_path):
    path = write_json(
        tmp_path / "matrix.json",
        {
            "scenarios": [
                reduced_scenario(label="base"),
                reduced_scenario(
                    mitigation="siloz", vm_sizes=["16MiB", "16MiB"], label="iso"
                ),
            ]
        },
    )
    code, data = stdout_json(capsys, "matrix", path)
    assert code == 0
    assert data["summary"] == {
        "none": {"base": "NOT_MITIGATED"},
        "siloz": {"iso": "MITIGATED"},
    }
    assert [r["verdict"] for r in data["reports"]] == ["NOT_MITIGATED", "MITIGATED"]


def test_matrix_error_slot_fails(capsys, tmp_path):
    path = write_json(
        tmp_path / "matrix.json",
        {
            "scenarios": [
                reduced_scenario(label="base"),
                reduced_scenario(
                    mitigation="citadel", vm_sizes=["2GiB", "2GiB"], label="oversize"
                ),
            ]
        },
    )
    code, out, err = run_cli(capsys, "matrix", path, "--table")
    assert code == 1
    assert "!" in out  # the error slot renders as a bang in the grid
    assert "✗" in out


def test_matrix_builtin_grid_table(capsys):
    # 8 activations never cross the 64-activation threshold: all nine cells hold
    code, out, err = run_cli(
        capsys, "matrix", "--table", "--hc-first", "64", "--hammer-count", "8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["mitigation", "simple", "bank-xor", "bank-xor-noncontig-row"]
    assert [line.split()[0] for line in lines[1:]] == ["none", "siloz", "citadel"]
    assert out.count("✓") == 9 and "✗" not in out


# -- traces -----------------------------------------------------------------------


def test_gen_and_replay_trace_roundtrip(capsys, tmp_path):
    trace_path = tmp_path / "mv.trace"
    code, out, err = run_cli(
        capsys, "gen-trace", "matvec", "--rows", "2", "--cols", "2",
        "--output", str(trace_path),
    )
    assert (code, out) == (0, "")
    assert trace_path.read_text() == (
        "R 0x0\nR 0x20\nR 0x8\nR 0x28\nR 0x10\nR 0x20\nR 0x18\nR 0x28\n"
    )

    code, data = stdout_json(capsys, "replay-trace", str(trace_path), "simple")
    assert code == 0
    assert data["stats"]["accesses"] == 8
    assert data["stats"]["activations"] == 1  # 64 bytes inside one row
    assert data["flips"] == []


def test_gen_trace_argument_validation(capsys):
    code, out, err = run_cli(capsys, "gen-trace", "strided", "--count", "4")
    assert code == 2
    assert "--stride" in json.loads(err)["error"]["message"]

    code, out, err = run_cli(
        capsys, "gen-trace", "toggle", "--mask", "0x40", "--count", "4",
        "--base", "0xffffffff", "--limit", "0x1000",
    )
    assert code == 2
    assert "overflows" in json.loads(err)["error"]["message"]

    for args in (
        ("strided", "--stride", "-8", "--count", "3"),
        ("sequential", "--base", "-2", "--count", "3"),
    ):
        code, out, err = run_cli(capsys, "gen-trace", *args)
        assert (code, out) == (2, ""), args
        assert "is negative" in assert_one_error(err)["message"], args

    empty = [
        (("sequential", "--count", "0", "--limit", "0x10"), "count"),
        (("sequential", "--count", "0"), "count"),
        (("sequential", "--count", "-3"), "count"),
        (("strided", "--stride", "8", "--count", "0"), "count"),
        (("toggle", "--mask", "0x40", "--count", "0"), "count"),
        (("matvec", "--rows", "0", "--cols", "4"), "rows"),
        (("matvec", "--rows", "4", "--cols", "-1"), "cols"),
    ]
    for args, field in empty:
        code, out, err = run_cli(capsys, "gen-trace", *args)
        assert (code, out) == (2, ""), args
        assert json.loads(err)["error"]["message"].startswith(f"{field} must be >= 1"), args


def test_replay_trace_flips_under_hammering(capsys, tmp_path):
    trace_path = tmp_path / "hammer.trace"
    code, out, err = run_cli(
        capsys, "gen-trace", "toggle", "--base", "0x80000000", "--mask", "0x8000",
        "--count", "40", "--output", str(trace_path),
    )
    assert code == 0
    code, data = stdout_json(
        capsys, "replay-trace", str(trace_path), "simple",
        "--hc-first", "8", "--deterministic",
    )
    assert code == 0
    assert data["stats"]["activations"] == 40
    flipped_rows = {f["coord"]["row"] for f in data["flips"]}
    assert flipped_rows == {0, 1, 2}  # neighbors of hammered rows 0 and 1


def test_replay_trace_rejects_zero_refresh_period(capsys, tmp_path):
    trace = tmp_path / "one.trace"
    trace.write_text("R 0x10\n")
    code, out, err = run_cli(capsys, "replay-trace", str(trace), "simple", "--refresh-every", "0")
    assert (code, out) == (2, "")
    assert "refresh_every" in assert_one_error(err)["message"]


def test_replay_trace_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("R 0x10\nQ 0x20\n")
    code, out, err = run_cli(capsys, "replay-trace", str(bad), "simple")
    assert code == 2
    assert "line 2" in json.loads(err)["error"]["message"]


# -- shared plumbing -----------------------------------------------------------


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "validate-map", "bank-xor", "--output", str(target)
    )
    assert (code, out, err) == (0, "", "")
    assert json.loads(target.read_text())["valid"] is True


def test_usage_errors(capsys):
    for argv in (
        ["no-such-command"],
        [],
        ["plan", "siloz", "simple"],  # --sizes is required
        ["plan", "bogus", "simple", "--sizes", "1MiB"],
        ["plan", "citadel", "simple", "--sizes", "256MiB", "--guard-rows", "x"],
        ["validate-map", "simple", "--no-such-flag"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert assert_one_error(err)["type"] == "ArgumentError", argv
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--version")[0] == 0


def test_subcommands_reject_flags_they_ignore(capsys, tmp_path):
    trace_path = tmp_path / "one.trace"
    trace_path.write_text("R 0x0\n")
    for argv in (
        ["translate", "simple", "0x10", "--seed", "4"],
        ["translate", "simple", "0x10", "--hammer-count", "9"],
        ["translate", "simple", "0x10", "--deterministic"],
        ["translate", "simple", "0x10", "--hc-first", "8"],
        ["replay-trace", str(trace_path), "simple", "--hammer-count", "9"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in assert_one_error(err)["message"], argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vmhammer", "translate", "simple", "0x12345"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pa"] == "0x00012345"
