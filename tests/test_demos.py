"""Every demo script and every python example in README.md runs to completion
against the package in src/, and the README's matrix table is what the
command prints."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the refresh line needs the state's own window to close every 100
# activations; the probabilistic line pins the rng draws and their order
BITFLIP_THRESHOLD_STDOUT = """\
100 activations: 0 flips
101 activations: 2 flips in rows [255, 257] (both neighbors of 256)

4 bursts of 100 with refresh between: 0 flips, 4 refresh windows

blast radius 2 at subarray edge row 511: flips in rows [509, 510] (rows 512+ belong to the next subarray)

probabilistic mode, 400 activations past threshold at p=0.05: 35 flips (repeats toggle the same bits back and forth)
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_bitflip_threshold_demo_output():
    result = run_python(str(ROOT / "demos" / "02_bitflip_threshold.py"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == BITFLIP_THRESHOLD_STDOUT


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        result = run_python("-c", block)
        assert result.returncode == 0, block + result.stderr


def test_readme_matrix_table_is_the_command_output():
    command = "vmhammer matrix --table --hc-first 200 --deterministic"
    (table,) = re.findall(rf"^\$ {command}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    result = run_python("-m", *command.split())
    assert result.returncode == 0, result.stderr
    assert result.stdout == table
