import os
import resource
import subprocess
import sys
import tempfile
import time

import pytest

from vmhammer import builtin_mappings, default_geometry

PRESET_NAMES = ("simple", "bank-xor", "bank-xor-noncontig-row")


@pytest.fixture(scope="session")
def geometry():
    return default_geometry()


@pytest.fixture(scope="session")
def presets():
    return builtin_mappings()


@pytest.fixture(scope="session", params=PRESET_NAMES)
def preset(request, presets):
    return presets[request.param]


def _vmhammer_under_1gib(argv, timeout=60, cap=1 << 30):
    """Run ``python -m vmhammer *argv`` under an address-space cap of ``cap``
    bytes, 1 GiB unless given, set in the child only.

    Returns the finished process and its own peak RSS in KiB, read from
    the rusage ``os.wait4`` gives for that one child. Raises
    ``subprocess.TimeoutExpired`` after killing a child that outlives
    ``timeout`` seconds.
    """
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "vmhammer", *argv],
            stdout=out,
            stderr=err,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        )
        deadline = time.monotonic() + timeout
        pid = 0
        while not pid:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise subprocess.TimeoutExpired(proc.args, timeout)
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read())
        return done, usage.ru_maxrss


@pytest.fixture(scope="session")
def vmhammer_under_1gib():
    return _vmhammer_under_1gib


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    lines = []
    for outcome, reports in sorted(terminalreporter.stats.items()):
        for report in reports:
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and outcome != "error":
                continue
            name = nodeid.split("::")[-1].removeprefix("test_")
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, f"ACCEPTANCE {name}: {verdict}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
