"""Structural rules of the source tree, checked over the text of every file
under src/, so a mention in a comment or a string counts as a use.

- src/ holds no assert statement and no functools cache: a check raises a
  real exception, and a cache is a cached_property of the value it belongs to.
- Counting, flips and refresh windows are SimState's own: callers use access,
  activate_row, refresh and replay, so only dram.py names the internals.
- AccessTrace._of and _freeze build a trace without checking its entries, so
  only harness.py names them.
- Layers, lowest first: gf2; mapping; dram and layout; harness. A module
  imports only the vmhammer modules listed for it in LAYERS; harness may also
  take the package's __version__ for its reports, and translates no address
  itself, so it does not import gf2. cli and the package root are not listed.

Tests may name the internals; these rules hold for src/ only.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "vmhammer"

FORBIDDEN = re.compile(
    r"^\s*assert(?![A-Za-z0-9_])|lru_cache|functools\.cache(?![A-Za-z0-9_])"
    r"|from functools import .*(?<![A-Za-z0-9_])cache(?![A-Za-z0-9_])"
)

# name -> the one file under src/ that may name it
OWNERS = {
    **dict.fromkeys(
        ("_activate", "_close_windows", "_open_rows", "_maybe_flip", "_access_chunk"),
        PACKAGE / "dram.py",
    ),
    **dict.fromkeys(("_of", "_freeze"), PACKAGE / "harness.py"),
}

# module -> the vmhammer names it may import from
LAYERS = {
    "gf2": (),
    "mapping": ("gf2",),
    "dram": ("gf2", "mapping"),
    "layout": ("gf2", "mapping"),
    "harness": ("mapping", "dram", "layout", "__version__"),
}

IMPORT = re.compile(r"^\s*(from \.|from vmhammer|import vmhammer)")


def source_files():
    """Every file under src/ but compiled bytecode, with its text."""
    files = [
        path for path in sorted(SRC.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc"
    ]
    assert files, f"no files under {SRC}"
    return [(path, path.read_text(encoding="utf-8", errors="replace")) for path in files]


def violations(rule):
    """The ``path:line: text`` of every line under src/ that breaks ``rule``."""
    found = []
    for path, text in source_files():
        for lineno, line in enumerate(text.split("\n"), start=1):
            if rule(path, line):
                found.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    return found


def test_no_assert_statements_or_functools_caches():
    assert violations(lambda path, line: FORBIDDEN.search(line)) == []


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_internals_are_named_only_by_their_owner(name):
    word = re.compile(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])")
    assert violations(lambda path, line: path != OWNERS[name] and word.search(line)) == []


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_modules_import_only_lower_layers(module):
    allowed = "|".join(LAYERS[module]) or "(?!)"  # gf2 imports nothing
    ok = re.compile(
        rf"\s*from (\.|vmhammer\.)({allowed}) import |\s*from (\.|vmhammer) import ({allowed})$"
    )
    path = PACKAGE / f"{module}.py"
    assert violations(
        lambda p, line: p == path and IMPORT.match(line) and not ok.match(line)
    ) == []
