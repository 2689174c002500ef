"""Structural rules of the source tree, checked over the text of every file
under src/, so a mention in a comment or a string counts as a use.

- src/ holds no assert statement and no functools cache: a check raises a
  real exception, and a cache is a cached_property of the value it belongs to.
- Counting, flips and refresh windows are SimState's own: callers use access,
  activate_row, refresh and replay, so only dram.py names the internals.
- AccessTrace._of and _freeze build a trace without checking its entries, so
  only harness.py names them.
- Aggressor discovery's helpers _nearest and _site belong to the one call
  that picks the rows to hammer, so only layout.py names them.
- gf2._eliminate is the one elimination and gf2._reduce the one reduction;
  callers reach them through analyze, coset and least, so only gf2.py
  names them.
- Layers, lowest first: gf2; mapping; dram and layout; harness. A module
  imports only the vmhammer modules listed for it in LAYERS; harness may also
  take the package's __version__ for its reports, and translates no address
  itself, so it does not import gf2. cli and the package root are not listed.

Tests may name the internals; these rules hold for src/ only. Two more rules
read the syntax tree, so only code counts:

- SimState._close_windows is the one code that closes a refresh window: no
  other function under src/ assigns a ``refresh_windows`` attribute or
  clears ``act_count`` or ``_det_flipped``.
- src/, tests/ and demos/ use only numpy 1.24's API, the oldest numpy the
  package supports: no numpy attribute added since, and no ``stable=`` to a
  sort.
- harness.render_json is the one indented renderer: no json.dump or
  json.dumps call under src/ passes ``indent``.
- gf2._reduce is the one reduction: no ``min`` or ``np.minimum`` call under
  src/ takes an argument holding a ``^``, the quadratic x = min(x, x ^ b)
  form that tests/oracles.py keeps as the reference.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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
    **dict.fromkeys(("_nearest", "_site"), PACKAGE / "layout.py"),
    **dict.fromkeys(("_eliminate", "_reduce"), PACKAGE / "gf2.py"),
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


WINDOW_OWNER = (PACKAGE / "dram.py", "SimState._close_windows")

# numpy attributes added after 1.24, which its CI entry would not find
NUMPY_SINCE_1_24 = frozenset((
    "concat", "permute_dims", "matrix_transpose", "vecdot", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "bitwise_count", "isdtype", "astype",
    "cumulative_sum", "cumulative_prod", "unstack", "matvec", "vecmat", "pow", "acos",
    "asin", "atan", "atan2", "acosh", "asinh", "atanh", "bitwise_left_shift",
    "bitwise_right_shift", "bitwise_invert", "trapezoid", "long", "ulong", "exceptions",
    "dtypes", "strings",
))


def python_nodes(*roots):
    """Every syntax node of every .py file under ``roots``, as (path, dotted
    name of the class and function it lies in, node)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from walk(child, inner)

    paths = sorted(path for root in roots for path in root.rglob("*.py"))
    assert paths, f"no Python files under {roots}"
    for path in paths:
        for scope, node in walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), ""):
            yield path, scope, node


def closes_a_window(node) -> bool:
    """Whether ``node`` assigns a ``refresh_windows`` attribute or clears
    ``act_count`` or ``_det_flipped``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
        return node.func.attr == "clear" and name in ("act_count", "_det_flipped")
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Attribute) and target.attr == "refresh_windows":
            return True
    return False


def newer_numpy(node) -> str | None:
    """What in ``node`` numpy 1.24 lacks, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [f"{node.value.id}.{node.attr}"]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.Call) and any(k.arg == "stable" for k in node.keywords):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return f"{name}(stable=...)" if "sort" in name else None
    else:
        return None
    for name in names:
        parts = name.split(".")
        if parts[0] in ("np", "numpy") and len(parts) > 1 and parts[1] in NUMPY_SINCE_1_24:
            return name
    return None


def indented_dump(node) -> bool:
    """Whether ``node`` calls ``dump`` or ``dumps`` with an ``indent``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords)


def xor_minimum(node) -> bool:
    """Whether ``node`` calls ``min`` or ``minimum`` with an argument that
    holds an XOR."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    arguments = [*node.args, *(k.value for k in node.keywords)]
    return name in ("min", "minimum") and any(
        isinstance(inner, ast.BitXor) for argument in arguments for inner in ast.walk(argument)
    )


def test_only_close_windows_closes_a_window():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: in {scope or 'the module'}"
        for path, scope, node in python_nodes(SRC)
        if closes_a_window(node) and (path, scope) != WINDOW_OWNER
    ]
    assert found == []


def test_numpy_api_is_that_of_numpy_1_24():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {what}"
        for path, _, node in python_nodes(SRC, ROOT / "tests", ROOT / "demos")
        for what in [newer_numpy(node)]
        if what
    ]
    assert found == []


def test_render_json_is_the_one_indented_renderer():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: in {scope or 'the module'}"
        for path, scope, node in python_nodes(SRC)
        if indented_dump(node)
    ]
    assert found == []


def test_gf2_reduce_is_the_one_reduction():
    for form in ("min(x, x ^ b)", "np.minimum(ids, ids ^ v, out=ids)", "min(x ^ s for s in span)"):
        assert xor_minimum(ast.parse(form).body[0].value), form
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: in {scope or 'the module'}"
        for path, scope, node in python_nodes(SRC)
        if xor_minimum(node)
    ]
    assert found == []
