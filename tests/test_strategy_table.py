"""Design invariants: the CLI reads its strategies from one table, and
one module picks the MD5.

Only the scan kernel's loop source, `_spec_loop`, may still branch on a
strategy's name; every other function takes what it needs from the table.
Only `strategies.py` imports an MD5 module; the rest take its `_md5`.
"""

import ast
from pathlib import Path

from shardbench import cli

PACKAGE = Path(cli.__file__).parent
MD5_MODULES = {"hashlib", "_md5"}
NAMES = {"letter", "ascii-sum", "mapping", "md5"}
ALLOWED = {"_spec_loop"}


def _names_in(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_in(element) for element in node.elts)
    return False


def _name_switches(source: str) -> list[str]:
    """`function:line` of each comparison against a strategy-name literal."""
    sites = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if function.name in ALLOWED:
            continue
        for node in ast.walk(function):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(map(_names_in, operands)):
                sites.append(f"{function.name}:{node.lineno}")
    return sorted(set(sites))


def test_only_the_kernel_switches_on_strategy_names():
    assert _name_switches(Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_switch():
    source = ("def f(name):\n    if name in ('md5', 'x'):\n        pass\n"
              "    return 'letter' != name\n")
    assert _name_switches(source) == ["f:2", "f:4"]


def _md5_imports(source: str) -> list[int]:
    """Lines that import the module `hashlib` or `_md5`, or a name from one of them."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = {node.module}
        else:
            continue
        if modules & MD5_MODULES:
            lines.append(node.lineno)
    return lines


def test_only_strategies_imports_an_md5_module():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if _md5_imports(path.read_text(encoding="utf-8"))]
    assert importers == ["strategies.py"]


def test_the_md5_check_sees_an_import():
    source = "import os, hashlib\nfrom _md5 import md5\nfrom .strategies import _md5\n"
    assert _md5_imports(source) == [1, 2]
