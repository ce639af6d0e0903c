"""Every name a module under src/ or tests/ imports is used in that
module.  An import line marked `# noqa: F401` is exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_honours_noqa():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "import xml.dom\n"
              "def f(x: Path) -> int:\n"
              "    return dumps(x) + xml.dom\n"
              "from pathlib import Path\n")
    assert unused_imports(source) == [(1, "os"), (3, "loads")]
