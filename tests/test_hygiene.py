"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    [p for p in (ROOT / "src" / "bayenet").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """(line, name) for each name an import binds that is never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scanner_finds_unused_names():
    src = "import os\nimport numpy as np\nfrom math import exp, log\nlog(2)\n"
    assert unused_imports(src) == [(1, "os"), (2, "np"), (3, "exp")]


def test_no_unused_imports():
    assert SCANNED
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in SCANNED
             for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
