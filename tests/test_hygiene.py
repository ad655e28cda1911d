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


def top_level_definitions(source):
    """(line, name) of each function and class defined at module level,
    and (line, "Class.method") of each non-dunder method of such a
    class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, kinds):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.lineno, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__")
                         and item.name.endswith("__")))
    return found


def referenced_names(source):
    """Every name a module reads, imports, or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def unreferenced_definitions(defining, used):
    """(line, name) of each definition top_level_definitions finds in
    `defining` whose name (a method's own name) is not in `used`."""
    return [(line, name) for line, name in top_level_definitions(defining)
            if name.rpartition(".")[2] not in used]


def test_scanner_finds_unreferenced_definitions():
    lib = ("def used():\n    return 1\n\ndef helper():\n    return 2\n\n"
           "def orphan():\n    return used()\n\nclass Gone:\n    pass\n\n"
           "class Kept:\n    def __init__(self):\n        self.x = 1\n\n"
           "    def called(self):\n        return self.x\n\n"
           "    def dead(self):\n        return 0\n")
    user = "from lib import helper\nimport lib\nlib.Kept().called()\n"
    used = referenced_names(lib) | referenced_names(user)
    assert unreferenced_definitions(lib, used) == [
        (7, "orphan"), (10, "Gone"), (20, "Kept.dead")]


def test_no_unreferenced_definitions():
    src_files = sorted((ROOT / "src" / "bayenet").glob("*.py"))
    used = set().union(*(
        referenced_names(p.read_text())
        for p in src_files + sorted((ROOT / "tests").glob("*.py"))))
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in src_files
             for line, name in unreferenced_definitions(p.read_text(), used)]
    assert not found, "defined but never referenced:\n" + "\n".join(found)


# Top-level src/ definitions that only tests read, each with the reason
# it stays.  A definition that loses its last src/ reader must be deleted
# or listed here; one that gains a src/ reader must leave the list.
TEST_ONLY = {
    "PiecewiseExpEnvelope.log_value":
        "tests check through it that a hull bounds its target",
    "log_integrated_likelihood":
        "tests pin _log_likelihood to the closed form through it",
    "log_prior_beta":
        "tests reach _log_prior through it (direct representation)",
    "log_prior_da":
        "tests reach _log_prior through it (augmented representation)",
    "log_prior_tau2":
        "the reference density in the KS test of sample_tau2_prior",
    "sample_beta_prior_direct":
        "the only user of model.sample_truncated_normal, a tracer site",
    "axis_slope_jump":
        "tests check the planar oracle's kink at an axis through it",
}


def test_test_only_definitions_are_listed():
    src_files = sorted((ROOT / "src" / "bayenet").glob("*.py"))
    used = set().union(*(referenced_names(p.read_text())
                         for p in src_files))
    found = {name for p in src_files
             for _, name in unreferenced_definitions(p.read_text(), used)}
    listed = set(TEST_ONLY)
    assert found == listed, (
        f"read only by tests but not listed: {sorted(found - listed)}; "
        f"listed but read in src/: {sorted(listed - found)}")


def module_constants(source):
    """(line, name) of each non-dunder name a module-level assignment
    binds."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found.extend(
            (node.lineno, sub.id) for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not (sub.id.startswith("__") and sub.id.endswith("__")))
    return found


def read_names(source):
    """Every name a module reads: a loaded name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_scanner_finds_unread_constants():
    lib = ("KEPT = 1\nGONE = 2\nA, (B, C) = 1, (2, 3)\n__all__ = []\n"
           "TABLE: dict = {}\n\ndef f():\n    LOCAL = KEPT\n    return B\n")
    user = "import lib\nprint(lib.C)\n"
    read = read_names(lib) | read_names(user)
    assert [(line, name) for line, name in module_constants(lib)
            if name not in read] == [(2, "GONE"), (3, "A"), (5, "TABLE")]


def test_no_unread_module_constants():
    src_files = sorted((ROOT / "src" / "bayenet").glob("*.py"))
    read = set().union(*(
        read_names(p.read_text())
        for p in src_files + sorted((ROOT / "tests").glob("*.py"))))
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in src_files
             for line, name in module_constants(p.read_text())
             if name not in read]
    assert not found, "assigned but never read:\n" + "\n".join(found)


def stored_attributes(source):
    """(line, "Class.name") of each class-level annotated field and each
    `self.name =` assignment inside a class."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        found.extend(
            (item.lineno, f"{cls.name}.{item.target.id}")
            for item in cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name))
        found.extend(
            (node.lineno, f"{cls.name}.{node.attr}")
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")
    return found


def loaded_attributes(source):
    """Every attribute name a module reads as `obj.name`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_scanner_finds_unread_attributes():
    lib = ("class A:\n    kept: int\n    gone: int = 0\n\n"
           "    def __init__(self):\n        self.x = 1\n"
           "        self.y = self.x\n        self.z = 2\n")
    user = "def f(a):\n    return a.y + a.kept\n"
    read = loaded_attributes(lib) | loaded_attributes(user)
    assert [(line, name) for line, name in stored_attributes(lib)
            if name.rpartition(".")[2] not in read] == [(3, "A.gone"),
                                                         (8, "A.z")]


# Stored attributes that no src/ code reads, each with the reason it
# stays.  An attribute that loses its last src/ reader must be deleted
# or listed here; one that gains a src/ reader must leave the list.
UNREAD_IN_SRC = {
    "CdfTable.log_mass":
        "tests check the quadrature normalizer through it",
}


def test_stored_attributes_are_read():
    src_files = sorted((ROOT / "src" / "bayenet").glob("*.py"))
    read = set().union(*(loaded_attributes(p.read_text())
                         for p in src_files))
    found = {name for p in src_files
             for _, name in stored_attributes(p.read_text())
             if name.rpartition(".")[2] not in read}
    listed = set(UNREAD_IN_SRC)
    assert found == listed, (
        f"stored but never read in src/, not listed: "
        f"{sorted(found - listed)}; listed but read in src/: "
        f"{sorted(listed - found)}")
