"""Source hygiene checks that need only the standard library."""

import ast
from collections import Counter
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
    "ChainOutput.column":
        "the library's lookup of a parameter's draws by name (README)",
    "sample_beta_prior_direct":
        "the only user of model.sample_truncated_normal, a tracer site",
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


def loaded_attributes(tree):
    """How often a syntax tree reads each attribute name as `obj.name`."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def stored_attributes(source):
    """(line, "Class.name", own reads) of each class-level annotated
    field and each `self.name =` assignment in a method, where own reads
    counts the method's own `obj.name` reads (0 for a field): a value
    read only where it is stored is not used."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        found.extend(
            (item.lineno, f"{cls.name}.{item.target.id}", 0)
            for item in cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name))
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            own = loaded_attributes(method)
            found.extend(
                (node.lineno, f"{cls.name}.{node.attr}", own[node.attr])
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")
    return found


def unread_attributes(sources):
    """The stored attributes of the sources read nowhere but where they
    are stored."""
    read = sum((loaded_attributes(ast.parse(s)) for s in sources),
               Counter())
    return [(line, name) for s in sources
            for line, name, own in stored_attributes(s)
            if read[name.rpartition(".")[2]] <= own]


def test_scanner_finds_unread_attributes():
    lib = ("class A:\n    kept: int\n    gone: int = 0\n\n"
           "    def __init__(self):\n        self.x = 1\n"
           "        self.y = self.x\n        self.z = 2\n")
    user = "def f(a):\n    return a.y + a.kept\n"
    # x is read only in the method that stores it
    assert unread_attributes([lib, user]) == [(3, "A.gone"), (6, "A.x"),
                                              (8, "A.z")]


# Stored attributes that no src/ code reads outside the method that
# stores them, each with the reason it stays.  An attribute that loses
# its last such src/ reader must be deleted or listed here; one that
# gains one must leave the list.
UNREAD_IN_SRC = {
    "CdfTable.log_mass":
        "tests check the quadrature normalizer through it",
}


def test_stored_attributes_are_read():
    found = {name for _, name in unread_attributes(
        [p.read_text()
         for p in sorted((ROOT / "src" / "bayenet").glob("*.py"))])}
    listed = set(UNREAD_IN_SRC)
    assert found == listed, (
        f"stored but never read in src/, not listed: "
        f"{sorted(found - listed)}; listed but read in src/: "
        f"{sorted(listed - found)}")


def class_table(sources):
    """Class name -> (base names, __slots__ names, {method: attribute
    names it stores on its first argument}) for each class the sources
    define."""
    table = {}
    for source in sources:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots, methods = (), {}
            for item in cls.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    slots = ast.literal_eval(item.value)
                    slots = (slots,) if isinstance(slots, str) else slots
                elif isinstance(item, ast.FunctionDef) and item.args.args:
                    me = item.args.args[0].arg
                    methods[item.name] = {
                        node.attr for node in ast.walk(item)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == me}
            bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            table[cls.name] = (bases, tuple(slots), methods)
    return table


def unstored_slots(sources):
    """"Class.name" for each __slots__ name of a class, its own or
    inherited, that no method the class resolves stores: a slot never
    stored is dead, and reading it raises AttributeError."""
    table = class_table(sources)

    def lineage(name):
        # the class, then its ancestors among the sources' classes,
        # depth first: the method order of single inheritance
        order = [name]
        for base in table[name][0]:
            if base in table:
                order += [c for c in lineage(base) if c not in order]
        return order

    found = []
    for name in table:
        chain = lineage(name)
        resolved = {}
        for cls in chain:
            for method, stored in table[cls][2].items():
                resolved.setdefault(method, stored)
        stored = set().union(*resolved.values())
        found.extend(f"{name}.{slot}" for cls in chain
                     for slot in table[cls][1] if slot not in stored)
    return found


def test_scanner_finds_unstored_slots():
    # Kid's own __init__ hides Base's, the only method storing b
    lib = ("class Base:\n    __slots__ = ('a', 'b')\n\n"
           "    def __init__(self):\n        self.a = self.b = 1\n\n"
           "class Kid(Base):\n    __slots__ = 'c'\n\n"
           "    def __init__(me):\n        me.c = 2\n\n"
           "    def more(me):\n        me.a, x = 3, 4\n\n"
           "class Plain(ValueError):\n    pass\n")
    assert unstored_slots([lib]) == ["Kid.b"]


def test_every_slot_is_stored():
    found = unstored_slots(
        [p.read_text()
         for p in sorted((ROOT / "src" / "bayenet").glob("*.py"))])
    assert not found, "slots no resolved method stores: " + ", ".join(found)


# The scale blocks, rejection and Metropolis, and the sums and log
# densities they read: one expression per prior form, the same in both
# representations, which decide only the coefficient and latent-scale
# blocks.
SCALE_FUNCTIONS = {
    "kernels.py": ("update_u1_common", "update_u2_common",
                   "update_theta_common", "update_sigma2_differential_rs",
                   "update_u2_differential", "update_theta_differential",
                   "update_lambda2", "mh_update_scales"),
    "model.py": ("coefficient_sums", "log_posterior_unnorm"),
}
REPRESENTATION_NAMES = {"representation", "da"}


def representation_reads(source, functions):
    """(function, line) of each name, attribute or parameter called
    `representation` or `da` in the named module-level functions, and
    the names of those functions the module does not define."""
    defined = {node.name: node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    found = sorted({
        (name, node.lineno)
        for name in functions if name in defined
        for node in ast.walk(defined[name])
        if (isinstance(node, ast.Name) and node.id in REPRESENTATION_NAMES)
        or (isinstance(node, ast.Attribute)
            and node.attr in REPRESENTATION_NAMES)
        or (isinstance(node, ast.arg) and node.arg in REPRESENTATION_NAMES)})
    return found, [name for name in functions if name not in defined]


def test_scanner_finds_representation_branches():
    # every read counts, a branch on the representation among them
    lib = ("def a(prior):\n    if prior.representation == 'da':\n"
           "        return 1\n    return 2\n\n"
           "def b(prior, representation):\n"
           "    return 1\n\n"
           "def c(prior, p):\n    return p * (prior.L + da)\n\n"
           "def d(prior, sums):\n    return prior.form, sums.bb\n")
    assert representation_reads(lib, ("a", "b", "c", "d", "e")) == (
        [("a", 2), ("b", 6), ("c", 10)], ["e"])


def test_scale_blocks_do_not_branch_on_the_representation():
    # nor read it at all
    for module, functions in SCALE_FUNCTIONS.items():
        source = (ROOT / "src" / "bayenet" / module).read_text()
        found, missing = representation_reads(source, functions)
        assert not missing, f"{module}: functions not found: {missing}"
        assert not found, (
            f"{module}: scale functions reading the representation, which "
            f"decides only the coefficient and latent blocks: {found}")
