"""Source hygiene: no module under src/ or tests/ imports a name it never reads,
every module-level function or class under src/ is read or exported, every
method or property of a class under src/ is read, and the stable-model oracle
never reads the engine's integer index."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotation_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _read_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, listed in ``__all__`` or used in a string annotation."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    for root in _annotation_roots(tree):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every imported name the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = _read_names(tree)
    return sorted((line, name) for line, name in imported if name not in read)


# Module-level functions the interpreter calls by name (PEP 562).
MODULE_HOOKS = {"__getattr__", "__dir__"}


def dead_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for every module-level function or class that no
    other top-level statement of the modules reads; ``__all__`` and
    ``MODULE_HOOKS`` count."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    reads = [(stmt, _read_names(stmt)) for _, stmt in statements]
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in MODULE_HOOKS
        and not any(stmt.name in read for other, read in reads if other is not stmt)
    )


def _attribute_reads(tree: ast.AST) -> Counter:
    """How often each attribute name is loaded in ``tree``."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def dead_methods(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for every method or property, dunders aside, whose
    name no attribute read of the modules outside its own body loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, method.lineno, method.name)
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and reads[method.name] == _attribute_reads(method)[method.name]
    )


def test_the_scan_counts_exports_and_string_annotations_as_reads():
    source = (
        "import os.path\nfrom typing import Any, List\nfrom x import Quoted, Unused\n"
        "__all__ = ['Any']\n"
        "def f(a: 'List[Quoted]') -> None:\n    return os.path.join(a)\n"
    )
    assert unused_imports(source) == [(3, "Unused")]


def test_no_module_imports_a_name_it_never_reads():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_definition_scan_ignores_reads_inside_the_definition_itself():
    sources = {
        "a": "__all__ = ['Public']\nclass Public:\n    pass\ndef loop(n):\n    return loop(n)\n",
        "b": "def _helper():\n    pass\ndef caller() -> '_Quoted':\n    return _helper()\n",
        "c": "class _Quoted:\n    pass\n",
        "d": "def __getattr__(name):\n    raise AttributeError(name)\n",
    }
    assert dead_definitions(sources) == [("a", 4, "loop"), ("b", 3, "caller")]


def package_sources() -> dict[str, str]:
    """Each module of the package by file name."""
    package = ROOT / "src" / "aopl_lint"
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}


def test_every_definition_under_src_is_read_or_exported():
    assert dead_definitions(package_sources()) == []


def test_the_method_scan_ignores_reads_inside_the_method_itself():
    sources = {
        "a": (
            "class A:\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def loop(self):\n        return self.loop()\n"
            "    @property\n    def size(self):\n        return 0\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "def f(a):\n    return a.used(), a.size\n",
    }
    assert dead_methods(sources) == [("a", 6, "loop")]


def test_every_method_under_src_is_read():
    assert dead_methods(package_sources()) == []


def dataclass_names(source: str) -> list[str]:
    """Names of the classes decorated with ``dataclass``, called or not, and
    ``import dataclasses`` for each statement that imports the module."""
    tree = ast.parse(source)
    classes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        if any(
            getattr(part, "id", None) == "dataclass" or getattr(part, "attr", None) == "dataclass"
            for decorator in node.decorator_list
            for part in ast.walk(decorator)
        )
    ]
    imports = [
        "import dataclasses"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    return classes + imports


def test_the_dataclass_scan_finds_every_spelling():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
        "@dataclasses.dataclass(frozen=True)\nclass C: pass\nclass D: pass\n"
        "def f():\n    from dataclasses import replace\n"
    )
    assert dataclass_names(source) == ["A", "B", "C"] + ["import dataclasses"] * 3


# Every record type under src/ is a ``diagnostics.Frozen`` class, which
# generates no methods when its module is imported, and nothing under src/
# loads ``dataclasses`` (and with it ``inspect``).
def test_nothing_under_src_is_or_imports_a_dataclass():
    found = [
        (path.name, name)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in dataclass_names(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def attribute_loads(source: str, name: str) -> list[int]:
    """Lines that load the attribute ``name``, as ``x.name`` or ``getattr(x, "name")``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == name
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
        and any(isinstance(arg, ast.Constant) and arg.value == name for arg in node.args[1:2])
    )


def test_the_attribute_scan_finds_loads_but_not_stores():
    source = (
        "a = gp.index\nb = base.index.bits[x]\nself.index = 0\nindex = 1\n"
        "c = getattr(gp, 'index')\nd = getattr(gp, 'rules', 'index')\ne = gp.by_label\n"
    )
    assert attribute_loads(source, "index") == [1, 2, 5]


# The oracle is the engine's independent reference: it reads the ground rules
# and never the integer form (``reify.Index``) that the engine evaluates.
def test_the_oracle_never_reads_the_engines_index():
    assert attribute_loads((ROOT / "tests" / "oracle.py").read_text(encoding="utf-8"), "index") == []
