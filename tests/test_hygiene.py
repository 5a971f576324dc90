"""Source hygiene: no module under src/ or tests/ imports a name it never reads,
and every module-level function or class under src/ is read or exported."""

from __future__ import annotations

import ast
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


def dead_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for every module-level function or class that no
    other top-level statement of the modules reads; ``__all__`` counts."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    reads = [(stmt, _read_names(stmt)) for _, stmt in statements]
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in read for other, read in reads if other is not stmt)
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
    }
    assert dead_definitions(sources) == [("a", 4, "loop"), ("b", 3, "caller")]


def test_every_definition_under_src_is_read_or_exported():
    package = ROOT / "src" / "aopl_lint"
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))
    }
    assert dead_definitions(sources) == []
