"""The package's import graph: no deferred imports, no cycles."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apword"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _targets(node: ast.ImportFrom) -> set[str]:
    """Package modules named by a relative import; `from . import x` names x if x is one."""
    if node.level == 0:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _run_time_imports(body: list[ast.stmt]) -> set[str]:
    """Modules imported by module-level statements, outside `if TYPE_CHECKING:` blocks."""
    out: set[str] = set()
    for node in body:
        if isinstance(node, ast.ImportFrom):
            out |= _targets(node)
        elif isinstance(node, (ast.If, ast.Try)) and not _is_type_checking(node):
            for block in ("body", "orelse", "finalbody"):
                out |= _run_time_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                out |= _run_time_imports(handler.body)
    return out


GRAPH = {name: _run_time_imports(tree.body) for name, tree in MODULES.items()}


def test_no_intra_package_import_inside_a_function():
    deferred = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level]
    assert deferred == []


def test_module_level_import_graph_is_acyclic():
    TopologicalSorter(GRAPH).prepare()  # raises CycleError naming a cycle


def test_stream_imports_only_errors_at_run_time():
    assert GRAPH["stream"] == {"errors"}
