"""apword loads NumPy with one OpenBLAS thread and leaves the environment as it was."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apword"
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.Module) -> list[int]:
    """Lines that use a NumPy routine backed by BLAS.

    A call of a method by one of these names counts whatever its receiver
    (`a.dot(b)` on an array), as does any attribute by these names reached
    from a NumPy module or an import of one; a plain variable such as `inner`
    does not.
    """
    numpy_names = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names
                   if a.name.split(".")[0] == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in BLAS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in numpy_names:
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.") and set(a.name.split(".")) & BLAS_NAMES
                for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and ({a.name for a in node.names} | set(node.module.split("."))) & BLAS_NAMES:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_calls_blas():
    """The one-thread load in apword/__init__.py is free only because no
    module makes a BLAS call: one would run on a single core."""
    uses = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in _blas_uses(ast.parse(path.read_text(), str(path)))]
    assert uses == []


@pytest.mark.parametrize("source", [
    "a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.linalg.norm(a)", "f = np.einsum",
    "numpy.inner(a, b)", "from numpy import matmul", "from numpy.linalg import solve",
    "import numpy.linalg", "x = np.tensordot", "np.vdot(a, b)"])
def test_blas_uses_are_seen(source):
    tree = ast.parse("import numpy\nimport numpy as np\n" + source)
    assert _blas_uses(tree) == [3]


@pytest.mark.parametrize("source", ["inner = set()", "if args.dot:\n    pass", "export_dot(g)"])
def test_other_names_are_not_blas(source):
    assert _blas_uses(ast.parse("import numpy as np\n" + source)) == []


COUNT = ("import os; {imports}; "
         "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)")


def _threads(imports: str, blas_threads: str | None = None) -> tuple[int, bool]:
    """Threads of a fresh interpreter after `imports`, and whether the variable is set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run([sys.executable, "-c", COUNT.format(imports=imports)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    return int(out[0]), out[1] == "True"


@pytest.fixture(scope="module")
def numpy_threads():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counts threads in /proc/self/task (Linux)")
    threads, _ = _threads("import numpy")
    if threads == 1:
        pytest.skip("plain `import numpy` starts no BLAS worker here")
    return threads


def test_import_apword_runs_one_thread_and_leaves_no_variable(numpy_threads):
    assert _threads("import apword") == (1, False)
    assert _threads("import apword.cli") == (1, False)  # the console script's route


def test_user_thread_count_is_kept(numpy_threads):
    assert _threads("import apword", "2") == (_threads("import numpy", "2")[0], True)


def test_numpy_imported_first_keeps_its_threads(numpy_threads):
    assert _threads("import numpy; import apword") == (numpy_threads, False)
