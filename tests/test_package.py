"""Package surface: every exported name resolves, src/ stays NumPy-only, and
the names the benchmark reads from polygreen exist."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import polygreen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_resolve():
    missing = [name for name in polygreen.__all__ if not hasattr(polygreen, name)]
    assert not missing
    assert len(set(polygreen.__all__)) == len(polygreen.__all__)


def test_modules_import_only_stdlib_numpy_and_polygreen():
    # every import statement of every module, nested ones included; relative
    # imports stay inside the package
    allowed = sys.stdlib_module_names | {"numpy", "polygreen"}
    seen = set()
    foreign = []
    for path in sorted(Path(polygreen.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top not in allowed:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign
    assert "numpy" in seen


def _member(module: str, name: str):
    """module.name as a submodule or an attribute, or None when neither exists."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def test_perfbench_reads_existing_names():
    # every name the benchmark's workloads, worker and driver import from
    # polygreen, and every <module>.<name> they read off an imported polygreen
    # module, exists; a rename would break the benchmark run itself.  The
    # tracing targets are optional and left out
    seen, missing = set(), []
    for file in ("workloads.py", "worker.py", "run.py"):
        tree = ast.parse((PERFBENCH / file).read_text(), file)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name for a in node.names if a.name == "polygreen"})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polygreen":
                for a in node.names:
                    found = _member(node.module, a.name)
                    if found is None:
                        missing.append(f"{file}: {node.module}.{a.name}")
                    elif inspect.ismodule(found):
                        modules[a.asname or a.name] = found.__name__
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    module = modules[node.value.id]
                    seen.add(f"{module.split('.')[-1]}.{node.attr}")
                    if _member(module, node.attr) is None:
                        missing.append(f"{file}: {module}.{node.attr}")
    assert not missing
    assert {"parametrix.build_H", "torus._lattice_box", "euclid.kernel_closed_form", "cli.main"} <= seen
