"""Package surface: every exported name resolves, and src/ stays NumPy-only."""

import ast
import sys
from pathlib import Path

import polygreen


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
