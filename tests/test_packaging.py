"""Every third-party module ``src/`` imports at module level is a declared
runtime dependency, so a clean ``pip install`` can ``import repro``."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _module_level_imports(tree: ast.Module):
    """Top-level module names imported outside any function or class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


def _third_party_imports():
    found = {}
    for path in sorted((_REPO_ROOT / "src").rglob("*.py")):
        for name in _module_level_imports(ast.parse(path.read_text())):
            if name not in sys.stdlib_module_names and name != "repro":
                found.setdefault(name, path.relative_to(_REPO_ROOT).as_posix())
    return found


def _declared_dependencies():
    project = tomllib.loads((_REPO_ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def test_third_party_imports_are_declared():
    imports = _third_party_imports()
    assert "numpy" in imports  # the scan sees the package's imports
    declared = _declared_dependencies()
    missing = {name: path for name, path in imports.items() if name.lower() not in declared}
    assert not missing, f"imported by src/ but not in [project].dependencies: {missing}"
