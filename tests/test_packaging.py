"""Every third-party module ``src/`` imports at module level is a declared
runtime dependency, so a clean ``pip install`` can ``import repro``; and
no module in ``src/`` or ``tests/`` keeps an import it does not use."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

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
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_REPO_ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def test_third_party_imports_are_declared():
    imports = _third_party_imports()
    assert "numpy" in imports  # the scan sees the package's imports
    declared = _declared_dependencies()
    missing = {name: path for name, path in imports.items() if name.lower() not in declared}
    assert not missing, f"imported by src/ but not in [project].dependencies: {missing}"


def test_cli_stream_and_batch_service_leave_scipy_unloaded():
    """Only the geometric generator and the LP baseline use SciPy, and they
    import it when called, so the hot paths never pay for loading it."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys, repro.cli, repro.dynamic.stream, repro.service.batch; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _names_used(tree: ast.Module):
    """Every name the module reads, including those inside string
    annotations such as ``"os.PathLike[str]"``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _names_used(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_no_unused_module_level_imports():
    """``__init__.py`` files are skipped: their imports are re-exports."""
    found = {}
    for top in ("src", "tests"):
        for path in sorted((_REPO_ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                unused = _unused_imports(path)
                if unused:
                    found[path.relative_to(_REPO_ROOT).as_posix()] = unused
    assert not found, f"unused module-level imports: {found}"
