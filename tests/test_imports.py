"""Source rule: every module under src/ and tests/ imports only what the
package declares.

The allowed top-level names are the standard library, biotfs itself, the
local test helpers, and pyproject's dependencies and `test` extras. A
package that merely happens to be installed (sympy, say) would let a test
pass on one machine and fail on every clean install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def _undeclared(source, allowed):
    """Top-level names of the absolute imports in source outside allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.split(".")[0] for name in names}
    return sorted(tops - allowed - set(sys.stdlib_module_names))


def test_modules_import_only_declared_packages():
    allowed = _declared() | {"biotfs"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= allowed
    assert _undeclared("import sympy.abc\nfrom os import path\nfrom . import x\n",
                       allowed) == ["sympy"]
    offenders = {path.relative_to(ROOT).as_posix(): found for path in MODULES
                 if (found := _undeclared(path.read_text(), allowed))}
    assert offenders == {}
