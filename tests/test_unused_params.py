"""Source rules: every function parameter and every stored field in the
package is read, and no input is given twice.

A parameter that the body never reads is accepted and then ignored: a
caller can pass any value and nothing changes. `self`, `cls` and names
that start with an underscore are exempt. Likewise an annotated class field
that no code in the package loads as an attribute is stored and then
ignored. A DofMap owns its mesh, so a function or class that takes a mesh
beside a dof map can be handed a mesh that is not the dof map's.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "biotfs"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(func):
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return [n for n in names if n not in ("self", "cls") and not n.startswith("_")]


def _reads(func):
    body = func.body if isinstance(func.body, list) else [func.body]
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _trees():
    files = sorted(SRC.glob("*.py"))
    assert files
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in files]


def _fields(cls):
    """Names of the annotated fields of a class body."""
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def test_every_parameter_is_read():
    offenders, seen = [], 0
    for path, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, FUNCTIONS):
                continue
            reads = _reads(func)
            for name in _parameters(func):
                seen += 1
                if name not in reads:
                    offenders.append(f"{path.name}:{func.lineno} {name}")
    assert seen > 0
    assert offenders == []


def test_every_field_is_read():
    trees = _trees()
    loaded = {
        node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (path.name, cls.name, field)
        for path, tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for field in _fields(cls)
    ]
    assert fields
    offenders = [f"{name} {cls}.{field}" for name, cls, field in fields
                 if field not in loaded]
    assert offenders == []


def test_no_mesh_beside_its_dofs():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                names = _parameters(node)
            elif isinstance(node, ast.ClassDef):
                names = _fields(node)
            else:
                continue
            if {"mesh", "dofs"} <= set(names):
                offenders.append(f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}")
    assert offenders == []
