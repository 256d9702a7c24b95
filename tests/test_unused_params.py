"""Source rule: every function parameter in the package is read.

A parameter that the body never reads is accepted and then ignored: a
caller can pass any value and nothing changes. `self`, `cls` and names
that start with an underscore are exempt.
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


def test_every_parameter_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders, seen = [], 0
    for path in files:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, FUNCTIONS):
                continue
            reads = _reads(func)
            for name in _parameters(func):
                seen += 1
                if name not in reads:
                    offenders.append(f"{path.name}:{func.lineno} {name}")
    assert seen > 0
    assert offenders == []
