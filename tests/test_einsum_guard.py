"""Source rule: every multi-operand np.einsum passes optimize=True.

numpy's default (optimize=False) evaluates a contraction in its generic C
loop, which for the assembly's element shapes is 20-50x slower than the
contraction path that optimize=True picks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "biotfs"


def _einsum_calls(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield node


def _optimized(call):
    return any(
        kw.arg == "optimize"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


def test_multi_operand_einsum_calls_pass_optimize_true():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders, seen = [], 0
    for path in files:
        for call in _einsum_calls(ast.parse(path.read_text(), filename=str(path))):
            seen += 1
            operands = len(call.args) - 1  # the first argument is the subscripts
            if operands >= 2 and not _optimized(call):
                offenders.append(f"{path.name}:{call.lineno}")
    assert seen > 0
    assert offenders == []
