import ast
from pathlib import Path

import gibbsdyn

PACKAGE = Path(gibbsdyn.__file__).resolve().parent


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException") for t in types)


def test_no_broad_except_in_package():
    # a handler that catches everything silently swallows real failures
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and _is_broad(node)
    ]
    assert offenders == []
