import ast
import re
import subprocess
import sys
from pathlib import Path

import gibbsdyn

PACKAGE = Path(gibbsdyn.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _loaded_names(trees) -> set[str]:
    """Every name the trees load, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


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


# imports kept only because the benchmark's tracer binds them
# (perfbench/selftest.py Bindings); ROADMAP item 10 drops the bindings and
# these imports together
BINDING_ONLY_IMPORTS = {("tilted", "golden_section"), ("classify", "golden_section"), ("classify", "initial_kernel")}


def test_every_import_is_used():
    # a name imported from the package that its module never loads is a
    # dependency left behind by a deleted path; __init__'s re-exports are
    # loaded through __all__
    unused, binding_only = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gibbsdyn":
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name in loads | exported:
                        continue
                    if (path.stem, name) in BINDING_ONLY_IMPORTS:
                        binding_only.add((path.stem, name))
                    else:
                        unused.append(f"{path.stem}:{name}")
    assert unused == []
    assert binding_only == BINDING_ONLY_IMPORTS  # each exception is still needed


def test_every_module_constant_is_used():
    # a threshold or setting that nothing reads has outlived its code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = [
        (name, target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    ]
    loads = _loaded_names(trees.values())
    assert defined  # the scan sees the constants
    assert [f"{module}:{constant}" for module, constant in defined if constant not in loads] == []


def test_every_private_function_is_used():
    # a private helper or method that no package code calls has outlived its callers
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and re.fullmatch(r"_(?!_)\w*(?<!__)", node.name)
    }
    loads = _loaded_names(trees)
    assert defined  # the scan sees the private functions
    assert sorted(defined - loads) == []


def test_every_public_function_is_reached():
    # a public function or class that nothing in the package, its tests or the
    # benchmark names has no caller left, like a private helper without one
    defined = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    sources = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]
    loads = _loaded_names(ast.parse(path.read_text(encoding="utf-8")) for path in sources)
    assert defined  # the scan sees the public names
    assert [f"{module}:{name}" for module, name in defined if name not in loads] == []


def test_benchmark_tracer_bindings_hold():
    # the benchmark's tracer pins bindings such as classify's golden_section
    # and initial_kernel; a package refactor that drops one breaks the tracer
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "selftest.Bindings"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
