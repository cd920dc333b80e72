"""The verifier's trusted base holds only what the package calls.

Every module-level function and every non-dunder method of `poly`, `linalg`,
`evaluate`, `checks` and `serialize` must be referenced, as a name or an
attribute, somewhere in `src/ncvanish` outside its own definition.  Code that
only tests call does not belong in the base that `verify-cert` is trusted
with.  The check goes by name, so a reference to any method of that name
counts.
"""

import ast
from pathlib import Path

import ncvanish

PACKAGE = Path(ncvanish.__file__).parent
TRUSTED = ("poly", "linalg", "evaluate", "checks", "serialize")
# perfbench/tracing.py wraps it and tests/test_benchmark_hooks.py resolves it,
# so it stays until the benchmark stops tracing it
ALLOWED = {"solve_span"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_trusted_base_defines_only_what_the_package_references():
    spans = {}  # name -> (module, first line, last line) of each definition
    for module in TRUSTED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in _definitions(tree):
            spans.setdefault(node.name, []).append((module, node.lineno, node.end_lineno))
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in spans and not any(module == path.stem and first <= node.lineno <= last
                                         for module, first, last in spans[name]):
                referenced.add(name)
    assert sorted(set(spans) - referenced - ALLOWED) == []
