"""Every module-level import in the package is used where it is bound, so
an import cannot outlive the code that needed it."""

import ast
from pathlib import Path

import slpdist

PACKAGE = Path(slpdist.__file__).parent

# bound where bench/tracing.py patches it; the program itself never calls it
KEPT_FOR_TRACING = {("dist", "substitute_infinities")}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(slpdist.__all__) if path.name == "__init__.py" else set()
    return bound - used - exported


def test_every_module_level_import_is_used():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(path)
    }
    assert unused == KEPT_FOR_TRACING
