"""Every name a module imports is used: an AST scan of the package, tests and demos.

``__init__.py`` is skipped because it only re-exports.  A name counts as used
when it appears as an identifier anywhere in the module or in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = (
    sorted(ROOT.glob("src/admissible_sl2/*.py"))
    + sorted(ROOT.glob("tests/*.py"))
    + sorted(ROOT.glob("demos/*.py"))
)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    unused = [
        entry
        for path in FILES
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == []
