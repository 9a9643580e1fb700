"""Every name a module of ``src/`` imports is used in that module.

``__init__`` modules are skipped: their imports are the package's
re-exports. A name counts as used when the module loads it anywhere, as a
bare name or as the root of an attribute chain, or lists it in
``__all__``. ``from __future__`` imports are not names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each import whose bound name is never read."""
    tree = ast.parse(source)
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
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_checker_sees_an_unused_import_and_its_uses():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom typing import Any, Sequence\n"
              "def f(x: Sequence) -> int:\n    return osp.join(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Any")]
