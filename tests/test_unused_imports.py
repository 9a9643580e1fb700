"""Every name a module of ``src/`` imports, and every private name it
defines, is used in that module; every name a package root re-exports is
imported through that root, by perfbench alone: every other client imports
it from its defining module.

``__init__`` modules are skipped by the first check: their imports are the
package's re-exports, which the last check covers. An imported name counts as used when the module loads it
anywhere, as a bare name or as the root of an attribute chain, or lists it
in ``__all__``. ``from __future__`` imports are not names. A private name is
one with a leading underscore, not a dunder, bound at module level by
``def``, ``class`` or an assignment; it counts as used when the module loads
it anywhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Where a re-exported name may be imported through its package root.
CLIENTS = ("src", "tests", "perfbench", "scripts")


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


def unused_privates(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level private name never loaded."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in loaded)


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


def test_no_module_defines_a_private_name_it_does_not_use():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_privates(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_checker_sees_an_unused_private_name_and_its_uses():
    source = ("__all__ = []\n_A, _B = 1, 2\n_C: int = 3\nPUBLIC = 4\n"
              "def _f():\n    return _A\n"
              "class _K:\n    x = _C\n"
              "def g():\n    _local = 5\n    return _K\n")
    assert unused_privates(source) == [(2, "_B"), (5, "_f")]


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports_through(source: str, module: str, is_package: bool) -> set[tuple[str, str]]:
    """``(origin, name)`` of each name the source of ``module`` imports by
    ``from origin import name``, or reads as an attribute of a module it bound
    by ``from parent import origin`` or ``import origin as alias``."""
    tree = ast.parse(source)
    here = module.split(".") if is_package else module.split(".")[:-1]
    found: set[tuple[str, str]] = set()
    bound: dict[str, str] = {}  # local name -> the module it may be bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = here[:len(here) - node.level + 1] if node.level else []
            origin = ".".join(base + (node.module.split(".") if node.module else []))
            for alias in node.names:
                found.add((origin, alias.name))
                bound[alias.asname or alias.name] = f"{origin}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            found.add((bound[node.value.id], node.attr))
    return found


def test_every_re_export_of_a_package_root_is_imported_through_it():
    imported: set[tuple[str, str]] = set()
    for client in CLIENTS:
        base = SRC if client == "src" else ROOT
        for path in sorted((ROOT / client).rglob("*.py")):
            imported |= imports_through(path.read_text(encoding="utf-8"),
                                        _module_name(path, base), path.name == "__init__.py")
    unused = []
    for init in sorted(SRC.rglob("__init__.py")):
        package = _module_name(init, SRC)
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                unused += [f"{package}: {alias.asname or alias.name}" for alias in node.names
                           if (package, alias.asname or alias.name) not in imported]
    assert unused == []


def test_only_perfbench_reads_a_re_export_through_its_package_root():
    re_exports = {(_module_name(init, SRC), alias.asname or alias.name)
                  for init in SRC.rglob("__init__.py")
                  for node in ast.parse(init.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for client in (c for c in CLIENTS if c != "perfbench"):
        base = SRC if client == "src" else ROOT
        for path in sorted((ROOT / client).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}: {origin}.{name}" for origin, name in sorted(
                imports_through(path.read_text(encoding="utf-8"), _module_name(path, base),
                                path.name == "__init__.py") & re_exports)]
    assert found == []


def test_the_re_export_checker_resolves_relative_and_attribute_imports():
    source = ("from ..core import parse_utc\nfrom . import grammar\n"
              "from gulfclimate import tools\nimport gulfclimate.agent as agent\n"
              "tools.build_registry\nagent.run\ngrammar.parse_call\n")
    assert imports_through(source, "gulfclimate.toolkit.registry", False) == {
        ("gulfclimate.core", "parse_utc"), ("gulfclimate.toolkit", "grammar"),
        ("gulfclimate", "tools"), ("gulfclimate.tools", "build_registry"),
        ("gulfclimate.agent", "run"), ("gulfclimate.toolkit.grammar", "parse_call"),
    }
