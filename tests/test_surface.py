"""The library carries only what the subcommands use.

Every top-level function or class in src/sectorport must be referenced
somewhere in src/ outside its own definition, or by a scripts/ file. An
import is not a reference, so a re-export alone does not keep a name alive.
Code that only tests call belongs in tests/ (tests/oracles.py for reference
computations).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sectorport"


def _names(node) -> set[str]:
    """Every name and attribute that node's subtree reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unreferenced(package: Path = PACKAGE, scripts_dir: Path = ROOT / "scripts") -> list[str]:
    """'module: name' of each top-level definition that nothing references."""
    scripts = set()
    for path in sorted(scripts_dir.glob("*.py")):
        scripts |= _names(ast.parse(path.read_text(encoding="utf-8")))
    statements = [
        (path.name, stmt, _names(stmt))
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    missing = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name not in scripts and not any(
            node.name in names for _, other, names in statements if other is not node
        ):
            missing.append(f"{module}: {node.name}")
    return missing


def test_every_top_level_definition_has_a_library_or_script_caller():
    assert unreferenced() == []


def test_the_scan_flags_definitions_only_imported_or_self_referenced(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
    )
    (package / "b.py").write_text("from .a import used, recursive\n\nVALUE = used()\n\nclass Orphan:\n    pass\n")
    (package / "c.py").write_text("from .b import Orphan\n\ndef for_scripts():\n    pass\n")
    (scripts / "run.py").write_text("from pkg import c\n\nc.for_scripts()\n")
    assert unreferenced(package, scripts) == ["a.py: recursive", "b.py: Orphan"]
