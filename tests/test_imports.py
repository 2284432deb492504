"""Every imported name is read in the file that imports it.

An ast scan over src/sectorport, tests, scripts and bench: each name that an import
statement binds must appear as a read of that name somewhere in the same
file. ``from __future__`` imports bind nothing and star imports are not
scanned. This stands in for a linter's unused-import rule, so no linter is a
dependency.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "sectorport", ROOT / "tests", ROOT / "scripts", ROOT / "bench")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source that source never reads, in sorted order."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_no_file_imports_a_name_it_does_not_use():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for directory in SCANNED
        for path in sorted(directory.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_scan_flags_only_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "import sys\n"
        "from math import pi, tau as turn, e\n"
        "from itertools import *\n"
        "e = 2\n"
        "\n"
        "def f():\n"
        "    return os.path.join(js.dumps(pi), str(turn))\n"
    )
    assert unused_imports(source) == ["e", "sys"]
