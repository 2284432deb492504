"""The library carries only what the subcommands use.

Every top-level function or class in src/sectorport must be referenced
somewhere in src/ outside its own definition, or by a scripts/ file. An
import is not a reference, so a re-export alone does not keep a name alive.
Code that only tests call belongs in tests/ (tests/oracles.py for reference
computations). Likewise every parameter default in src/ and scripts/ must
be left out by some call there: a default that only tests rely on is a
second source for a value the library always passes.
"""

import ast
from collections import defaultdict
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


# Defaults that callers outside src/ and scripts/ rely on: the console entry
# point calls main() with no argv, and PyYAML calls the SafeLoader override
# without deep.
CALLED_FROM_OUTSIDE = {"main(argv=None)", "construct_mapping(deep=False)"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _defaults(function: ast.FunctionDef, method: bool):
    """(call position or None for keyword-only, name, default source) of each defaulted parameter.

    A method's calls do not pass self, so its positions start one earlier.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    start = len(positional) - len(args.defaults)
    for index, (arg, default) in enumerate(zip(positional[start:], args.defaults), start):
        yield index - method, arg.arg, ast.unparse(default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg, ast.unparse(default)


def _leaves_out(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call leaves the parameter to its default; a call with *args or **kwargs may not, so it counts."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    passed = position is not None and position < len(call.args)
    return not passed and name not in {k.arg for k in call.keywords}


def unused_defaults(package: Path = PACKAGE, scripts_dir: Path = ROOT / "scripts") -> list[str]:
    """'module: function(param=default)' of each default that no src/ or scripts/ call leaves out.

    A call is matched to every function of its name (a method's, or a
    class's for __init__), as the reference scan above matches names.
    """
    paths = sorted(package.glob("*.py")) + sorted(scripts_dir.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[_called_name(node)].append(node)
    methods = {
        id(stmt): cls.name
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
    }
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(node))
            called = cls if node.name == "__init__" and cls else node.name
            for position, name, default in _defaults(node, cls is not None):
                entry = f"{node.name}({name}={default})"
                if entry in CALLED_FROM_OUTSIDE:
                    continue
                if not any(_leaves_out(call, position, name) for call in calls[called]):
                    unused.append(f"{path.name}: {entry}")
    return unused


def test_every_parameter_default_has_a_library_or_script_caller_that_leaves_it_out():
    assert unused_defaults() == []


def test_the_scan_flags_defaults_that_every_call_passes(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "a.py").write_text(
        "def f(x, y=1, *, z=2):\n    return x\n\n"
        "def g(x=0, y=None):\n    return f(x, y, z=3)\n\n"
        "class C:\n"
        "    def __init__(self, v=0):\n        self.v = v\n\n"
        "    def m(self, w=1):\n        return C(self.v).m(w)\n"
    )
    (package / "b.py").write_text(
        "from .a import g\n\nVALUE = g(1)\n\ndef spread(args, kw):\n    return g(*args, **kw)\n"
    )
    (scripts / "run.py").write_text("def main(argv=None):\n    return argv\n")
    # every call passes f's y and z, C's v and m's w; g(1) leaves out g's y, g(*args) may leave out
    # its x, and nothing calls main, whose default is exempt
    expected = ["a.py: f(y=1)", "a.py: f(z=2)", "a.py: __init__(v=0)", "a.py: m(w=1)"]
    assert unused_defaults(package, scripts) == expected
