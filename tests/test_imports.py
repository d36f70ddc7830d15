import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "polinv").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """The names a module imports and never reads, sorted.  A name is read
    where it appears as a Name node (an attribute's root included) or is
    listed in __all__; from __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_scan_finds_unused_imports():
    source = "import os.path\nfrom a import b, c as d\nfrom __future__ import annotations\n__all__ = ['b']\n"
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports(source + "print(os.sep, d)\n") == []


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) > 20
    unused = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}
