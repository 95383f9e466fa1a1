import ast
from pathlib import Path

import pytest

import genusone

SOURCES = sorted(Path(genusone.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    # an imported name is used if the module reads it (a Name, or the root
    # of an attribute chain, annotations included) or lists it in __all__
    imported = {}
    used = set()
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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "from x import y\n__all__ = ['y']\nprint(gcd(1, 2))\n")
    assert _unused_imports(tree) == ["lcm (line 2)", "os (line 1)"]
