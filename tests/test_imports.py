import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import genusone

SOURCES = sorted(Path(genusone.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
#: the code a name must be reached from: the package, the benchmark and the
#: acceptance battery; the unit tests do not count, they only test
CORPUS = sorted([*(path for folder in ("src", "bench") for path in (ROOT / folder).rglob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"])


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


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _dead_names(modules: dict[str, str], texts: list[str]) -> list[str]:
    # a top-level name is dead if its definition is the only place any of
    # the texts spells it as a word; dunder names are exempt
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in _top_level_names(ast.parse(source))
                  if not re.fullmatch(r"__\w+__", name) and words[name] < 2)


def test_every_top_level_name_is_used():
    # a name defined in src/genusone/ that no file under src/ or bench/, nor
    # tests/test_acceptance.py, reads or mentions is dead code: a name only a
    # unit test reaches counts as dead too
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    texts = [path.read_text(encoding="utf-8") for path in CORPUS]
    assert _dead_names(modules, texts) == []


def test_the_dead_name_check_sees_an_unused_name():
    source = ("import os\n__version__ = '1'\nUSED, DEAD = 1, 2\nLONE: int = 3\n"
              "def helper():\n    return USED\nclass Gone:\n    pass\n")
    assert _dead_names({"m": source}, [source, "helper()"]) == ["m.DEAD", "m.Gone", "m.LONE"]


def _record_fields(tree: ast.Module):
    # (class, field) for each NamedTuple field and each __slots__ entry
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        named_tuple = any(ast.unparse(base) in ("NamedTuple", "typing.NamedTuple")
                          for base in node.bases)
        for item in node.body:
            if named_tuple and isinstance(item, ast.AnnAssign):
                yield node.name, item.target.id
            elif (isinstance(item, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)):
                yield from ((node.name, field) for field in ast.literal_eval(item.value))


def _read_names(tree: ast.Module) -> set[str]:
    # the attributes a module reads, and the names it binds by tuple unpacking
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Store):
            read.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return read


def _unread_fields(modules: dict[str, str], texts: list[str]) -> list[str]:
    read = set().union(*(_read_names(ast.parse(text)) for text in texts))
    return sorted(f"{cls}.{field}" for source in modules.values()
                  for cls, field in _record_fields(ast.parse(source)) if field not in read)


def test_every_record_field_is_read():
    # a record field in src/genusone/ that no file under src/ or bench/, nor
    # tests/test_acceptance.py, reads as an attribute or binds by tuple
    # unpacking (as ``ranks, records = complex_.reduced()`` does) is stored
    # for nothing.  Fields are matched by name alone, so a field passes when
    # other code reads an attribute that happens to share its name, such as
    # ``name`` or ``generator`` of an unrelated class
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    texts = [path.read_text(encoding="utf-8") for path in CORPUS]
    assert _unread_fields(modules, texts) == []


def test_the_field_check_sees_an_unread_field():
    source = ("from typing import NamedTuple\n"
              "class Pair(NamedTuple):\n    left: int\n    right: int\n    gone: int\n"
              "class Slots:\n    __slots__ = ('kept', 'lost')\n")
    reader = "a, right = pair\nprint(pair.left, slots.kept)\nslots.lost = 1\n"
    assert _unread_fields({"m": source}, [source, reader]) == ["Pair.gone", "Slots.lost"]


#: modules that ``dataclasses`` pulls in, and ``fractions`` with the ``decimal``
#: it loads, which only the oracles and the cochain checks use, inside the
#: functions that need them; none is needed to run the CLI
UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "fractions", "decimal")


def test_a_cold_cli_import_loads_no_dataclasses():
    # a fresh interpreter imports as the benchmark worker does: the package,
    # then its CLI; each module it leaves loaded raises every command's floor
    probe = ("import sys\nimport genusone\nimport genusone.cli\n"
             f"print(*(m for m in {UNNEEDED!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(genusone.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-B", "-c", probe], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.split() == []


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    # records are NamedTuples or classes with __slots__
    assert [path.name for path in SOURCES
            if "dataclasses" in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))] == []
