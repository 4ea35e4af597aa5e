"""Every name a module imports is used in it, and every definition of the package is read.

Each module of the package (except ``__init__.py``, whose imports are its
public surface) and each test module is parsed with ``ast``; a name bound
by an import and never read is an error.  So is a function, class or
non-dunder method of the package that no package, test or benchmark module
reads by name outside its own definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "qbruhat").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == [
        (1, "os"),
        (2, "d"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


PACKAGE = sorted((ROOT / "src" / "qbruhat").glob("*.py"))
READERS = sorted(
    [*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_read(tree) -> Counter:
    """Each name a tree reads: names, attributes, imported names and the parts of dotted strings.

    A string such as the tracer's span path ``"Matrix.inverse"`` names what it reaches.
    """
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                read.update(node.value.split("."))
    return read


def definitions(tree) -> list:
    """The module-level functions and classes of a tree, and their non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [
                item
                for item in node.body
                if isinstance(item, defs) and not re.fullmatch(r"__\w+__", item.name)
            ]
    return out


def unread_definitions(package: dict, readers: dict) -> list:
    """(path, line, name) for each definition in `package` that no module reads elsewhere.

    Both map a path to its source.  A name read only inside its own definition
    (a recursive call, a class naming itself) is not read.
    """
    trees = {path: ast.parse(source) for path, source in {**readers, **package}.items()}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    return [
        (path, node.lineno, node.name)
        for path in package
        for node in definitions(trees[path])
        if read[node.name] == names_read(node)[node.name]
    ]


def test_the_check_sees_a_definition_nothing_reads():
    package = {
        "m.py": "def used():\n    pass\n\n\ndef alone():\n    return alone()\n\n\n"
        "class C:\n    def __eq__(self, other):\n        pass\n\n    def spare(self):\n"
        "        pass\n"
    }
    readers = {"t.py": "from m import used as run\nrun()\nSPAN = 'm.C'\n"}
    assert unread_definitions(package, readers) == [("m.py", 5, "alone"), ("m.py", 13, "spare")]


def test_every_package_definition_is_read():
    package, readers = (
        {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in paths}
        for paths in (PACKAGE, READERS)
    )
    assert unread_definitions(package, readers) == []
