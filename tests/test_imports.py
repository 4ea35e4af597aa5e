"""Every name a module imports is used in it, and every definition of the package is read.

Each module of the package (except ``__init__.py``, whose imports are its
public surface) and each test module is parsed with ``ast``; a name bound
by an import and never read is an error.  So is a function, class or
non-dunder method of the package that no package, test or benchmark module
reads by name outside its own definition.  And x reaches its Bruhat factor,
opposite datum and twist only through the cell gate's record: the functions
that reduce it are read only inside ``cells._Point`` and imported nowhere.
No package module imports another inside a function, only ``matrix.py`` writes out
the rule for a valid 1-based index, and no package module tests a difference of two
scalars for zero outside ``scalars.equal``.  ``quasidet.py`` reads each quasiminor off
the matrix that holds it and copies no matrix to take one.  No package module compares a
value with a ring name: a ring is a key of ``sampling.RINGS``, and is reached through it.
Importing the CLI does not load sympy, which only the ``demo`` fixtures use.
"""

import ast
import os
import re
import subprocess
import sys
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


CELLS = "src/qbruhat/cells.py"
REDUCTIONS = ("_bruhat_parts", "_opposite_datum", "_twist_from_factor")


def gate_bypasses(sources: dict) -> list:
    """(path, line, name) for each import of a reduction of x and each read of one, a call
    or a reference, that is not inside ``_Point`` in `CELLS`; `sources` maps a path to its
    source."""
    out = []
    for path, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        if path == CELLS:
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "_Point":
                    allowed = {id(sub) for sub in ast.walk(node)}
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [(node.lineno, a.name) for a in node.names if a.name in REDUCTIONS]
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in allowed:
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in REDUCTIONS:
                    found.append((node.lineno, name))
        out += [(path, *item) for item in sorted(found)]
    return out


def test_the_check_sees_a_second_path_to_a_reduction():
    # a maker passed by reference, as ``_Point`` passes them to ``quasidet._kept``, is a
    # path too
    sources = {
        CELLS: "class _Point:\n    def f(self):\n        return _bruhat_parts(self.x)\n\n\n"
        "def g(x):\n    return _opposite_datum(x)\n\n\n"
        "def h(x):\n    return _kept({}, 'k', _bruhat_parts, (x,))\n",
        "m.py": "from cells import _twist_from_factor\nimport cells\ncells._bruhat_parts(1)\n"
        "make = cells._twist_from_factor\n",
    }
    assert gate_bypasses(sources) == [
        (CELLS, 7, "_opposite_datum"),
        (CELLS, 11, "_bruhat_parts"),
        ("m.py", 1, "_twist_from_factor"),
        ("m.py", 3, "_bruhat_parts"),
        ("m.py", 4, "_twist_from_factor"),
    ]


def test_x_is_reduced_only_through_the_record():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in READERS
    }
    assert gate_bypasses(sources) == []


def lazy_package_imports(source: str) -> list:
    """(line, module) for each import of a package module inside a function.

    A package module imported at a module's top level loads with it, so an import cycle
    shows at once; an import of another library (``scalars``' lazy sympy) is allowed.
    """
    out = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            out.update((node.lineno, m) for m in names if re.match(r"\.|qbruhat(\.|$)", m))
    return sorted(out)


def test_the_check_sees_an_import_inside_a_function():
    source = (
        "import sympy\nfrom .matrix import Matrix\n\n\ndef f():\n    import sympy\n"
        "    from .cells import classify\n    from qbruhat import weyl\n"
        "    import qbruhat.gauss, qbruhatx\n\n    def g():\n        from . import sampling\n"
        "\n    return classify, Matrix, weyl, g\n"
    )
    assert lazy_package_imports(source) == [
        (7, ".cells"),
        (8, "qbruhat"),
        (9, "qbruhat.gauss"),
        (12, "."),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_package_module_is_imported_inside_a_function(path):
    assert lazy_package_imports(path.read_text(encoding="utf-8")) == []


MATRIX = "src/qbruhat/matrix.py"
# (class, method) pairs whose ``type(...) is not int`` tests a value, not an index: the
# images of a permutation and the letters of a double word
VALUE_TYPE_TESTS = {("Permutation", "__init__"), ("DoubleWord", "__post_init__")}


def private_index_rules(source: str) -> list:
    """(line, kind) for each index rule a module outside `MATRIX` writes out for itself.

    An ``IndexOutOfRange`` message with ``outside [1,`` in it is a "range"; a
    ``type(...) is not int`` test outside `VALUE_TYPE_TESTS` is a "type".  Both belong
    to ``matrix.check_index``.
    """
    tree = ast.parse(source)
    allowed = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and (cls.name, item.name) in VALUE_TYPE_TESTS:
                    allowed |= {id(sub) for sub in ast.walk(item)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "IndexOutOfRange":
                continue
            text = "".join(
                sub.value
                for arg in node.args
                for sub in ast.walk(arg)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
            if "outside [1," in text:
                out.append((node.lineno, "range"))
        elif isinstance(node, ast.Compare) and id(node) not in allowed:
            left = node.left
            if (
                isinstance(left, ast.Call)
                and getattr(left.func, "id", None) == "type"
                and isinstance(node.ops[0], ast.IsNot)
                and getattr(node.comparators[0], "id", None) == "int"
            ):
                out.append((node.lineno, "type"))
    return sorted(out)


def test_the_check_sees_a_private_index_rule():
    source = (
        "def f(i, n):\n    if type(i) is not int:\n        raise IndexOutOfRange(f'{i}')\n"
        "    if not 1 <= i <= n:\n        raise errors.IndexOutOfRange(f'row {i} outside [1, {n}]')\n"
        "    raise ValueError(f'{i} outside [1, {n}]')\n\n\n"
        "class Permutation:\n    def __init__(self, a):\n        if type(a) is not int:\n"
        "            pass\n\n    def __call__(self, i):\n        return type(i) is not int\n\n\n"
        "class DoubleWord:\n    def __post_init__(self):\n"
        "        return any(type(l) is not int for l in self.letters)\n"
    )
    assert private_index_rules(source) == [(2, "type"), (5, "range"), (15, "type")]


@pytest.mark.parametrize(
    "path",
    [path for path in PACKAGE if path.relative_to(ROOT).as_posix() != MATRIX],
    ids=lambda path: path.relative_to(ROOT).as_posix(),
)
def test_every_index_is_checked_in_matrix(path):
    assert private_index_rules(path.read_text(encoding="utf-8")) == []


SCALARS = "src/qbruhat/scalars.py"


def zero_tested_differences(source: str, allowed: str | None = None) -> list:
    """The line of each zero test of a difference, ``is_zero(a - b)`` or ``(a - b).is_zero()``.

    Two scalars are compared with ``scalars.equal``, which compares stored forms and
    makes a difference only where ``==`` cannot settle it; the top-level function named
    `allowed` is that fallback, and its tests are not listed.
    """
    tree = ast.parse(source)
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip = {id(sub) for sub in ast.walk(node)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) != "is_zero":
            continue
        tested = node.args[0] if node.args else getattr(func, "value", None)
        if isinstance(tested, ast.BinOp) and isinstance(tested.op, ast.Sub):
            out.append(node.lineno)
    return sorted(out)


def test_the_check_sees_a_difference_tested_for_zero():
    source = (
        "def equal(a, b):\n    return a == b or is_zero(a - b)\n\n\n"
        "def f(a, b, c):\n    if not is_zero(a - (b + c)):\n        pass\n"
        "    return scalars.is_zero(a - b), (a - b).is_zero(), is_zero(a + b), is_zero(a) - b\n"
    )
    assert zero_tested_differences(source, "equal") == [6, 8, 8]
    assert zero_tested_differences(source) == [2, 6, 8, 8]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_scalars_are_compared_with_equal(path):
    allowed = "equal" if path.relative_to(ROOT).as_posix() == SCALARS else None
    assert zero_tested_differences(path.read_text(encoding="utf-8"), allowed) == []


QUASIDET = "src/qbruhat/quasidet.py"


def matrix_copies(source: str) -> list:
    """(line, call) for each matrix a module makes.

    A quasiminor is an entry of the Schur complement of its inner block, and
    ``_schur_chain`` reads that block on any rows and columns of the matrix that holds it.
    So a ``.submatrix`` or ``.delete`` call is listed wherever it stands, and a ``Matrix(``
    call or a ``Matrix.`` constructor everywhere but in ``sylvester_reduce``, whose result
    is a new matrix.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "sylvester_reduce":
            allowed = {id(sub) for sub in ast.walk(node)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("submatrix", "delete"):
            out.append((node.lineno, func.attr))
        elif id(node) in allowed:
            continue
        elif getattr(func, "id", None) == "Matrix":
            out.append((node.lineno, "Matrix"))
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "Matrix":
            out.append((node.lineno, f"Matrix.{func.attr}"))
    return sorted(out)


def test_the_check_sees_a_matrix_copy():
    source = (
        "def read(x, rows, cols):\n    box = x.submatrix(rows, cols)\n"
        "    return quasideterminant(box.delete(1, 1), 1, 1), Matrix([[x[1, 1]]])\n\n\n"
        "def sylvester_reduce(A):\n    return Matrix([[A[1, 1]]]), A.delete(1, 1)\n\n\n"
        "def spare(x):\n    return Matrix._wrap(x._e), Matrix.identity(2), x.entry(1, 1)\n"
    )
    assert matrix_copies(source) == [
        (2, "submatrix"),
        (3, "Matrix"),
        (3, "delete"),
        (7, "delete"),
        (11, "Matrix._wrap"),
        (11, "Matrix.identity"),
    ]


def test_quasiminors_are_read_without_a_copy():
    assert matrix_copies((ROOT / QUASIDET).read_text(encoding="utf-8")) == []


RING_NAMES = ("rat", "quat")


def ring_name_tests(source: str) -> list:
    """The line of each comparison with a ring name: ``kind == "rat"``, ``kind in ("rat",
    "quat")`` or ``case "quat":``.

    A ring is named once, as a key of ``sampling.RINGS``, and each sampler looks its draw
    up there; a module that compares a value with a ring name branches on the ring.  A ring
    name passed as an argument or used as a key is not a comparison.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(
            isinstance(sub, ast.Constant) and sub.value in RING_NAMES
            for operand in operands
            for sub in ast.walk(operand)
        ):
            out.append(node.lineno)
    return sorted(out)


def test_the_check_sees_a_branch_on_a_ring_name():
    source = (
        "def f(kind, x):\n    if kind == 'rat':\n        pass\n"
        "    if 'quat' != kind or x in ('a', 'quat'):\n        pass\n"
        "    match kind:\n        case 'rat':\n            pass\n"
        "    return {'rat': f}[kind], g(kind, 'quat'), kind == 'rational', kind is RINGS\n"
    )
    assert ring_name_tests(source) == [2, 4, 4, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_module_branches_on_a_ring_name(path):
    assert ring_name_tests(path.read_text(encoding="utf-8")) == []


def test_importing_the_cli_leaves_sympy_unloaded():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    code = "import sys, qbruhat.cli; print(sorted(m for m in sys.modules if m.startswith('sympy')))"
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
