"""Opt-in pytest plugin: list the statements of ``src/qbruhat`` that a test run never ran.

Run it as

    PYTHONPATH=src:tests python -m pytest -p linetrace

It traces the package's frames with ``sys.settrace`` and ``threading.settrace`` from
``pytest_configure`` on, so the package's import is traced too, and at the end of the
run prints, by module, each statement with no line event.  Definitions, imports,
docstrings and the statements that make no code of their own (``pass``, ``global``,
``nonlocal``, a ``try`` header) are not listed.  A statement counts as run when any
line of it ran, the header lines only for a compound statement.  Tracing makes the
run several times slower, so it is not part of the tier-1 suite.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbruhat"
SKIPPED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
    ast.Try,
)


def statements(source):
    """(first line, own lines) of each listed statement of a module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out)


class LineTrace:
    """The line events of the package's frames, and the report of the statements without one."""

    def __init__(self):
        self.hits = {}  # resolved path of each package module -> line numbers that ran
        self.files = {}  # co_filename -> its set in hits, or None outside the package

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            path = Path(filename).resolve()
            inside = path.parent == PACKAGE
            self.files[filename] = self.hits.setdefault(path, set()) if inside else None
        lines = self.files[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def never_ran(self):
        """{module file name: [(line, source text), ...]} of the statements with no line event."""
        report = {}
        for path in sorted(PACKAGE.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            hit = self.hits.get(path, set())
            missed = [
                (first, text[first - 1].strip())
                for first, own in statements(source)
                if not any(line in hit for line in own)
            ]
            if missed:
                report[path.name] = missed
        return report

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        report = self.never_ran()
        total = sum(len(missed) for missed in report.values())
        terminalreporter.section(f"linetrace: {total} statements of src/qbruhat never ran")
        for name, missed in report.items():
            terminalreporter.write_line(f"{name}: {len(missed)}")
            for line, text in missed:
                terminalreporter.write_line(f"  {line}: {text}")


def pytest_configure(config):
    tracer = LineTrace()
    config.pluginmanager.register(tracer, "linetrace-tracer")
    sys.settrace(tracer.trace)
    threading.settrace(tracer.trace)
