"""List the statements of ``src/feedback_lab`` that no test executes.

Runs pytest in this process under ``sys.settrace`` and prints each
statement of the package that never ran, as ``path:line: source``, then
a count per module.  Statements come from ``ast``: docstrings, ``def``
and ``class`` headers, imports and ``global`` declarations are left
out, as they run at import or not at all.  A compound statement counts
as run when its header (an ``if`` test, a ``for`` target) ran.  Only
the stdlib is used.

Usage, from anywhere: ``python3 tools/reach.py [pytest args]``; the
arguments default to the ``tests`` directory.  The exit code is
pytest's.

The kernels' generated loops are compiled from template strings under
``<...>`` names, so the lines they run are not attributed to any
module, and their templates hold no statements to list.  Tracing is
slow: a traced Tier-1 run took about 140 s on a 2-vCPU x86_64 host,
against 26 s untraced, so a test with a time budget (criterion 3's 1 s)
can fail under the trace; the statements it ran are still counted.
"""

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "feedback_lab"
UNLISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(text):
    """The line ranges of a module's listed statements: for each one, its
    first line and the lines its header spans."""
    tree = ast.parse(text)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            docs.add(id(node.body[0]))
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, UNLISTED)
                or id(node) in docs):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(out)


def main(args):
    sys.path.insert(0, str(SRC.parent))
    import pytest

    prefix = str(SRC) + os.sep
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        missed = [n for n, span in statements(text)
                  if not any((str(path), k) in ran for k in span)]
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
        counts.append((path.name, len(missed)))
    for name, n in counts:
        print(f"{name:16} {n:5} unreached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
