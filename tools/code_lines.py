"""Count the code lines of each module of ``src/feedback_lab``.

A code line is a source line holding a token that is not a comment and
not part of a docstring; blank lines never count, and every non-blank
line of a multi-line string that is not a docstring (a generated loop's
template) does.  Run from anywhere: ``python3 tools/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "feedback_lab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = text.splitlines()
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            counted.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in counted - docs if lines[n - 1].strip())


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")
