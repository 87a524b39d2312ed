"""Print the code lines of each module of src/subsup, then their total.

A code line holds a token other than a comment and is not part of a
docstring; blank lines do not count.  Run: python tools/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "subsup"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(text):
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


total = 0
for path in sorted(PACKAGE.glob("*.py")):
    count = code_lines(path.read_text(encoding="utf-8"))
    total += count
    print(f"{path.name:24} {count:5}")
print(f"{'total':24} {total:5}")
