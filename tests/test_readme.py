"""README.md's Python examples run, in order, in one namespace.

An expression line whose trailing comment is a whole Python literal, such
as ``list(a)  # [(0.7, 0.2), (0.9, 0.8)]``, must also print as that
literal, so the documented shapes cannot drift from the code.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)


def _documented_literal(line):
    """The literal in ``line``'s trailing comment, or None if the comment is not one."""
    _, hash_, comment = line.partition("#")
    try:
        return ast.literal_eval(comment.strip()) if hash_ else None
    except (ValueError, SyntaxError):
        return None


def test_readme_python_examples_run():
    assert len(BLOCKS) == 3
    namespace = {}
    checked = 0
    for block in BLOCKS:
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            line = lines[statement.end_lineno - 1]
            expected = _documented_literal(line)
            if expected is not None:
                assert repr(value) == repr(expected), line
                checked += 1
    assert checked == 2
