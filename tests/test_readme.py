"""README.md's Python examples run, in order, in one namespace.

An expression line whose trailing comment is a whole Python literal, such
as ``list(a)  # [(0.7, 0.2), (0.9, 0.8)]``, must also print as that
literal, so the documented shapes cannot drift from the code.  Every
``phfe`` command line of the shell blocks parses, optional parts included.
"""

import ast
import re
import shlex
from pathlib import Path

from phfe.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
COMMANDS = re.findall(r"^phfe (.*)$", README, re.MULTILINE)


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


def test_readme_command_lines_parse():
    assert len(COMMANDS) == 5
    parser = build_parser()
    for line in COMMANDS:
        # "[--strict]" marks an optional part: parse the line with it present.
        parser.parse_args(shlex.split(line.replace("[", "").replace("]", "")))
