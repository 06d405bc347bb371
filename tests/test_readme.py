"""The Python examples of README.md run, in one namespace, and each
expression commented with a value gives that value: the comment up to
its first ': ' is the repr of the result."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_give_their_commented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, checked = {}, []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            source = "\n".join(lines[stmt.lineno - 1:stmt.end_lineno])
            comment = lines[stmt.end_lineno - 1].partition("  # ")[2]
            if isinstance(stmt, ast.Expr) and comment:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert repr(value) == comment.split(": ")[0], source
                checked.append(source)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert len(checked) == 8
