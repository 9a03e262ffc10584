"""The README's library quickstart runs, and every `expr  # value`
comment in it names the value: its repr() or its str()."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_source():
    section = README.read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_comments_hold():
    source = quickstart_source()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment.startswith("#"):
            continue
        expected = comment[1:].strip()
        if isinstance(stmt, ast.Assign):
            value = namespace[stmt.targets[0].id]
        else:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert expected in (repr(value), str(value)), ast.get_source_segment(source, stmt)
        checked += 1
    assert checked == 8
