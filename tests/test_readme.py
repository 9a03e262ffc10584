"""The README's library quickstart runs, and every `expr  # value`
comment in it names the value: its repr() or its str().  Its command
lines run, and its shell example prints what it shows."""

import ast
import json
import shlex
from pathlib import Path

from torusfill import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def block_after(marker, fence="```"):
    """The body of the first fenced block after `marker` in the README."""
    section = README.read_text().split(marker, 1)[1]
    return section.split(fence + "\n", 1)[1].split("```", 1)[0]


def test_quickstart_comments_hold():
    source = block_after("## Library quickstart", "```python")
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


def test_command_lines_run(capsys):
    lines = [line for line in block_after("## Command line").splitlines()
             if line.startswith("torusfill ")]
    assert len(lines) == 10
    for line in lines:
        assert cli.run(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_shell_example_holds(capsys):
    distfill, compact, parabolic, error, status = block_after("Example:", "```sh").splitlines()
    # `$ torusfill ARGS | python -m json.tool --compact | head -c 72`
    command, _, _ = distfill.split(" | ")
    assert cli.run(shlex.split(command)[2:]) == 0
    out = json.dumps(json.loads(capsys.readouterr().out), separators=(",", ":"))
    assert len(compact) == 72 and distfill.endswith("head -c 72")
    assert out[:72] == compact
    # `$ torusfill ARGS ; echo "exit $?"`, the error line cut at "..."
    command, _ = parabolic.split(" ; ")
    assert cli.run(shlex.split(command)[2:]) == int(status.removeprefix("exit "))
    assert error.endswith(": ...")
    assert capsys.readouterr().err.startswith(error.removesuffix("..."))
