"""The README's library tour runs, and its literal comments are its results;
its CLI examples run too."""

import ast
import pathlib
import re
import shlex

import pytest

from quadtower.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _claimed(line: str, node: ast.stmt):
    """The value a one-line expression statement's trailing comment claims,
    or None when the comment is not a Python literal."""
    if not isinstance(node, ast.Expr) or node.lineno != node.end_lineno:
        return None
    comment = line[node.end_col_offset:].strip()
    if not comment.startswith("#"):
        return None
    try:
        return (ast.literal_eval(comment[1:].strip()),)
    except (ValueError, SyntaxError):
        return None


def test_readme_library_tour_prints_what_its_comments_say():
    source = _python_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        claimed = _claimed(lines[node.lineno - 1], node)
        if claimed is None:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
            continue
        expr = ast.get_source_segment(source, node)
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        assert value == claimed[0], expr
        checked.append(expr)
    # fam.m_phi(), the info fields m_phi, threshold and F_phi, n_phi, the
    # critical orbit, the stability verdict and the stripped witnesses of
    # x^2 + 1 and, above a zero, of x^2 - 1
    assert len(checked) == 8, checked


def _cli_examples() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("quadtower ")]


def test_readme_lists_its_cli_examples():
    assert len(_cli_examples()) == 11


@pytest.mark.parametrize("line", _cli_examples())
def test_readme_cli_example_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
