"""Repository rules that are cheaper to check than to remember."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "umarfid"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_correctness_check_in_an_assert(path):
    # python -O strips assert statements, so a check written as one would
    # silently vanish; raise an exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert at line(s) {found}"


def test_the_source_tree_is_found():
    assert len(list(SRC.glob("*.py"))) >= 7
