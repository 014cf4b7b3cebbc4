import ast
import re
from pathlib import Path

import qsatom

SRC = Path(qsatom.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qsatom.__all__ if not hasattr(qsatom, name)]
    assert missing == []


def test_readme_names_every_exported_name():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in qsatom.__all__ if not re.search(rf"\b{name}\b", text)]
    assert missing == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # would vanish; the package raises explicit errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
