"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "falin").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) for every non-relative import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_relative_or_stdlib():
    assert len(SOURCES) > 1
    outside = [(path.name, line, name) for path in SOURCES
               for line, name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


def test_every_module_parses_as_the_oldest_supported_python():
    # pyproject.toml's requires-python = ">=3.10"; feature_version makes a
    # newer interpreter reject syntax that 3.10 does not have
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
