"""No module of the package uses another module's underscore names.

A name with a leading underscore is private to the module that defines it;
each remaining exception is listed below with the reason it stands.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "falin").glob("*.py"))

ALLOWED = {
    ("endo", "freealg", "_mul_into"):
        "the one product loop over raw term maps; endo's substitution "
        "kernel adds its integer word products with it",
    ("endo", "freealg", "_horner"):
        "compose evaluates each t-part in Horner form over raw term maps",
    ("cli", "textio", "_word_str"):
        "check's witness line prints a word as the document grammar does",
}


def private_uses(path):
    """(module, source module, name) for every underscore name ``path``
    imports from, or reads off, another module of the package."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}  # local name -> package module, for `from . import m`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    yield path.stem, node.module, alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield path.stem, modules[node.value.id], node.attr


def test_no_module_uses_another_modules_private_names():
    assert len(SOURCES) > 1
    found = {use for path in SOURCES for use in private_uses(path)}
    assert sorted(found - set(ALLOWED)) == []
    # an exception that is no longer used leaves the list
    assert sorted(set(ALLOWED) - found) == []
