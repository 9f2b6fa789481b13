"""Every private module-level name of the package is used in the package,
and every module reads what it imports.

Tests may still call a helper whose last caller in the package is gone, so
nothing else fails when one is left behind.  A name counts as used when the
package loads it, reads it as an attribute, or holds it as a string, as
``problems._BUILDERS`` holds the names of the builders it looks up.  An
import counts as read only when its own module loads the name it binds.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src/greedy_eig"


def private_definitions(tree):
    """The private functions, classes and constants a module defines at
    its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def references(tree):
    """Every name loaded, attribute read and string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in references(tree)}
    defined = [(module, name) for module, tree in trees.items()
               for name in private_definitions(tree)]
    assert defined, f"no private module-level name found under {PACKAGE}"
    orphans = [f"{module}: {name}" for module, name in defined
               if name not in used]
    assert not orphans, f"defined but never used in the package: {orphans}"


def imported_names(tree):
    """The names a module binds by its top-level imports, ``from
    __future__`` ones aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_read():
    """``__init__`` imports to re-export, so it is left out."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in imported_names(tree)
                   if name not in loaded]
    assert not unread, f"imported but never read: {unread}"
