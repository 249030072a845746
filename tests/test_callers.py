"""Nothing in src/ lacks a caller, unless the README names it as API."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "lamorder")


def _defined(tree):
    """The top-level functions, classes and assignments of a module that
    carry no decorator and are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [] if node.decorator_list else [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (n for n in names if not (n.startswith("__") and n.endswith("__")))


def uncalled_names():
    """Each name defined at the top of a module of src/ (``__init__.py``
    aside) that no module of src/ reads, as a name or an attribute."""
    defined, used = [], set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if name != "__init__.py":
            defined += _defined(tree)
    return [n for n in defined if n not in used]


def test_every_uncalled_name_is_readme_api():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    unnamed = [n for n in uncalled_names() if not re.search(r"`(\w+\.)*%s\b" % n, readme)]
    assert not unnamed, "no caller in src/ and not named in README: %s" % unnamed
