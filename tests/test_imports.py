"""Every name a package module imports is used there.

Read with the standard library's ast: a name counts as used where the
module reads, writes or deletes it, or lists it in __all__ (the
package's re-exports).  `from __future__ import ...` binds no name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spiralbounds"


def unused_imports(source):
    """The names that the module `source` imports but never uses, in
    order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_rule_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .geometry import arcs, take as pick, height\n"
              "__all__ = ['height']\n"
              "def f(x: np.ndarray):\n    return os.sep\n")
    assert unused_imports(source) == ["arcs", "pick"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == [], path.name
