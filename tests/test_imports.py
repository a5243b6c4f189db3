"""Every name a package module imports is used there, and the package
imports no third-party module that pyproject.toml does not declare.

Read with the standard library's ast: a name counts as used where the
module reads, writes or deletes it, or lists it in __all__ (the
package's re-exports).  `from __future__ import ...` binds no name.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spiralbounds"


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


def third_party_imports(source):
    """The top-level modules outside the standard library that the module
    `source` imports, at any depth of its code; relative imports are the
    package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names)


def declared_dependencies(pyproject):
    """The distribution names in [project] dependencies, as modules."""
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject,
                       re.MULTILINE | re.DOTALL).group(1)
    return {name.lower().replace("-", "_")
            for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}


def test_the_rule_finds_third_party_imports():
    source = ("import os.path, numpy.linalg\nfrom . import cli\n"
              "from json import dumps\n"
              "def f():\n    from orjson import loads\n")
    assert third_party_imports(source) == {"numpy", "orjson"}
    pyproject = ('[project]\nname = "x"\ndependencies = [\n'
                 '    "numpy>=1.24",\n    "Some-Dist",\n]\n')
    assert declared_dependencies(pyproject) == {"numpy", "some_dist"}


def test_package_imports_are_the_declared_dependencies():
    imported = set().union(*(third_party_imports(path.read_text())
                             for path in PACKAGE.glob("*.py")))
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert imported == declared == {"numpy", "orjson"}
