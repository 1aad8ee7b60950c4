"""The package as a whole: ``__all__`` lists each public name once, each
exists, and no module checks an invariant with ``assert``."""

import ast
import subprocess
import sys
from pathlib import Path

import bagrowth


def test_all_names_resolve_once():
    assert len(set(bagrowth.__all__)) == len(bagrowth.__all__)
    missing = [name for name in bagrowth.__all__ if not hasattr(bagrowth, name)]
    assert not missing


def test_star_import_succeeds(src_env):
    # a name in __all__ that the package lacks makes the star import raise
    subprocess.run([sys.executable, "-c", "from bagrowth import *"], capture_output=True,
                   text=True, check=True, env=src_env)


def test_package_has_no_assert():
    # python -O strips asserts, so an invariant must raise an explicit error
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(bagrowth.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found
