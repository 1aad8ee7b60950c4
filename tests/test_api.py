"""The package's public names: ``__all__`` lists each once, and each exists."""

import subprocess
import sys

import bagrowth


def test_all_names_resolve_once():
    assert len(set(bagrowth.__all__)) == len(bagrowth.__all__)
    missing = [name for name in bagrowth.__all__ if not hasattr(bagrowth, name)]
    assert not missing


def test_star_import_succeeds(src_env):
    # a name in __all__ that the package lacks makes the star import raise
    subprocess.run([sys.executable, "-c", "from bagrowth import *"], capture_output=True,
                   text=True, check=True, env=src_env)
