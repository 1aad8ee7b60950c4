"""The package as a whole: ``__all__`` lists each public name once, each
exists, and README's library sketch runs."""

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


def test_readme_library_sketch_runs_as_written():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "bg.DegreeLaw(vertex=1, params=params, t_max=200) == law" in block
    exec(compile(block, "README.md", "exec"), {})
