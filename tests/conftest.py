import os

import pytest

import bagrowth

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bagrowth.__file__)))


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the bagrowth under test."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
