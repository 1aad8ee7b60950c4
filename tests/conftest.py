import os

import pytest
import roll_reference

import bagrowth

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bagrowth.__file__)))


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the bagrowth under test."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


@pytest.fixture
def force_pool(monkeypatch):
    """A call that makes run_replicates start its pool however cheap a replicate is.

    The call returns the list of pool sizes ``ensemble.fan_out`` chose,
    one per run_replicates call of the test (0: ran in-process).
    """
    from bagrowth import ensemble

    sizes = []
    fan_out = ensemble.fan_out

    def recording(*args):
        sizes.append(fan_out(*args))
        return sizes[-1]

    monkeypatch.setattr(ensemble, "fan_out", recording)

    def force():
        monkeypatch.setattr(ensemble, "POOL_START_S", 0.0)
        return sizes

    return force


@pytest.fixture
def flushes(monkeypatch):
    """The per-step reference's flushes, True where one zeroed a nonzero cell."""
    found = []
    flush_top = roll_reference.flush_top

    def recording(rows, top):
        held = any(row[top] for row in rows)
        new = flush_top(rows, top)
        found.append(held and new < top)
        return new

    monkeypatch.setattr(roll_reference, "flush_top", recording)
    return found
