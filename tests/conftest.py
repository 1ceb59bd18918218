import math
import os

import pytest

from ruinwalk.core import Strategy, WalkParams

# the standard verification grid shared by several suites
GRID_P = (0.3, 0.45, 0.5, 0.55, 0.7)
GRID_S = (0.1, 0.5, 0.9)
GRID_I0 = (1, 2, 3, 5)

SQRT3 = math.sqrt(3.0)


def grid_params():
    for p in GRID_P:
        for s in GRID_S:
            for i0 in GRID_I0:
                yield WalkParams(p, s, i0)


def small_grid():
    """A cheaper sub-grid for oracle-heavy tests."""
    for p in (0.3, 0.5, 0.7):
        for s in (0.1, 0.5):
            for i0 in (1, 2, 3):
                yield WalkParams(p, s, i0)


@pytest.fixture(params=list(Strategy), ids=lambda s: s.value)
def strategy(request):
    return request.param


@pytest.fixture
def forks(monkeypatch):
    """The number of forks, counted in this process around the real ``os.fork``."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_every_child_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
