"""Shared fixtures, and plain helpers that test modules import.

Hypothesis profiles: ``tier1``, loaded unless ``--hypothesis-profile``
names another, draws the same examples on every run and keeps no example
database, so a run's verdict depends on the code alone.  ``explore``
draws fresh examples from a random seed and prints the blob that replays
a failure (``@reproduce_failure``).  Both keep each test's
``max_examples``.
"""

from collections import deque

import pytest
from hypothesis import settings

from dlscape import build, materialize_window, u_point_assigned

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")


def deque_shortest_path(window, start, goal):
    """The BFS path from start to goal over the whole window's rows,
    written with a deque and a parent dict: a vertex's parent is the first
    vertex whose row lists it.  From the base it is the spec of
    ``shortest_path``; tests that need a path from elsewhere use it."""
    s, g = window.find(start), window.find(goal)
    parent = {s: None}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        if v == g:
            break
        for w in window.adjacency[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = []
    v = g
    while v is not None:
        path.append(window.vertices[v])
        v = parent[v]
    return path[::-1]


def t_samples(field, count=5):
    """Up to ``count`` integer thresholds spread over the field's values,
    for ``gromov_check``."""
    vals = sorted(set(field.values.values()))
    lo, hi = vals[0], vals[-1]
    step = max(1, (hi - lo) // count)
    return sorted(set(range(lo, hi + 1, step)))[:count]


@pytest.fixture(scope="session")
def line_window():
    return materialize_window(build("line"), 0, 60)


@pytest.fixture(scope="session")
def halfline_window():
    return materialize_window(build("halfline"), 0, 60)


@pytest.fixture(scope="session")
def tree2_window():
    return materialize_window(build("tree", {"b": 2}), (), 14)


@pytest.fixture(scope="session")
def h_window():
    return materialize_window(build("h_graph"), (0, 0), 60)


@pytest.fixture(scope="session")
def h_field(h_window):
    fld, _ = u_point_assigned(h_window, range(6, 49, 6), 10)
    return fld


@pytest.fixture(scope="session")
def line_field(line_window):
    fld, _ = u_point_assigned(line_window, range(8, 49, 8), 10)
    return fld
