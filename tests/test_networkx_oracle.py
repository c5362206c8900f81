"""Window BFS distances against networkx, an independent implementation."""

import random

import pytest

from dlscape import build, materialize_window, shortest_path
from dlscape.space import _bfs_from_indices

nx = pytest.importorskip("networkx")

ALL_GENERATORS = [("line", {}, 40), ("halfline", {}, 40),
                  ("tree", {"b": 2}, 8), ("grid2d", {}, 20),
                  ("h_graph", {}, 30), ("stick", {"m": 6, "h": 2}, 30),
                  ("pendant_line", {}, 30), ("cylinder", {"m": 5}, 30)]


def _graph(window, limit):
    """The window graph induced on the vertex indices below ``limit``."""
    g = nx.Graph()
    g.add_nodes_from(range(limit))
    g.add_edges_from((i, j) for i, j in window.edge_list() if j < limit)
    return g


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_bfs_and_shortest_path_match_networkx(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    rng = random.Random(name)
    n = len(w)
    for rho in (radius // 3, radius - 1, radius):
        limit = w.count_within(rho)
        g = _graph(w, limit)
        for s in rng.sample(range(limit), min(limit, 6)):
            want = nx.single_source_shortest_path_length(g, s)
            got = _bfs_from_indices(w, [s], limit=limit)
            assert got == [want.get(i, -1) for i in range(limit)]
        # a seed past the limit is skipped
        if limit < n:
            assert _bfs_from_indices(w, [0, n - 1], limit=limit) == \
                _bfs_from_indices(w, [0], limit=limit)
    whole = _graph(w, n)
    for s in rng.sample(range(n), 6):
        want = nx.single_source_shortest_path_length(whole, s)
        assert _bfs_from_indices(w, [s]) == [want[i] for i in range(n)]
        for t in rng.sample(range(n), 6):
            path = shortest_path(w, w.vertices[s], w.vertices[t])
            assert len(path) - 1 == want[t]
            assert path[0] == w.vertices[s] and path[-1] == w.vertices[t]
            assert all(w.index[b] in w.adjacency[w.index[a]]
                       for a, b in zip(path, path[1:]))
