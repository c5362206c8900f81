"""Windows that hold small int codes: grid2d and h_graph against a plain
BFS over the tuple neighbor rule, and against twins that hold tuples."""

from collections import deque
from fractions import Fraction

import pytest

from dlscape import (ZoneError, build, equivalence_classes, gh,
                     materialize_window, point_assigned_family, rho_matrix,
                     u_point_assigned)
from dlscape.pseudometric import base_lipschitz_gap
from dlscape.zoo import Grid2D, HGraph

CODED = {"grid2d": [(0, 0), (-7, 5), (-1000, 2000), (123456, -98765)],
         "h_graph": [(0, 0), (3, 3), (-37, 5), (-500, 0), (1000, 999)]}


class TupleGrid2D(Grid2D):
    code_rule = None


class TupleHGraph(HGraph):
    code_rule = None


TWINS = {"grid2d": TupleGrid2D, "h_graph": TupleHGraph}


def _plain_bfs(space, base, radius):
    """B_radius(base) by a deque BFS over ``space.neighbors``: the vertex
    order, distances and rows (in-ball neighbors in generator order)."""
    dist = {base: 0}
    order = [base]
    queue = deque([base])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in space.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                queue.append(w)
    at = {v: i for i, v in enumerate(order)}
    rows = [tuple(at[w] for w in space.neighbors(v) if w in at)
            for v in order]
    return order, [dist[v] for v in order], rows


@pytest.mark.parametrize("name", sorted(CODED))
def test_coded_window_is_the_plain_bfs(name):
    space = build(name)
    for base in CODED[name]:
        for radius in range(13):
            w = materialize_window(space, base, radius)
            order, dist, rows = _plain_bfs(space, base, radius)
            assert w._codec is not None
            assert list(w.vertices) == order, (base, radius)
            assert w.dist_from_base == dist and w.adjacency == rows
            assert [w.find(v) for v in order] == list(range(len(order)))
            assert [w.vertex_at(i) for i in range(len(w))] == order


@pytest.mark.parametrize("name", sorted(CODED))
def test_vertices_off_the_box_are_never_found(name):
    """A vertex just outside the box |dx|, |dy| <= R + 1, one far off, and
    anything but a pair of ints have no code: find gives None and
    require_zone refuses it.  A float pair has none even where its
    arithmetic would land on a held code: (x0 + k/S) * S + y rounds to
    the code of (x0 + k, y)."""
    space = build(name)
    for base in CODED[name]:
        for radius in (0, 1, 5, 12):
            w = materialize_window(space, base, radius)
            a, b = base
            edge, s = radius + 2, 2 * radius + 3
            x0, y0 = a - radius - 1, b - radius - 1
            # (a - 1, b + S) would take the base's code, (a, b), if codes
            # wrapped around the stride S.
            for v in [(a + edge, b), (a - edge, b), (a, b + edge),
                      (a + 10 ** 6, b), (a + 3 * s, b), (a - 1, b + s),
                      *((x0 + k / s, y0 + j) for k in (1, s // 2, s - 1)
                        for j in range(s)),
                      (float(a), b), (a, float(b)), (True, b), [a, b],
                      (a, b, 0), "ab", None]:
                assert w._codec.encode(v) is None, v
                assert w.find(v) is None
                with pytest.raises(ZoneError):
                    w.require_zone(v, radius)


@pytest.mark.parametrize("name", sorted(CODED))
def test_radius_r_window_is_a_prefix_of_the_2r_window(name):
    space = build(name)
    for base in CODED[name]:
        for radius in (0, 3, 7, 12):
            small = materialize_window(space, base, radius)
            big = materialize_window(space, base, 2 * radius)
            n = len(small)
            assert big.count_within(radius) == n
            assert big.vertices[:n] == list(small.vertices)
            assert big.dist_from_base[:n] == small.dist_from_base
            assert [tuple(j for j in row if j < n)
                    for row in big.adjacency[:n]] == small.adjacency
            assert all(big.find(v) == small.find(v) for v in small.vertices)


@pytest.mark.parametrize("name", sorted(CODED))
def test_coded_window_equals_its_tuple_twin(name):
    space, twin = build(name), TWINS[name]()
    for base in CODED[name]:
        w, t = (materialize_window(s, base, 12) for s in (space, twin))
        assert t._codec is t.space
        assert w.vertices == t.vertices
        assert w.dist_from_base == t.dist_from_base
        assert w.adjacency == t.adjacency


@pytest.mark.parametrize("name,bases", [
    ("grid2d", [(0, 0), (2, -1), (-3, 2)]),
    ("h_graph", [(0, 0), (1, 1), (-2, 0)])])
def test_cross_codec_reads_match_the_tuple_twin(name, bases):
    """Fields on generator-grown windows of different codecs (own bases
    and radii) read each other through the vertices: the Lipschitz gap,
    the classes and the experiment give what the tuple twins give."""
    sched, zone = range(4, 25, 4), 8
    out = []
    for space in (build(name), TWINS[name]()):
        flds = {b: u_point_assigned(materialize_window(space, b, 24 + k),
                                    sched, zone)[0]
                for k, b in enumerate(bases)}
        codecs = [f.window._codec for f in flds.values()]
        assert all(c is space for c in codecs) or len(
            {(c.stride, c.x0, c.y0) for c in codecs}) == len(codecs)
        gaps = [base_lipschitz_gap(flds[a], flds[b])
                for a in bases for b in bases]
        window = materialize_window(space, (0, 0), 30)
        rho = rho_matrix(window, bases, sched, zone, fields=flds)
        classes = equivalence_classes(window, bases, sched, zone,
                                      fields=flds, rho=rho)
        family = point_assigned_family(window, bases, sched, zone)
        assert classes.blocks == equivalence_classes(
            window, bases, sched, zone, fields=family).blocks
        fx, fy = flds[bases[0]], u_point_assigned(
            materialize_window(space, bases[0], 31), sched, zone)[0]
        report = gh.pa_gh_experiment(fx, fy, gh.MAPPINGS["identity"],
                                     Fraction(0))
        out.append((gaps, rho.two_rho, classes.blocks, report.to_json(space)))
    assert out[0] == out[1]
