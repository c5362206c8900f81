"""Window materialization, BFS distances, and zone bookkeeping."""

import random

import pytest
from conftest import deque_shortest_path
from hypothesis import given, settings, strategies as st

from dlscape import (ResourceLimitError, ZoneError, build,
                     materialize_window, pairwise_dist, shortest_path,
                     sphere, vertex_budget)
from dlscape.space import Window, _bfs_from_indices

SMALL = [("line", {}, 20), ("halfline", {}, 20), ("tree", {"b": 2}, 8),
         ("grid2d", {}, 8), ("h_graph", {}, 15),
         ("stick", {"m": 5, "h": 2}, 12), ("pendant_line", {}, 12),
         ("cylinder", {"m": 4}, 10)]


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_window_invariants(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    # base first, BFS order is non-decreasing in distance, all within R
    assert w.vertices[0] == w.base and w.dist_from_base[0] == 0
    assert all(a <= b for a, b in
               zip(w.dist_from_base, w.dist_from_base[1:]))
    assert max(w.dist_from_base) <= radius
    # adjacency is symmetric and every edge changes distance by <= 1
    for i, row in enumerate(w.adjacency):
        for j in row:
            assert i in w.adjacency[j]
            assert abs(w.dist_from_base[i] - w.dist_from_base[j]) <= 1
    # the index is the inverse of the vertex list
    assert all(w.find(v) == i for i, v in enumerate(w.vertices))
    # balls are index prefixes, spheres their differences; a BFS confined
    # to B_r agrees with the whole-window BFS there
    for r in range(radius + 1):
        ball = [i for i, d in enumerate(w.dist_from_base) if d <= r]
        assert ball == list(range(w.count_within(r)))
        assert sphere(w, r) == tuple(sorted(
            v for v, d in zip(w.vertices, w.dist_from_base) if d == r))
        seeds = [i for i in ball if w.dist_from_base[i] == r]
        full = _bfs_from_indices(w, seeds)
        assert _bfs_from_indices(w, seeds, limit=len(ball)) == \
            full[:len(ball)]


def _window_fields(w):
    return (w.space, w.base, w.radius, w.vertices,
            {v: w.find(v) for v in w.vertices}, w.dist_from_base,
            w.adjacency)


@pytest.mark.parametrize("name,params,radius",
                         SMALL + [("line", {}, 3000), ("halfline", {}, 3000)])
def test_materialize_from_known_window(name, params, radius):
    """Rows taken from a known window give the plain materialization, for
    bases inside it, on its boundary shell and outside it, and for radii
    inside it and reaching past its edge; the line and halfline at radius
    3,000 grow thin shells, one or two vertices each, from known rows."""
    space = build(name, params)
    known = materialize_window(space, space.default_base(), radius)
    outer = materialize_window(space, space.default_base(), radius + 2)
    dist = outer.dist_from_base
    picks = {0, known.count_within(1) - 1, known.count_within(radius // 2),
             known.count_within(radius - 1), len(known) - 1,
             len(outer) - 1}
    for i in sorted(picks):
        b = outer.vertices[i]
        for m in sorted({0, 1, radius // 2, radius - dist[i],
                         radius - dist[i] + 1, radius, radius + 3}):
            if m < 0:
                continue
            plain = materialize_window(space, b, m)
            assert _window_fields(materialize_window(space, b, m,
                                                     known=known)) == \
                _window_fields(plain)


@pytest.mark.parametrize("name,base,radius,known_base,known_radius", [
    ("line", 3, 1200, 0, 1500), ("halfline", 10, 1500, 0, 1600),
    ("grid2d", (3, -5), 20, (0, 0), 30), ("h_graph", (2, 3), 25, (0, 0), 40),
    ("cylinder", (4, 1), 15, (0, 0), 20)])
def test_growth_one_shell_per_call_is_growth_in_one_call(
        name, base, radius, known_base, known_radius):
    """A window grown from known rows one shell per call holds, after
    each call, the window of that radius, and at the end what one call
    to the radius builds; from the generator alike."""
    space = build(name, {"m": 5} if name == "cylinder" else {})
    known = materialize_window(space, known_base, known_radius)
    for kn in (known, None):
        whole = materialize_window(space, base, radius, known=kn)
        whole.count_within(radius)
        stepped = _on_demand(space, base, radius, kn)
        assert stepped.known is kn
        for r in range(1, radius + 1):
            stepped.count_within(r)
            assert stepped.grown == r
            if r % 5 == 0 or r < 3:
                assert _held(stepped) == _eager(space, base, r)
        assert _held(stepped) == _held(whole)


class _RecordingRows(list):
    """Adjacency rows that record the index of each row read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return list.__getitem__(self, i)


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_growth_from_known_rows_reads_only_its_ball(name, params, radius):
    """Growing B_r(b) from known rows, one step at a time, reads each row
    it builds once, and each is a row of known's B_s(o), s = d(o, b) + r,
    so every index the flat table looks up lies in B_{s + 1}(o)."""
    space = build(name, params)
    known = materialize_window(space, space.default_base(), radius)
    dist = known.dist_from_base
    rows = known._adjacency = _RecordingRows(known._adjacency)
    for i in sorted({0, 1, known.count_within(radius // 3) - 1}):
        b = known.vertices[i]
        w = materialize_window(space, b, radius - dist[i], known=known)
        for r in range(1, radius - dist[i] + 1):
            head = w.count_within(r - 2) if r > 1 else 0   # S_{r - 1}
            rows.read.clear()
            n = w.count_within(r)
            grown = map(w.vertex_at, range(head, n))
            assert sorted(rows.read) == sorted(known.find(v) for v in grown)
            assert max(rows.read) < known.count_within(dist[i] + r)
        assert _window_fields(w) == _window_fields(
            materialize_window(space, b, radius - dist[i]))


def _budgeted(monkeypatch, budget, space, base, radius, known=None):
    """materialize_window under a vertex budget of ``budget``."""
    with monkeypatch.context() as m:
        m.setenv("DLSCAPE_MAX_VERTICES", str(budget))
        return materialize_window(space, base, radius, known=known)


def test_materialize_from_known_window_checks(monkeypatch):
    """The vertex budget holds on both paths: a ball past the known
    window's edge and one read off its rows."""
    known = materialize_window(build("line"), 0, 10)
    with pytest.raises(ResourceLimitError):
        _budgeted(monkeypatch, 20, known.space, 3, 30, known=known)
    with pytest.raises(ResourceLimitError):
        _budgeted(monkeypatch, 5, known.space, 3, 5, known=known)


def test_a_radius_at_the_budget_raises_before_any_growth(monkeypatch):
    """|B_R| >= R + 1 in an infinite connected graph, and the line's bound
    2R + 1 is |B_R| itself, so a line ball over the budget raises the
    budget's error with no growth, at or below R = budget, from the
    generator or from a known window's rows.  The tree's bound is not
    exact, so below the budget its error comes from the growth."""
    grown = []
    grow = Window._grow
    monkeypatch.setattr(Window, "_grow",
                        lambda self, rho: grown.append(rho) or grow(self, rho))
    line, tree = build("line"), build("tree", {"b": 2})
    known = materialize_window(line, 0, 40)
    for space, radius, source in ((line, 10, None), (line, 11, None),
                                  (line, 10, known), (line, 5, None),
                                  (tree, 10, None), (tree, 9, None)):
        with pytest.raises(ResourceLimitError,
                           match=rf"R={radius}\) exceeds vertex budget 10"):
            _budgeted(monkeypatch, 10, space, space.default_base(), radius,
                      known=source)
        assert grown == ([9] if space is tree and radius == 9 else [])


@given(x=st.integers(-30, 30))
def test_line_distance_closed_form(x):
    w = materialize_window(build("line"), 0, 40)
    assert w.dist_from_base[w.find(x)] == abs(x)


@given(x=st.integers(-6, 6), y=st.integers(-6, 6))
@settings(max_examples=30)
def test_grid_distance_is_l1(x, y):
    w = materialize_window(build("grid2d"), (0, 0), 14)
    assert w.dist_from_base[w.find((x, y))] == abs(x) + abs(y)


def test_sphere_membership(line_window):
    assert sphere(line_window, 5) == (-5, 5)
    with pytest.raises(ZoneError):
        sphere(line_window, line_window.radius + 1)


def test_dist_field_multisource(line_window):
    idx = line_window.find
    df = _bfs_from_indices(line_window, [idx(-3), idx(7)])
    assert df[idx(0)] == 3
    assert df[idx(6)] == 1


def test_pairwise_dist(line_window):
    mat = pairwise_dist(line_window, [-5, 0, 8])
    assert mat == [[0, 5, 13], [5, 0, 8], [13, 8, 0]]
    with pytest.raises(ZoneError):
        pairwise_dist(line_window, [line_window.radius])


def test_shortest_path(h_window):
    path = shortest_path(h_window, (3, 3))
    assert path[0] == (0, 0) and path[-1] == (3, 3)
    assert len(path) - 1 == h_window.dist_from_base[h_window.find((3, 3))]
    for a, b in zip(path, path[1:]):
        assert h_window.find(b) in h_window.adjacency[h_window.find(a)]


def test_vertex_budget_env(monkeypatch):
    monkeypatch.setenv("DLSCAPE_MAX_VERTICES", "10")
    assert vertex_budget() == 10
    with pytest.raises(ResourceLimitError):
        materialize_window(build("line"), 0, 30)
    monkeypatch.delenv("DLSCAPE_MAX_VERTICES")
    assert vertex_budget() == 2_000_000


def test_require_zone(h_window):
    with pytest.raises(ZoneError) as exc:
        h_window.require_zone((50, 50), 5, what="probe")
    assert exc.value.parameter in ("zone", "radius")
    with pytest.raises(ZoneError) as exc:
        h_window.require_zone((3, 3), 5, what="probe")
    assert exc.value.parameter == "zone" and exc.value.need == 6


def test_require_all_names_one_need_for_the_list(line_window):
    """The first vertex outside the window is the witness, and the need
    is the largest d(base, v) over the list, so one radius holds it all;
    a vertex the space does not contain counts for none."""
    assert line_window.require_all([0, 3], "probe") == \
        [line_window.find(0), line_window.find(3)]
    with pytest.raises(ZoneError) as exc:
        line_window.require_all([5, 70, -90, 65, (1, 2)], "probe")
    e = exc.value
    assert (e.parameter, e.witness, e.need) == ("radius", 70, 90)
    tree = materialize_window(build("tree", {"b": 2}), (), 2)
    with pytest.raises(ZoneError) as exc:
        tree.require_all([(0,), (0, 0, 0)], "probe")
    assert exc.value.need is None


def _held(w):
    """The window's lists as held, without growing it: its vertices, each
    found at its index, distances and rows."""
    vertices = list(map(w.vertex_at, range(len(w._dist))))
    return (w.grown, vertices, [w.find(v) for v in vertices],
            len(w._index), w._dist, w._adjacency)


def _eager(space, base, radius):
    w = materialize_window(space, base, radius)
    len(w)
    return _held(w)


def _on_demand(space, base, radius, known=None):
    """A window that grows on demand, whatever bound the space proves."""
    space.ball_size_bound = lambda base, radius: 1
    try:
        w = materialize_window(space, base, radius, known=known)
    finally:
        del space.ball_size_bound
    assert w.grown == 0
    return w


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_window_grown_to_r_is_the_window_of_radius_r(name, params, radius):
    """Grown in seeded random steps, through count_within, geodesic_ball
    and lookups, a window in state r holds the window of radius r, from
    the generator (three windows at the base) and from the rows of a
    known window: bases inside it, with radii that reach its boundary
    shell, and bases on that shell and past it, which known cannot serve
    and the generator does."""
    space = build(name, params)
    base = space.default_base()
    known = materialize_window(space, base, radius)
    outer = materialize_window(space, base, radius + 1)
    dist = outer.dist_from_base
    rng = random.Random(name)
    starts = [(base, radius, None)] * 3
    for i in (1, known.count_within(radius // 2) - 1, len(known) - 1,
              len(outer) - 1):
        starts.append((outer.vertices[i], max(1, radius - dist[i]), known))
    for b, m, kn in starts:
        whole = materialize_window(space, b, m)
        w = _on_demand(space, b, m, kn)
        assert w.known is (kn if dist[outer.find(b)] < radius else None)
        r = 0
        while r < m:
            r = min(m, r + rng.randint(1, 4))
            op = rng.randrange(3)
            if op == 0:
                assert w.count_within(r) == len(w._vertices)
            elif op == 1:
                assert w.geodesic_ball(0, r, r) == len(w._vertices)
            else:
                i = whole.count_within(r) - 1
                assert w.find(whole.vertices[i]) == i
                assert r <= w.grown <= max(1, 2 * r)
                r = w.grown
            assert w.grown == r
            assert _held(w) == _eager(space, b, r)
        assert w.count_within(m + 5) == len(w._vertices)
        assert w.grown == m


PUBLIC_READS = [len, lambda w: w.vertices, lambda w: w.dist_from_base,
                lambda w: w.adjacency,
                lambda w: _bfs_from_indices(w, [0])]


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_whole_window_reads_grow_to_the_radius(name, params, radius):
    space = build(name, params)
    base = space.default_base()
    want = _eager(space, base, radius)
    for read in PUBLIC_READS:
        w = _on_demand(space, base, radius)
        w.count_within(radius // 2)
        read(w)
        assert _held(w) == want


def _past(space, base, radius):
    """A vertex at distance radius + 1 from the base."""
    outer = materialize_window(space, base, radius + 1)
    return outer.vertex_at(len(outer) - 1)


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_a_provable_miss_answers_without_growth(name, params, radius):
    """A value that is not a vertex, and a vertex whose closed-form
    distance exceeds R, are answered None with the window left as it
    was held."""
    space = build(name, params)
    base = space.default_base()
    far = _past(space, base, radius)
    w = _on_demand(space, base, radius)
    w.count_within(radius // 2)
    held = _held(w)
    assert w.find(("not", "a", "vertex")) is None and _held(w) == held
    if space.distance(base, far) is not None:
        assert w.find(far) is None and _held(w) == held


def test_a_miss_with_no_closed_form_grows_to_the_radius():
    """A tree vertex past R has no closed-form distance, so its miss grows
    the window to R before it answers None."""
    tree = build("tree", {"b": 2})
    far = _past(tree, (), 8)
    assert tree.distance((), far) is None
    w = _on_demand(tree, (), 8)
    assert w.find(far) is None and _held(w) == _eager(tree, (), 8)


@pytest.mark.parametrize("name,params,radius", SMALL)
def test_shortest_path_stops_at_its_ball(name, params, radius):
    """The path to g grows a window held to a random state no further than
    ``find(g)`` grows its twin; it is the BFS path the whole window gives."""
    space = build(name, params)
    base = space.default_base()
    whole = materialize_window(space, base, radius)
    n = len(whole)
    rng = random.Random(name)
    for g in [0, n - 1] + [rng.randrange(n) for _ in range(20)]:
        b = whole.vertices[g]
        w, twin = _on_demand(space, base, radius), \
            _on_demand(space, base, radius)
        held = rng.randint(0, radius)
        w.count_within(held)
        twin.count_within(held)
        twin.find(b)
        assert shortest_path(w, b) == deque_shortest_path(whole, base, b)
        assert w.grown == twin.grown, b


def test_windows_grow_on_demand_only_under_the_vertex_budget(monkeypatch):
    """The budget rule: a window is built on demand only when the space's
    bound on |B_R| fits the budget, so ResourceLimitError still comes at
    construction, on the inputs it always came on."""
    line, tree = build("line"), build("tree", {"b": 2})
    assert _budgeted(monkeypatch, 61, line, 0, 30).grown == 0
    with pytest.raises(ResourceLimitError):
        _budgeted(monkeypatch, 60, line, 0, 30)
    assert materialize_window(tree, (), 6).grown == 0
    with pytest.raises(ResourceLimitError):
        _budgeted(monkeypatch, 126, tree, (), 6)
    # a space that proves no bound builds at once
    tree.ball_size_bound = lambda base, radius: None
    assert materialize_window(tree, (), 6).grown == 6


BOUNDED = [("line", 0, True), ("line", 17, True), ("halfline", 0, True),
           ("halfline", 9, True), ("grid2d", (0, 0), True),
           ("grid2d", (4, -3), True), ("h_graph", (0, 0), False),
           ("h_graph", (-5, 2), False), ("h_graph", (3, 9), False)]


@pytest.mark.parametrize("name,base,exact", BOUNDED)
def test_ball_size_bound(name, base, exact):
    """ball_size_bound(base, R) >= |B_R(base)| for R <= 150; it is |B_R|
    on the line, halfline and grid."""
    space = build(name)
    w = materialize_window(space, base, 150)
    for r in range(151):
        bound, size = space.ball_size_bound(base, r), w.count_within(r)
        assert bound == size if exact else bound >= size, (r, bound, size)


# (generator, params, radius, bases): the tree bound is exact at the root
BOUNDED_MORE = [
    ("tree", {"b": 2}, 7, [(), (1,), (0, 1, 1)]),
    ("tree", {"b": 3}, 5, [(), (2, 0)]),
    ("tree", {"b": 1}, 20, [(), (0, 0, 0)]),
    ("cylinder", {"m": 5}, 30, [(0, 0), (-7, 3)]),
    ("pendant_line", {}, 40, [(0, 0), (3, 1)]),
    ("stick", {"m": 5, "h": 2}, 30, [("apex",), ("spoke", 1, 2),
                                     ("cycle", 4), ("ray", 2, 6)])]


@pytest.mark.parametrize("name,params,radius,bases", BOUNDED_MORE)
def test_ball_size_bound_more_generators(name, params, radius, bases,
                                         monkeypatch):
    """ball_size_bound(base, R) >= |B_R(base)| from several bases; a window
    past the budget still raises at construction, and one inside the
    bound grows on demand."""
    space = build(name, params)
    for base in bases:
        w = materialize_window(space, base, radius)
        for r in range(radius + 1):
            bound, size = space.ball_size_bound(base, r), w.count_within(r)
            assert bound >= size, (base, r, bound, size)
            if name == "tree" and base == ():
                assert bound == size
        assert _budgeted(monkeypatch, bound, space, base, radius).grown == 0
        with pytest.raises(ResourceLimitError):
            _budgeted(monkeypatch, size - 1, space, base, radius)
