"""Window BFS distances against networkx, an independent implementation."""

import random

import pytest
from conftest import deque_shortest_path

from dlscape import (CoRay, DescentError, ScalarField, ZoneError, build,
                     busemann, fields, gromov_check, materialize_window,
                     pairwise_dist, representation_check, shortest_path,
                     space, sphere, trace_corays, u_point_assigned, u_r,
                     verify_gradient)
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
    g.add_edges_from((i, j) for i, row in enumerate(window.adjacency)
                     for j in row if i < j < limit)
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
    # window adjacency is symmetric, so distance matrices are too
    assert all(i in w.adjacency[j]
               for i, row in enumerate(w.adjacency) for j in row)
    whole = _graph(w, n)
    for s in rng.sample(range(n), 6):
        want = nx.single_source_shortest_path_length(whole, s)
        assert _bfs_from_indices(w, [s]) == [want[i] for i in range(n)]
    want = nx.single_source_shortest_path_length(whole, 0)
    for t in rng.sample(range(n), 6):
        path = shortest_path(w, w.vertices[t])
        assert len(path) - 1 == want[t]
        assert path[0] == w.base and path[-1] == w.vertices[t]
        assert all(w.find(b) in w.adjacency[w.find(a)]
                   for a, b in zip(path, path[1:]))
    # samples in B_{R/3}, and in B_2, where a geodesic between sample
    # points can leave the ball that holds them
    for rho in (2, radius // 3):
        inner = w.count_within(rho)
        for _ in range(4):
            sample = [w.vertices[i] for i in rng.sample(range(inner),
                                                        min(inner, 8))]
            want = [[nx.shortest_path_length(whole, w.find(a), w.find(b))
                     for b in sample] for a in sample]
            assert pairwise_dist(w, sample) == want
    assert pairwise_dist(w, [w.base]) == [[0]]


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_bfs_kernel_matches_networkx_on_partial_windows(name, params,
                                                        radius):
    """Multi-source passes over a window grown only part way, with
    duplicate seeds and seeds past the limit, against networkx on the
    graph induced by the indices below the limit, and with indices left
    out (``settled``, seeds among them), against networkx on the graph
    induced by the others; no pass grows the window."""
    space = build(name, params)
    rng = random.Random(name)
    for grown in (1, radius // 2, radius - 1):
        w = materialize_window(space, space.default_base(), radius)
        held = w.count_within(grown)
        assert w.grown == grown < w.radius
        for rho in sorted({0, grown // 2, grown}):
            limit = w.count_within(rho)
            g = nx.Graph()
            g.add_nodes_from(range(limit))
            g.add_edges_from((i, j) for i in range(limit)
                             for j in w._adjacency[i] if j < limit)
            for _ in range(4):
                seeds = rng.choices(range(held), k=rng.randint(1, 5))
                seeds += seeds[:2]
                inside = {i for i in seeds if i < limit}
                want = nx.multi_source_dijkstra_path_length(g, inside) \
                    if inside else {}
                got = _bfs_from_indices(w, seeds, limit)
                assert got == [want.get(i, -1) for i in range(limit)], \
                    (grown, rho, seeds)
                out = rng.sample(range(limit), min(limit, 6))
                out += seeds[:1] if seeds[0] < limit else []
                kept = inside - set(out)
                want = nx.multi_source_dijkstra_path_length(
                    g.subgraph(set(range(limit)) - set(out)), kept) \
                    if kept else {}
                got = _bfs_from_indices(w, seeds, limit, out)
                assert got == [want.get(i, -1) for i in range(limit)], \
                    (grown, rho, seeds, out)
        assert w.grown == grown


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_shortest_path_matches_the_deque_spec(name, params, radius):
    """The parent walk gives the BFS path from the base to every vertex."""
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    for b in w.vertices:
        assert shortest_path(w, b) == deque_shortest_path(w, w.base, b)


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_shortest_path_on_part_grown_windows_matches_the_deque_spec(
        name, params, radius):
    """On windows grown part way, the walk over the rows ``find`` holds
    gives the whole window's path."""
    space = build(name, params)
    base = space.default_base()
    whole = materialize_window(space, base, radius)
    n = len(whole)
    rng = random.Random(name)
    for _ in range(30):
        b = whole.vertices[rng.randrange(n)]
        w = materialize_window(space, base, radius)
        assert w.grown == 0
        w.count_within(rng.randint(0, radius))
        assert shortest_path(w, b) == deque_shortest_path(whole, base, b)


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_geodesic_ball_holds_the_distance(name, params, radius):
    """A BFS from a confined to geodesic_ball(d(base, a), d(base, b),
    d(a, b)) gives d(a, b), for random pairs anywhere in the window."""
    gspace = build(name, params)
    w = materialize_window(gspace, gspace.default_base(), radius)
    n = len(w)
    g = _graph(w, n)
    dist = w.dist_from_base
    rng = random.Random(name)
    for a in rng.sample(range(n), min(n, 12)):
        want = nx.single_source_shortest_path_length(g, a)
        for b in rng.sample(range(n), min(n, 12)):
            limit = w.geodesic_ball(dist[a], dist[b], want[b])
            assert b < limit and \
                _bfs_from_indices(w, [a], limit)[b] == want[b], (a, b)


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_memo_reruns_a_pass_only_for_a_larger_ball(name, params, radius,
                                                   monkeypatch):
    gspace = build(name, params)
    w = materialize_window(gspace, gspace.default_base(), radius)
    calls = []
    bfs = space._bfs_from_indices

    def recorded(window, seeds, limit=None, settled=()):
        calls.append((tuple(seeds), limit))
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(space, "_bfs_from_indices", recorded)
    i = w.count_within(1) - 1
    small, n = w.count_within(radius // 2), len(w)
    d = w.distances_from(i, small)
    assert calls == [((i,), small)] and d == bfs(w, [i], small)
    assert w.distances_from(i, small) is d and len(calls) == 1
    whole = w.distances_from(i, n)
    assert calls[-1] == ((i,), n) and whole == bfs(w, [i])
    # a smaller ball afterwards reads the larger pass
    assert w.distances_from(i, small) is whole
    assert w.distances_from(i, 1) is whole
    assert len(calls) == 2
    w.distances_from(0, small)
    assert calls[-1] == ((0,), small) and len(calls) == 3


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_held_pass_stays_exact_as_the_window_grows(name, params, radius):
    """Passes held while the window is at state radius // 2, or at the
    state below it, equal BFS distances on the same ball of the whole
    window, after the window has grown to R: by networkx on the induced
    graph and by a confined pass over the grown rows."""
    gspace = build(name, params)
    w = materialize_window(gspace, gspace.default_base(), radius)
    rng = random.Random(name)
    held = []
    for rho in (radius // 2 - 1, radius // 2):
        limit = w.count_within(rho)
        for i in rng.sample(range(limit), min(limit, 4)):
            held.append((i, limit, list(w.distances_from(i, limit))))
    assert w.grown == radius // 2
    assert len(w) > limit and w.grown == radius
    for i, limit, got in held:
        want = nx.single_source_shortest_path_length(_graph(w, limit), i)
        assert got == [want.get(j, -1) for j in range(limit)], (i, limit)
        assert got == _bfs_from_indices(w, [i], limit)
        assert w.distances_from(i, limit)[:limit] == got


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_u_r_matches_whole_window(name, params, radius):
    """u_r's pass from S_r, confined to B_{max(r, zone)}, against a BFS
    from sphere(window, r) over the whole window."""
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    for zone in (1, radius // 3, radius):
        for r in sorted({1, 2, zone // 2 or 1, zone, radius // 2, radius}):
            ref = _bfs_from_indices(w, [w.find(v) for v in sphere(w, r)])
            want = {i: ref[i] - r for i in range(w.count_within(zone))}
            assert u_r(w, r, zone).values == want, (zone, r)


# -- co-ray and geodesy checks: confined passes against the whole window --

def _whole_window(m):
    """Make every BFS of the package run over the whole window, ignoring
    ``limit`` and ``settled``: the unconfined reference of the same code."""
    bfs = space._bfs_from_indices

    def whole(window, seeds, limit=None, settled=()):
        return bfs(window, seeds)

    for module in (space, fields):
        m.setattr(module, "_bfs_from_indices", whole)


def _coray_case(name, params, radius):
    gspace = build(name, params)
    w = materialize_window(gspace, gspace.default_base(), radius)
    zone = max(2, radius // 4)
    fld, _ = u_point_assigned(w, range(2, radius + 1, 2), zone)
    traced = []
    for i in fld.zone_indices():
        try:
            traced += trace_corays(fld, w.vertices[i], max_paths=4).paths
        except DescentError:
            pass
    return w, fld, traced


def _walk(w, rng, start, steps, avoid=None):
    """A random walk of window neighbours; with ``avoid``, self-avoiding
    and inside that index set."""
    path = [start]
    for _ in range(steps):
        nxt = [j for j in w.adjacency[path[-1]]
               if avoid is None or (j in avoid and j not in path)]
        if not nxt:
            break
        path.append(rng.choice(nxt))
    return [w.vertices[i] for i in path]


def _geodesic_by_networkx(w, g, dists, path):
    idxs = [w.find(v) for v in path]
    if None in idxs:
        return "ZoneError"
    if any(not g.has_edge(a, b) for a, b in zip(idxs, idxs[1:])):
        return False
    if idxs[0] not in dists:
        dists[idxs[0]] = nx.single_source_shortest_path_length(g, idxs[0])
    d = dists[idxs[0]]
    return all(d[i] == t for t, i in enumerate(idxs))


def _gradient_by_networkx(w, g, dists, path, fld):
    idxs = [w.find(v) for v in path]
    if any(i not in fld.values for i in idxs):
        return False
    if any(fld.values[a] - fld.values[b] != 1
           for a, b in zip(idxs, idxs[1:])):
        return False
    return _geodesic_by_networkx(w, g, dists, path)


def _ray(vertices):
    return CoRay(tuple(vertices), (1,) * (len(vertices) - 1), True)


def _geodesy_verdict(w, path):
    try:
        return fields._geodesic(w, [w.require_zone(v, w.radius, "path")
                                    for v in path])
    except ZoneError:
        return "ZoneError"


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_confined_geodesy_checks_match_whole_window_and_networkx(
        name, params, radius, monkeypatch):
    w, fld, traced = _coray_case(name, params, radius)
    rng = random.Random(name)
    n = len(w)
    g = _graph(w, n)
    shell = range(w.count_within(radius - 1), n)
    zone_set = set(fld.values)
    # gradient checks: traced co-rays, reversed, cut, rotated, pushed to
    # the shell, and unit drops along walks that stop being geodesic
    grads = [(p.vertices, fld) for p in traced]
    for p in traced:
        v = p.vertices
        grads += [(v[::-1], fld), (v[:1] + v[2:], fld),
                  (v[1:] + v[:1], fld), (v + (w.vertices[-1],), fld)]
    for _ in range(30):
        walk = _walk(w, rng, rng.choice(sorted(zone_set)),
                     rng.randint(1, 3 * fld.zone), avoid=zone_set)
        values = dict(fld.values)
        for t, u in enumerate(walk):
            values[w.find(u)] = 100 - t
        bent = ScalarField(w, fld.kind, fld.zone, values, fld.report)
        grads += [(walk[:k], bent) for k in range(1, len(walk) + 1)]
    # geodesy checks: all of the above, walks anywhere in the window, and
    # geodesics from the zone and along the shell to the shell
    paths = [p for p, _ in grads]
    paths += [_walk(w, rng, rng.randrange(n), rng.randint(1, 12))
              for _ in range(60)]
    paths += [_walk(w, rng, rng.choice(shell), rng.randint(1, 6))
              for _ in range(20)]
    for _ in range(10):
        a, b = rng.choice(sorted(zone_set)), rng.choice(shell)
        paths.append(deque_shortest_path(w, w.vertices[a], w.vertices[b]))
        paths.append(deque_shortest_path(w, w.vertices[rng.choice(shell)],
                                         w.vertices[b]))
    paths.append([w.vertices[-1], w.space.neighbors(w.vertices[-1])[0]])
    dists = {}
    got = ([verify_gradient(_ray(p), f) for p, f in grads],
           [_geodesy_verdict(w, p) for p in paths])
    want = ([_gradient_by_networkx(w, g, dists, p, f) for p, f in grads],
            [_geodesic_by_networkx(w, g, dists, p) for p in paths])
    with monkeypatch.context() as m:
        _whole_window(m)
        whole = ([verify_gradient(_ray(p), f) for p, f in grads],
                 [_geodesy_verdict(w, p) for p in paths])
    assert got == whole == want
    for verdicts in got:
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_confined_representation_matches_whole_window(name, params, radius,
                                                      monkeypatch):
    w, fld, traced = _coray_case(name, params, radius)
    rng = random.Random(name)
    zone_idx = fld.zone_indices()
    shell = range(w.count_within(radius - 1), len(w))
    rays = rng.sample(traced, min(len(traced), 12))
    # geodesic rays from the zone: to the shell (anchors too far), to the
    # zone and back, and long ones to anchors within R - zone, whose b_g(x)
    # can be stable; every ray starts in the zone, where u is defined
    anchored = w.count_within(radius - fld.zone)
    for _ in range(12):
        a, b = (w.vertices[rng.choice(zone_idx)] for _ in range(2))
        geo = tuple(deque_shortest_path(w, a, b))
        far = w.vertices[rng.choice(shell)]
        out = w.vertices[rng.randrange(anchored)]
        rays += [_ray(deque_shortest_path(w, a, far)), _ray(geo),
                 _ray(geo[::-1]), _ray(geo + geo[-2::-1]),
                 _ray(deque_shortest_path(w, a, out))]
    picks = rng.sample(zone_idx, min(6, len(zone_idx)))
    xs = [w.base, w.vertices[zone_idx[-1]]] + [w.vertices[i] for i in picks]
    # one call per ray, whose passes are confined to that ray's balls, and
    # one call with all rays, whose passes share the union of the balls
    calls = [(x, [r]) for x in xs for r in rays] + [(x, rays) for x in xs]
    got = [representation_check(fld, x, rs) for x, rs in calls]
    with monkeypatch.context() as m:
        _whole_window(m)
        whole = [representation_check(fld, x, rs) for x, rs in calls]
    assert got == whole
    assert any(r.entries for r in got) and any(r.inconclusive for r in got)


def test_pass_at_x_reaches_past_the_anchors(monkeypatch):
    """On the H-graph the only geodesic from x = (-6,1) to the anchor
    (2,8) runs up the column at -8 and along the row at height 8 through
    (0,8), 24 from the base: past the farthest anchor (22) and the ray's
    geodesy ball (22), inside d(base, x) + 22 = 29.  A pass at x confined
    to B_22 reads d(x, (2,8)) = 29 instead of 21 and reports a stable
    b_g(x) = 12 where the sweep has not settled."""
    w = materialize_window(build("h_graph"), (0, 0), 30)
    fld, _ = u_point_assigned(w, range(2, 31, 2), 7)
    ray = _ray(deque_shortest_path(w, (5, 0), (2, 8)))
    assert max(w.dist_from_base[w.find(v)] for v in ray.vertices) == 22
    report = representation_check(fld, (-6, 1), [ray])
    assert not report.entries
    assert report.inconclusive == [((5, 0), "busemann value not stable")]
    with monkeypatch.context() as m:
        _whole_window(m)
        assert representation_check(fld, (-6, 1), [ray]) == report


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_confined_gromov_check_matches_whole_window(name, params, radius,
                                                    monkeypatch):
    """gromov_check's passes, confined to B_zone, against the same check
    over the whole window: equal reports on point-assigned, u_r and
    Busemann fields, and equal verdicts on fields with wrong values."""
    gspace = build(name, params)
    w = materialize_window(gspace, gspace.default_base(), radius)
    zone = max(2, radius // 4)
    rng = random.Random(name)
    far = w.vertices[w.count_within(radius - zone) - 1]
    ray = shortest_path(w, far)
    flds = [u_point_assigned(w, range(2, radius + 1, 2), zone)[0],
            u_r(w, radius // 2, zone), busemann(w, ray, len(ray) - 1,
                                                zone)[0]]
    bent = []
    for fld in flds:
        values = dict(fld.values)
        for i in rng.sample(sorted(values), min(len(values), 3)):
            values[i] += rng.choice((-3, -1, 1, 3))
        bent.append(ScalarField(w, fld.kind, zone, values, fld.report))

    def reports():
        return [gromov_check(f, range(min(f.values.values()) - 1,
                                      max(f.values.values()) + 1))
                for f in flds + bent]

    got = reports()
    with monkeypatch.context() as m:
        _whole_window(m)
        whole = reports()
    assert got[:len(flds)] == whole[:len(flds)]
    assert all(r.ok and sum(r.checked.values()) for r in got[:len(flds)])

    def verdict(r):
        return r.checked, r.skipped, [v[:3] for v in r.violations]

    assert list(map(verdict, got)) == list(map(verdict, whole))
    assert not all(r.ok for r in got[len(flds):])
