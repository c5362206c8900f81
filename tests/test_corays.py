"""Co-ray tracing, gradient verification, and the representation bound."""

from types import SimpleNamespace

import pytest
from conftest import deque_shortest_path

from dlscape import (CoRay, DescentError, DomainError, ScalarField,
                     ZoneError, build, busemann, materialize_window,
                     representation_check, shortest_path, trace_corays,
                     u_point_assigned, uniqueness_probe, verify_gradient)
from dlscape.cli import _schedule
from dlscape.corays import ReprEntry
from dlscape.fields import field_to_json, level_set
from dlscape.space import _bfs_from_indices


def _fresh_h_field():
    w = materialize_window(build("h_graph"), (0, 0), 60)
    fld, _ = u_point_assigned(w, range(6, 49, 6), 10)
    return fld


def test_h_graph_corner_single_coray(h_field):
    # from (k,k) the only descent is down the column to the axis and out
    trace = trace_corays(h_field, (2, 2))
    assert trace.exhausted and len(trace.paths) == 1
    path = trace.paths[0]
    assert path.vertices[:4] == ((2, 2), (2, 1), (2, 0), (3, 0))
    assert path.truncated
    assert all(d == 1 for d in path.decrements)
    assert verify_gradient(path, h_field)


def test_uniqueness_probe(h_field):
    assert uniqueness_probe(h_field, (2, 2)) == 1
    assert uniqueness_probe(h_field, (0, 0)) == 2


def test_line_two_corays(line_field):
    trace = trace_corays(line_field, 0)
    assert trace.exhausted and len(trace.paths) == 2
    tips = sorted(p.vertices[-1] for p in trace.paths)
    assert tips == [-10, 10]
    assert all(verify_gradient(p, line_field) for p in trace.paths)


def test_max_paths_cap(line_field):
    trace = trace_corays(line_field, 0, max_paths=1)
    assert not trace.exhausted and len(trace.paths) == 1
    for cap in (0, -3):
        with pytest.raises(DomainError):
            trace_corays(line_field, 0, max_paths=cap)


def test_every_zone_vertex_descends(h_field):
    window = h_field.window
    for i in h_field.zone_indices():
        trace = trace_corays(h_field, window.vertices[i], max_paths=8)
        assert trace.paths
        assert all(verify_gradient(p, h_field) for p in trace.paths)


@pytest.mark.parametrize("name", ["line", "grid2d", "h_graph"])
def test_corays_stop_at_the_valued_edge_below_the_zone(name):
    """With r-max below the zone a point-assigned field is valued on
    B_r-max only: every valued start traces, every path ends on the edge
    of that ball, not on the zone's, and every path passes
    verify_gradient."""
    space = build(name)
    w = materialize_window(space, space.default_base(), 20)
    for r_max, zone in [(3, 4), (5, 8)]:
        fld, _ = u_point_assigned(w, range(1, r_max + 1), zone)
        for i in fld.zone_indices():
            trace = trace_corays(fld, w.vertex_at(i), max_paths=8)
            assert trace.paths
            for cr in trace.paths:
                assert w.dist_from_base[w.find(cr.vertices[-1])] == r_max
                assert verify_gradient(cr, fld)


@pytest.mark.parametrize("name,params,start,need", [
    ("grid2d", {}, (30, 0), 30),
    ("line", {}, 30, 30),
    ("tree", {"b": 2}, (0,) + (1,) * 11, None),
])
def test_a_start_outside_the_window_names_the_radius(name, params, start,
                                                      need):
    """A field lookup of a vertex outside the window raises the window's
    own miss error: a radius ZoneError whose need is d(base, start) where
    the generator gives it in closed form (the tree gives none).  A vertex
    inside the window but past the zone still names the zone."""
    space = build(name, params)
    w = materialize_window(space, space.default_base(), 10)
    fld, _ = u_point_assigned(w, range(2, 9, 2), 4)
    for call in (fld.index_of, lambda v: trace_corays(fld, v)):
        with pytest.raises(ZoneError) as exc:
            call(start)
        assert (exc.value.parameter, exc.value.need) == ("radius", need)
        assert exc.value.witness == start
    inside = w.vertex_at(w.count_within(6) - 1)
    with pytest.raises(ZoneError) as exc:
        trace_corays(fld, inside)
    assert (exc.value.parameter, exc.value.need) == ("zone", 6)


def test_interior_dead_end_raises():
    fld = _fresh_h_field()
    # create a local minimum strictly inside the zone
    for i in fld.zone_indices():
        fld.values[i] = abs(fld.values[i])
    with pytest.raises(DescentError):
        trace_corays(fld, (4, 4))


def test_verify_gradient_rejects_bad_paths(line_field):
    up = CoRay(vertices=(2, 1, 0), decrements=(1, 1), truncated=True)
    assert not verify_gradient(up, line_field)              # values rise
    skip = CoRay(vertices=(0, -2), decrements=(2,), truncated=True)
    assert not verify_gradient(skip, line_field)            # not an edge
    outside = CoRay(vertices=((99, 99),), decrements=(), truncated=True)
    assert not verify_gradient(outside, line_field)


def test_representation_equality(h_field):
    for start in [(0, 0), (2, 2), (3, 0), (1, 1)]:
        trace = trace_corays(h_field, start)
        report = representation_check(h_field, start, trace.paths)
        assert report.ok and report.equality_achieved


def test_representation_shares_the_pass_at_x(monkeypatch):
    """The co-rays of a trace from x need one BFS in all, from x: the
    pass that reads b_g(x) also settles their geodesy checks."""
    from dlscape import fields, space
    fld = _fresh_h_field()
    w = fld.window
    calls = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append((tuple(seeds), limit))
        return bfs(window, seeds, limit, settled)

    for module in (fields, space):
        monkeypatch.setattr(module, "_bfs_from_indices", counted)
    for x in ((0, 0), (2, 2), (-3, 0)):
        paths = trace_corays(fld, x).paths
        calls.clear()
        report = representation_check(fld, x, paths)
        assert report.entries and not report.inconclusive
        assert [seeds for seeds, _ in calls] == [(w.find(x),)], x
        assert calls[0][1] < len(w)


def test_representation_resolves_each_vertex_once(monkeypatch):
    """16 co-rays of length 7 from (2, -3) on the grid: one ``find`` per
    co-ray vertex, 128, and one for x; the anchors' distances size the
    pass at x, and u(g(0)) is read at the start's resolved index."""
    from dlscape.space import Window
    w = materialize_window(build("grid2d"), (0, 0), 60)
    fld, _ = u_point_assigned(w, range(6, 49, 6), 12)
    paths = trace_corays(fld, (2, -3), max_paths=16).paths
    assert [p.length for p in paths] == [7] * 16
    found = []
    find = Window.find

    def counted(self, vertex):
        found.append(vertex)
        return find(self, vertex)

    monkeypatch.setattr(Window, "find", counted)
    report = representation_check(fld, (2, -3), paths)
    assert len(found) == 1 + 16 * 8
    assert report.ok and len(report.entries) == 16


def test_representation_bounds_other_vertices(line_field):
    # co-rays from 5 bound the value at 0 from above
    trace = trace_corays(line_field, 5)
    report = representation_check(line_field, 0, trace.paths)
    assert report.ok
    assert all(report.value <= e.bound for e in report.entries)


# -- differential checks against the definitions, one BFS per pair or ray --

def _gradient_all_pairs(coray, field):
    """verify_gradient by its definition: one BFS from every path vertex."""
    window = field.window
    idxs = [window.find(v) for v in coray.vertices]
    if any(i not in field.values for i in idxs):
        return False
    for a, b in zip(idxs, idxs[1:]):
        if b not in window.adjacency[a] or \
                field.values[a] - field.values[b] != 1:
            return False
    for s, v in enumerate(coray.vertices):
        d = _bfs_from_indices(window, [window.find(v)])
        if any(d[idxs[t]] != t - s for t in range(s, len(idxs))):
            return False
    return True


def _representation_by_busemann(field, x, corays):
    """representation_check via a full Busemann sweep per co-ray."""
    ux = field.value_at(x)
    entries, inconclusive = [], []
    for coray in corays:
        start = coray.vertices[0]
        if coray.length == 0:
            if start == x:
                entries.append(ReprEntry(start, 0, ux, ux, True))
            else:
                inconclusive.append((start, "zero-length co-ray"))
            continue
        try:
            bfield, _ = busemann(field.window, list(coray.vertices),
                                 coray.length, field.zone)
        except DomainError as exc:
            inconclusive.append((start, str(exc)))
            continue
        bx = bfield.value_at(x)
        stable = bfield.stable_at(x) or (start == x and bx == 0)
        bound = field.value_at(start) + bx
        if stable:
            entries.append(ReprEntry(start, bx, field.value_at(start), bound,
                                     ux == bound))
        else:
            inconclusive.append((start, "busemann value not stable"))
    return entries, inconclusive


def _ray(vertices):
    return CoRay(tuple(vertices), (1,) * (len(vertices) - 1), True)


# Spaces with co-ray starts, long geodesics (a, b) started away from the
# base, query points x, and a simple path that is not a geodesic (none
# exists on the line, a tree).
DIFF_SPACES = {
    "line": dict(
        params={}, radius=60, zone=8, schedule=range(6, 49, 6),
        starts=[0, 3, -5, 8], geodesics=[(2, 48), (-1, -45), (8, -30)],
        xs=[0, 4, -6, 8], detour=None),
    "h_graph": dict(
        params={}, radius=40, zone=8, schedule=range(4, 29, 4),
        starts=[(0, 0), (2, 2), (3, 0), (-2, 1)],
        geodesics=[((1, 0), (28, 0)), ((3, 3), (-20, 0)), ((2, 1), (25, 0))],
        xs=[(0, 0), (1, 1), (4, 0), (-3, 2)],
        detour=[(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-2, 0)]),
    "grid2d": dict(
        params={}, radius=30, zone=6, schedule=range(3, 22, 3),
        starts=[(0, 0), (2, -1), (-3, 3), (0, 6)],
        geodesics=[((3, -2), (20, 4)), ((-1, 0), (-16, -6)),
                   ((0, 2), (5, 19))],
        xs=[(0, 0), (1, 2), (-2, -3), (4, 0)],
        detour=[(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]),
}


def _diff_case(name):
    case = DIFF_SPACES[name]
    space = build(name, case["params"])
    window = materialize_window(space, space.default_base(), case["radius"])
    fld, _ = u_point_assigned(window, case["schedule"], case["zone"])
    traced = [p for s in case["starts"]
              for p in trace_corays(fld, s, max_paths=4).paths]
    long_rays = [deque_shortest_path(window, a, b)
                 for a, b in case["geodesics"]]
    return window, fld, traced, long_rays


@pytest.mark.parametrize("name", sorted(DIFF_SPACES))
def test_representation_matches_busemann_sweeps(name):
    window, fld, traced, long_rays = _diff_case(name)
    zone = fld.zone
    far = window.vertices[-1]        # on the window boundary
    outside = next(w for w in window.space.neighbors(far)
                   if window.find(w) is None)
    v = long_rays[0]
    rays = traced + [_ray(g) for g in long_rays]
    # lengths on either side of the stability tail 2 * zone
    rays += [_ray(g[:2 * zone + k]) for g in long_rays for k in (0, 1, 2)]
    rays += [
        _ray(v[::2]),                                # not a path
        _ray(v[:3] + v[1::-1]),                      # doubles back
        _ray(shortest_path(window, far)),            # anchors too far
        _ray((far, outside)),                        # leaves the window
        _ray(v[:1]),                                 # zero length
    ]
    stable_away = unstable = 0
    for x in DIFF_SPACES[name]["xs"]:
        report = representation_check(fld, x, rays)
        entries, inconclusive = _representation_by_busemann(fld, x, rays)
        assert report.entries == entries
        assert report.inconclusive == inconclusive
        stable_away += sum(e.start != x for e in entries)
        unstable += sum(r == "busemann value not stable"
                        for _, r in inconclusive)
    assert stable_away > 0 and unstable > 0
    # a field value beyond the zone has no exact Busemann value
    x_out = window.vertices[window.count_within(zone)]
    wide = ScalarField(window, fld.kind, zone,
                       {**fld.values, window.find(x_out): 0}, fld.report)
    for route in (representation_check, _representation_by_busemann):
        with pytest.raises(ZoneError):
            route(wide, x_out, rays)


def test_representation_coray_from_outside_the_zone():
    """A co-ray that starts outside the field zone has no value u(g(0)):
    it is inconclusive, and the other co-rays still count."""
    w = materialize_window(build("line"), 0, 40)
    fld, _ = u_point_assigned(w, range(4, 33, 4), 10)
    traced = trace_corays(fld, 0).paths
    report = representation_check(fld, 0, [_ray(range(-12, -20, -1))]
                                  + traced)
    assert report.inconclusive == [(-12, "vertex -12 outside the field zone")]
    assert report.entries == representation_check(fld, 0, traced).entries
    assert report.entries and report.ok


@pytest.mark.parametrize("name", sorted(DIFF_SPACES))
def test_verify_gradient_matches_all_pairs(name):
    window, fld, traced, _ = _diff_case(name)
    checks = [(p, fld) for p in traced]
    for p in traced:
        v = p.vertices
        checks += [(_ray(c), fld) for c in (
            v[::-1], v[:1] + v[2:], v[1:] + v[:1],
            v[:-1] + (window.vertices[-1],))]
    detour = DIFF_SPACES[name]["detour"]
    if detour:
        # unit drops along edges of a simple path that stops being a
        # geodesic part-way
        values = dict(fld.values)
        for t, u in enumerate(detour):
            values[window.find(u)] = 100 - t
        bent = ScalarField(window, fld.kind, fld.zone, values, fld.report)
        checks += [(_ray(detour[:k]), bent)
                   for k in range(1, len(detour) + 1)]
    verdicts = []
    for p, f in checks:
        got = verify_gradient(p, f)
        assert got == _gradient_all_pairs(p, f), p.vertices
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_coray_job_grows_its_window_only_to_the_balls_it_reads():
    """A coray job on the H-graph (R 120, r-max 96, zone 20) reads B_96
    for its field and B_40 for the co-ray checks: its window holds at most
    B_97 of the 9,801 vertices of B_120, and the answers are those of the
    whole window."""
    space = build("h_graph")
    w = materialize_window(space, (0, 0), 120)
    fld, _ = u_point_assigned(w, _schedule(SimpleNamespace(r_max=96,
                                                           r_step=None)), 20)
    for start in [(0, 0), (2, 2), (-7, 3), (12, 0), (-19, 0), (1, 4)]:
        trace = trace_corays(fld, start, max_paths=8)
        assert all(verify_gradient(cr, fld) for cr in trace.paths)
        assert representation_check(fld, start, trace.paths).ok
        uniqueness_probe(fld, start)
    export = field_to_json(fld), level_set(fld, -3)
    held = len(w._vertices)
    assert held <= len(materialize_window(space, (0, 0), 97)) < 9801
    assert (field_to_json(fld), level_set(fld, -3)) == export
    assert len(w) == 9801 and held < len(w)


@pytest.mark.parametrize("name,radius,r_max,zone,starts", [
    ("h_graph", 120, 96, 20, [(0, 0), (2, 2), (-7, 3), (12, 0), (1, 4)]),
    ("grid2d", 60, 48, 10, [(0, 0), (2, -3), (-4, 5), (9, 1)])])
def test_coray_job_runs_one_field_pass(monkeypatch, name, radius, r_max,
                                       zone, starts):
    """The coray benchmark's shapes: the field, its co-rays, their checks,
    the representation check and the descent probe read no certificate,
    so the sweep runs its last pass and no other.  On grid2d rays from the
    base cover the zone, so the last step reads -d(base, .) and runs no
    pass either."""
    from dlscape import fields
    calls = []
    bfs = fields._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append(limit)
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    space = build(name)
    w = materialize_window(space, space.default_base(), radius)
    fld, _ = u_point_assigned(
        w, _schedule(SimpleNamespace(r_max=r_max, r_step=None)), zone)
    for start in starts:
        trace = trace_corays(fld, start, max_paths=8)
        assert all(verify_gradient(cr, fld) for cr in trace.paths)
        report = representation_check(fld, start, trace.paths)
        assert report.ok and report.equality_achieved
        uniqueness_probe(fld, start)
    assert len(calls) == {"h_graph": 1, "grid2d": 0}[name]


@pytest.mark.parametrize("name,starts", [
    ("h_graph", [(0, 0), (2, 2), (-7, 3), (8, 0), (1, 3)]),
    ("grid2d", [(0, 0), (2, -3), (5, 1)])])
def test_corays_share_one_pass_per_start(monkeypatch, name, starts):
    """verify_gradient once per co-ray, with no pass handed in, makes one
    BFS per distinct start, held on the window; a representation check
    after them makes at most one more, a larger pass at x."""
    from dlscape import space
    w = materialize_window(build(name), (0, 0), 60)
    fld, _ = u_point_assigned(w, range(6, 49, 6), 10)
    paths = [p for s in starts for p in trace_corays(fld, s, 8).paths]
    calls = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append(w.vertex_at(seeds[0]))
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    assert all(verify_gradient(p, fld) for p in paths)
    assert sorted(calls) == sorted(starts)
    for x in starts:
        del calls[:]
        assert representation_check(fld, x, paths).ok
        assert calls in ([], [x])
