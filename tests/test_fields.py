"""Distance-like fields: approximants, limits, and the sublevel identity."""

import random
from types import SimpleNamespace

import pytest
from conftest import deque_shortest_path, t_samples
from hypothesis import given, settings, strategies as st

from dlscape import (DomainError, ZoneError, build, busemann, dl_from_sets,
                     field_to_json, gromov_check, horofunction, level_set,
                     materialize_window, oracle, shortest_path, sphere,
                     u_point_assigned, u_r)
from dlscape.fields import _geodesic
from dlscape.pseudometric import point_assigned_family, rho_matrix
from dlscape.space import _bfs_from_indices, pairwise_dist


def _lipschitz_violations(fld):
    """Zone edges, as index pairs, across which the value jumps by > 1."""
    adjacency, values = fld.window.adjacency, fld.values
    return [(i, j) for i, vi in values.items() for j in adjacency[i]
            if j in values and abs(vi - values[j]) > 1]


def test_u_r_closed_form_on_line(line_window):
    fld = u_r(line_window, 20, 10)
    for x in range(-10, 11):
        assert fld.value_at(x) == -abs(x)
    assert not _lipschitz_violations(fld)
    # one step, tail 0: every value dated at r, none settled
    assert fld.report.last_change == dict.fromkeys(fld.values, 20)
    assert fld.report.stable == dict.fromkeys(fld.values, False)


def test_u_r_preconditions(line_window):
    with pytest.raises(ZoneError):
        u_r(line_window, 61, 10)          # r > R
    with pytest.raises(ZoneError):
        u_r(line_window, 20, 61)          # zone > R
    with pytest.raises(ZoneError):
        u_r(line_window, 0, 10)
    with pytest.raises(DomainError):
        u_r(line_window, 20, 0)


@given(x=st.integers(-10, 10),
       rs=st.lists(st.integers(10, 50), min_size=2, max_size=2, unique=True))
@settings(max_examples=50)
def test_u_r_monotone_on_line(line_window, x, rs):
    r1, r2 = sorted(rs)
    f1, f2 = u_r(line_window, r1, 10), u_r(line_window, r2, 10)
    assert f1.value_at(x) <= f2.value_at(x) <= abs(x)


ORACLE_SPACES = [("line", {}, 40), ("halfline", {}, 40),
                 ("tree", {"b": 2}, 12), ("tree", {"b": 3}, 9),
                 ("h_graph", {}, 48)]


@pytest.mark.parametrize("name,params,radius", ORACLE_SPACES)
def test_point_assigned_matches_oracle(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    zone = max(2, radius // 6)
    hi = radius - zone
    fld, rep = u_point_assigned(w, range(max(2, hi // 5), hi + 1,
                                         max(1, hi // 5)), zone)
    for i in fld.zone_indices():
        v = w.vertices[i]
        assert fld.values[i] == oracle(space, "point_assigned", w.base, v)
    assert not _lipschitz_violations(fld)


def _sweep_by_whole_window(window, zone, tail, steps):
    """The sweep by definition: one whole-window BFS from H_n per step
    (parameter, H_n, c_n, reach), recording d(x, H_n) - c_n for the zone
    vertices x with d(base, x) <= reach in a per-vertex history.  A vertex
    is stable when at least two of its entries lie in the tail (parameter
    > last - tail), none of them differ, and its value last changed at or
    before last - tail.  Returns the values and a plain record of the
    schedule, tail, stable flags and last changes."""
    dist = window.dist_from_base
    zone_idx = [i for i, d in enumerate(dist) if d <= zone]
    history = {i: [] for i in zone_idx}
    for param, hn, cn, reach in steps:
        df = _bfs_from_indices(window, [window.find(v) for v in hn])
        for i in zone_idx:
            if dist[i] <= reach:
                history[i].append((param, df[i] - cn))
    schedule = tuple(step[0] for step in steps)
    cutoff = schedule[-1] - tail
    values, stable, last_change = {}, {}, {}
    for i in zone_idx:
        seq = history[i]
        if not seq:
            continue
        values[i] = seq[-1][1]
        last_change[i] = seq[0][0]
        for (_, v0), (p1, v1) in zip(seq, seq[1:]):
            if v1 != v0:
                last_change[i] = p1
        tail_vals = [v for p, v in seq if p > cutoff]
        stable[i] = (len(tail_vals) >= 2
                     and min(tail_vals) == max(tail_vals)
                     and last_change[i] <= cutoff)
    return values, SimpleNamespace(schedule=schedule, tail=tail,
                                   stable=stable, last_change=last_change)


def _assert_report(rep, ref):
    """The report's schedule, tail, stable flags and last changes, read in
    that order, equal the reference record's."""
    for name in ("schedule", "tail", "stable", "last_change"):
        assert getattr(rep, name) == getattr(ref, name), name


def _assert_sweep(fld, rep, expected):
    """The field's values and report equal the reference sweep's."""
    values, ref = expected
    assert fld.values == values
    _assert_report(rep, ref)


def _point_assigned_by_whole_window(window, schedule, zone, tail):
    """u^r(x) = d(x, S_r) - r, read where r >= d(base, x)."""
    return _sweep_by_whole_window(window, zone, tail, [
        (r, sphere(window, r), r, r) for r in schedule])


ALL_GENERATORS = [("line", {}, 60), ("halfline", {}, 60),
                  ("tree", {"b": 2}, 10), ("grid2d", {}, 30),
                  ("h_graph", {}, 40), ("stick", {"m": 6, "h": 2}, 40),
                  ("pendant_line", {}, 40), ("cylinder", {"m": 5}, 40)]


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_point_assigned_matches_whole_window_sweep(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    rng = random.Random(name)
    for zone in (2, radius // 4):
        hi = radius - zone
        # seeded uneven gaps; two adjacent steps at the end; and a last
        # step at the zone's edge, where S_zone has its only entry
        uneven = sorted(rng.sample(range(1, hi), 4)) + [hi]
        for schedule in (range(1, hi + 1), range(zone + 1, hi + 1, 3),
                         (1, hi // 2, hi), uneven, (1, hi - 1, hi),
                         (max(1, zone - 2), zone)):
            for tail in (None, 0, 2 * zone):
                fld, rep = u_point_assigned(w, schedule, zone, tail=tail)
                values, ref = _point_assigned_by_whole_window(
                    w, schedule, zone, 2 * zone if tail is None else tail)
                assert fld.values == values
                _assert_report(rep, ref)
                assert list(fld.values) == list(rep.last_change) == sorted(
                    values)


def _read_in_order(rep, ref, first):
    """Read ``first`` of the report's two dicts before anything else reads
    it, then the other; each must equal the reference's."""
    other = "last_change" if first == "stable" else "stable"
    assert getattr(rep, first) == getattr(ref, first)
    assert getattr(rep, other) == getattr(ref, other)
    _assert_report(rep, ref)


@pytest.mark.parametrize("first", ["stable", "last_change"])
@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_lazy_report_matches_whole_window_sweep(name, params, radius, first):
    """The certificate, run on first read in either order, equals the
    sweep by definition: point-assigned fields with the free dates and
    the p* pass, and a Busemann field, whose entries fall."""
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    rng = random.Random(name)
    zone = radius // 4
    hi = radius - zone
    for schedule in (range(1, hi + 1), range(zone + 1, hi + 1, 3),
                     (1, hi // 2, hi)):
        for tail in (None, zone):
            ref_tail = 2 * zone if tail is None else tail
            fld, rep = u_point_assigned(w, schedule, zone, tail)
            values, ref = _point_assigned_by_whole_window(w, schedule, zone,
                                                          ref_tail)
            assert fld.values == values
            _read_in_order(rep, ref, first)
            ray = shortest_path(w, rng.choice(sphere(w, hi)))
            T = len(ray) - 1
            fld, rep = busemann(w, ray, T, zone, tail)
            values, ref = _sweep_by_whole_window(
                w, zone, ref_tail,
                [(k, (ray[k],), k, zone) for k in range(1, T + 1)])
            assert fld.values == values
            _read_in_order(rep, ref, first)


@pytest.mark.parametrize("first", ["stable", "last_change"])
@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_lazy_family_report_after_the_callers_window_grew(
        name, params, radius, first):
    """A family field off the caller's base reads its certificate after a
    later base has grown the caller's window, on whose rows its passes
    run, and after its one-shot sphere sources were read for its last
    pass; read in either order it equals the sweep by definition on
    B_m(b)."""
    space = build(name, params)
    m = radius // 2
    zone = max(1, m // 2)
    schedule = list(range(1, m, max(1, m // 6))) + [m]
    # tail zone: on halfline, h_graph, stick and pendant_line ``stable``
    # runs passes that the dates then reuse
    for tail in (None, zone):
        w = materialize_window(space, space.default_base(), radius)
        near = w.vertices[w.count_within(1) - 1]
        far = w.vertices[w.count_within(radius - m) - 1]
        fields = point_assigned_family(w, [near, far], schedule, zone, tail)
        # the near field's passes need B_{1 + m}; the far base grew it to R
        assert 1 + m < w.grown == radius
        fld = fields[near]
        assert fld.window.known is w
        values, ref = _point_assigned_by_whole_window(
            materialize_window(space, near, m), schedule, zone,
            2 * zone if tail is None else tail)
        assert fld.values == values
        _read_in_order(fld.report, ref, first)


def _held(window):
    """A window's lists as held, without growing it: its vertices, each
    found at its index, distances and rows."""
    vertices = list(map(window.vertex_at, range(len(window._dist))))
    return (vertices, {v: window.find(v) for v in vertices}, window._dist,
            window._adjacency)


def _whole(window):
    """A window's lists, read after growing it to its radius, with each
    vertex found at its index."""
    vertices = window.vertices
    return (vertices, {v: window.find(v) for v in vertices},
            window.dist_from_base, window.adjacency)


@pytest.mark.parametrize("first", ["stable", "last_change"])
@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_family_passes_leave_out_only_what_no_path_needs(
        monkeypatch, name, params, radius, first):
    """Off-base family fields, whose passes leave out the vertices of
    S_{r+1}(b) in B_{delta + r}(o), equal the same fields swept with
    nothing left out, over all of that ball: values, ``stable`` and
    ``last_change``, read in either order.  The bases lie off the
    caller's base, so on the h_graph d(b, .) comes from a BFS from b.
    Each family window, grown on the caller's rows, holds at the zone and
    at its radius what the generator gives.  The space reports a ball
    bound of 0, so no step takes the closed form and every step that runs
    is a pass."""
    from dlscape import fields
    gspace = build(name, params)
    gspace.ball_size_bound = lambda base, radius: 0
    bfs = fields._bfs_from_indices
    left_out = []

    def confined(window, seeds, limit=None, settled=()):
        left_out.append(len(settled))
        return bfs(window, seeds, limit, settled)

    def unconfined(window, seeds, limit=None, settled=()):
        return bfs(window, seeds, limit)

    m = radius - radius // 3
    zone = radius // 4
    other = "last_change" if first == "stable" else "stable"

    def family(pass_, tail):
        w = materialize_window(gspace, gspace.default_base(), radius)
        n = w.count_within(radius // 3)
        rng = random.Random(name)
        bases = [w.vertices[i] for i in sorted(rng.sample(range(1, n), 4))]
        bases.append(w.vertices[n - 1])
        out = {}
        with monkeypatch.context() as patched:
            patched.setattr(fields, "_bfs_from_indices", pass_)
            flds = point_assigned_family(w, bases, range(1, m + 1, 3), zone,
                                         tail)
            for b, fld in flds.items():
                rep = fld.report
                out[b] = (fld.values, getattr(rep, first),
                          getattr(rep, other))
        return flds, out

    for tail in (None, zone):
        flds, got = family(confined, tail)
        assert got == family(unconfined, tail)[1], tail
        for b, fld in flds.items():
            wb = fld.window
            assert wb.known is not None and wb.grown == zone
            assert _held(wb) == _whole(
                materialize_window(gspace, b, zone)), (b, tail)
            assert _whole(wb) == _whole(
                materialize_window(gspace, b, wb.radius)), (b, tail)
    assert sum(left_out) > 0


@pytest.mark.parametrize("name,bases", [
    ("grid2d", ((3, -5), (-8, 0), (2, 2))),
    ("h_graph", ((3, 1), (-7, 0), (-2, 3)))])
def test_family_pass_reaches_the_ball_at_its_base(monkeypatch, name, bases):
    """A family field's pass at r, run on the caller's window from S_r(b),
    reaches exactly B_r(b), as many vertices as the generator's window
    B_r(b) holds (2 r^2 + 2 r + 1 on grid2d); the same pass with nothing
    left out reaches more of B_{delta + r}(o).  On the h_graph off (0, 0)
    d(b, .) comes from a pass from b, which leaves nothing out and is not
    counted."""
    from dlscape import fields
    bfs = fields._bfs_from_indices
    passes = []

    def counted(window, seeds, limit=None, settled=()):
        d = bfs(window, seeds, limit, settled)
        if settled:
            passes.append((window.vertex_at(seeds[0]),
                           sum(x >= 0 for x in d),
                           sum(x >= 0 for x in bfs(window, seeds, limit))))
        return d

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    gspace = build(name)
    w = materialize_window(gspace, (0, 0), 60)
    for b in bases:
        own = materialize_window(gspace, b, 36)
        for top in (18, 36):
            passes.clear()
            fld = point_assigned_family(w, [b], range(6, top + 1, 6), 16)[b]
            assert fld.report.last_change and fld.report.stable
            assert passes
            for s, got, whole in passes:
                r = own.dist_from_base[own.find(s)]
                assert got == own.count_within(r) < whole, (b, top, r)
            if name == "grid2d":    # every value -d(b, x), dated free
                assert [own.count_within(top)] == [p[1] for p in passes]
                assert own.count_within(top) == 2 * top * top + 2 * top + 1


def _far_vertices(window, rng, lo, hi, k):
    """k seeded vertices at distances from lo to hi, by increasing
    distance; None when the range is too short."""
    if hi - lo + 1 < k:
        return None
    out = []
    for r in sorted(rng.sample(range(lo, hi + 1), k)):
        out.append(rng.choice(sphere(window, r)))
    return out


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_limit_fields_match_whole_window_sweeps(name, params, radius):
    """Busemann, horofunction and set-limit fields, with BFS passes
    confined to a ball around the base, equal the sweeps by definition
    with one whole-window BFS per step."""
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    rng = random.Random(name)
    dist = w.dist_from_base
    for zone in (2, radius // 4):
        far = radius - zone
        for tail in (None, zone // 2 + 1):
            ref_tail = 2 * zone if tail is None else tail
            # rays from the base and from a zone vertex, with anchors at
            # every distance; some go past R - zone and must be refused
            starts = (w.base, rng.choice(sphere(w, zone)))
            for s in starts:
                for t in (rng.choice(sphere(w, far)),
                          rng.choice(sphere(w, radius))):
                    ray = deque_shortest_path(w, s, t)
                    if len(ray) < 2:
                        continue
                    T = len(ray) - 1
                    if max(dist[w.find(v)] for v in ray) + zone > radius:
                        with pytest.raises(ZoneError):
                            busemann(w, ray, T, zone, tail)
                        continue
                    fld, rep = busemann(w, ray, T, zone, tail)
                    assert fld.kind == "busemann"
                    _assert_sweep(fld, rep, _sweep_by_whole_window(
                        w, zone, ref_tail,
                        [(k, (ray[k],), k, zone) for k in range(1, T + 1)]))
            for k in (2, 4):
                points = _far_vertices(w, rng, 1, far, k)
                if points is None:
                    continue
                # the same sequence, and one that starts at the base
                for seq in (points, [w.base] + points[1:]):
                    fld, rep = horofunction(w, seq, zone, tail)
                    assert fld.kind == "horo"
                    steps = [(dist[w.find(p)], (p,), dist[w.find(p)],
                              zone) for p in seq]
                    _assert_sweep(fld, rep, _sweep_by_whole_window(
                        w, zone, ref_tail, steps))
            # H_n: a nearest member at distance a <= R - 2*zone, either
            # anywhere (shifted at random) or on a ray from the base
            # (shifted by a, a Busemann-like limit), plus members farther
            # out, some past the ball B_{a+2*zone} the BFS is confined to
            near = radius - 2 * zone
            ray = shortest_path(w, rng.choice(sphere(w, near)))
            for nearest, jitter in (
                    (_far_vertices(w, rng, 1, near, 3), 2),
                    ([ray[a] for a in range(1, near + 1, 2)], 0)):
                if nearest is None or len(nearest) < 2:
                    continue
                sets, shifts, steps = [], [], []
                for p in nearest:
                    a = dist[w.find(p)]
                    hn = (p, w.vertices[-1], rng.choice(w.vertices[
                        w.count_within(a):]))
                    cn = a + rng.randint(-jitter, jitter)
                    sets.append(hn)
                    shifts.append(cn)
                    steps.append((a, hn, cn, zone))
                fld, rep = dl_from_sets(w, sets, shifts, zone, tail)
                assert fld.kind == "set_limit"
                _assert_sweep(fld, rep, _sweep_by_whole_window(
                    w, zone, ref_tail, steps))


def test_set_limit_ball_is_tight():
    """The set-limit pass needs the shell a + 2*zone - 1 and no more: on
    the line, zone vertex y = zone is a + zone from the member -a nearest
    the base and one hop nearer to the member a + 2*zone - 1."""
    w = materialize_window(build("line"), 0, 80)
    zone = 6
    sets = [(-a, a + 2 * zone - 1) for a in (10, 20, 30)]
    shifts = [10, 20, 30]
    fld, rep = dl_from_sets(w, sets, shifts, zone)
    assert fld.value_at(zone) == zone - 1
    _assert_sweep(fld, rep, _sweep_by_whole_window(
        w, zone, 2 * zone, [(a, hn, a, zone)
                            for a, hn in zip(shifts, sets)]))


def test_monotone_sweeps_skip_settled_passes(monkeypatch):
    """The point-assigned and Busemann sweeps run only the last pass until
    their certificate is read.  On the line and the grid every u^r value
    is -d(base, x), so every zone vertex is dated with no pass.  On the
    line, the steps from r = 30 take the closed form (25 zone vertices, 2
    sphere points, against a ball of 2r + 1), so the last one runs no
    pass; with the space reporting a ball bound of 0 it takes the pass,
    as on the grid.  Along the
    line ray 0..40 (zone 12, tail 24, p* = 16) ``stable`` takes the passes
    at t = 1, which settles x <= 1, and at p* for the rest.  The dates
    take the passes at t = 1..12, as x = 12 settles only at t = 12; read
    first, they leave ``stable`` no pass, and read second they run all
    twelve, the pass at t = 1 again."""
    from dlscape import fields, space
    calls = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append(limit)
        return bfs(window, seeds, limit, settled)

    # the sweeps' passes run in fields, the geodesy check's in space
    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    for name, bound, passes in (("line", None, 0), ("line", 0, 1),
                                ("grid2d", None, 1)):
        gspace = build(name)
        if bound is not None:
            gspace.ball_size_bound = lambda base, radius: bound
        w = materialize_window(gspace, gspace.default_base(), 60)
        calls.clear()
        _, rep = u_point_assigned(w, range(12, 49, 6), 12)
        counts = [len(calls)]
        assert all(rep.stable.values())
        counts.append(len(calls))
        assert max(rep.last_change.values()) == 12
        counts.append(len(calls))
        assert counts == [passes] * 3, (name, bound)
    line = build("line")
    for first, second, counts in (("stable", "last_change", [2, 4, 16]),
                                  ("last_change", "stable", [2, 14, 14])):
        w = materialize_window(line, 0, 60)
        calls.clear()
        fld, rep = busemann(w, list(range(41)), 40, 12)
        seen = [len(calls)]         # the geodesy check, then the last pass
        getattr(rep, first)
        seen.append(len(calls))
        getattr(rep, second)
        seen.append(len(calls))
        assert seen == counts, first
        assert rep.last_change[w.find(12)] == 12
        assert all(rep.stable.values())


def test_point_assigned_stick_tolerance():
    space = build("stick", {"m": 6, "h": 2})
    w = materialize_window(space, ("cycle", 0), 40)
    fld, _ = u_point_assigned(w, range(6, 33, 6), 6)
    for i in fld.zone_indices():
        ref, tol = oracle(space, "point_assigned_tol", w.base,
                          w.vertices[i])
        assert abs(fld.values[i] - ref) <= tol


def test_point_assigned_schedule_validation(line_window):
    with pytest.raises(DomainError):
        u_point_assigned(line_window, [], 10)
    with pytest.raises(DomainError):
        u_point_assigned(line_window, [10, 10], 10)
    with pytest.raises(ZoneError):
        u_point_assigned(line_window, [61], 10)     # max(schedule) > R
    with pytest.raises(ZoneError):
        u_point_assigned(line_window, [20], 61)     # zone > R


def test_bounds_at_the_window_radius(line_window):
    """r = R and max(schedule) = R are exact for any zone <= R; the old
    bounds asked for r + zone <= R."""
    for r, zone in ((55, 10), (60, 10), (10, 60)):
        fld = u_r(line_window, r, zone)
        assert fld.values == {i: abs(r - abs(x)) - r for i, x in
                              enumerate(line_window.vertices)
                              if abs(x) <= zone}
    fld, _ = u_point_assigned(line_window, [40, 55], 10)
    assert all(fld.value_at(x) == -abs(x) for x in range(-10, 11))
    fld, _ = u_point_assigned(line_window, [60], 60)
    assert all(fld.value_at(x) == -abs(x) for x in range(-60, 61))


def test_zone_errors_name_the_need(line_window, halfline_window):
    """``need`` is the smallest radius or zone that satisfies the bound."""
    fld, _ = u_point_assigned(line_window, [20], 10)
    cases = [
        (lambda: u_r(line_window, 61, 10), "radius", 61),
        (lambda: u_r(line_window, 20, 61), "radius", 61),
        (lambda: u_point_assigned(line_window, [61], 10), "radius", 61),
        (lambda: busemann(line_window, range(0, 56), 55, 12), "radius", 67),
        (lambda: horofunction(line_window, [10, 50], 12), "radius", 62),
        # with two points past the bound, the farther one names the need
        (lambda: horofunction(line_window, [50, 55], 12), "radius", 67),
        (lambda: dl_from_sets(halfline_window, [(30,), (55,)], [30, 55],
                              10), "radius", 75),
        (lambda: dl_from_sets(halfline_window, [(45,), (50,)], [45, 50],
                              10), "radius", 70),
        (lambda: fld.value_at(-13), "zone", 13),
        # a zone vertex past B_max(schedule) has no value until r-max grows
        (lambda: u_point_assigned(line_window, [3], 8)[0].value_at(4),
         "r-max", 4),
        (lambda: u_r(line_window, 0, 10), "radius", None),
        # a sample point past R // 3 needs 3 d(base, s); rho builds the
        # family first, whose schedule check names max(schedule) = 70
        (lambda: pairwise_dist(line_window, [0, 25]), "radius", 75),
        (lambda: rho_matrix(line_window, [0, 21], [3, 70], 8), "radius",
         70),
    ]
    for call, parameter, need in cases:
        with pytest.raises(ZoneError) as exc:
            call()
        assert (exc.value.parameter, exc.value.need) == (parameter, need)


# One input per anchor check of the Busemann, horofunction and set-limit
# front ends on grid2d, R = 10: the error class, parameter, need and
# witness.  Where two checks fail, the one that comes first names the
# error.  The checks, in order: the argument shapes, each anchor set
# non-empty and in the window, a ray a geodesic, d(base, H_n) + margin
# <= R (margin zone, 2 zone for sets), 1 <= zone, a sequence diverging.
# Each check names its own need: an anchor outside the window needs the
# largest d(base, v) over the anchors looked up, which grid2d gives in
# closed form, and not the margin a later check adds (the CLI re-runs at
# each need to find the radius that passes both).
ANCHOR_CHECKS = [
    ("busemann", ([(0, 0), (1, 0)], 2, 3), ("DomainError", None, None, None)),
    ("busemann", ([(0, 0), (11, 0)], 1, 3),
     ("ZoneError", "radius", 11, (11, 0))),
    ("busemann", ([(0, 0), (2, 0)], 1, 3), ("DomainError", None, None, None)),
    # not a geodesic and too far out: the geodesy check comes first
    ("busemann", ([(9, 0), (8, 0), (9, 0)], 2, 3),
     ("DomainError", None, None, None)),
    ("busemann", ([(6, 0), (7, 0), (8, 0)], 2, 3),
     ("ZoneError", "radius", 11, (8, 0))),
    ("busemann", ([(0, 0), (1, 0)], 1, 0), ("DomainError", None, None, None)),
    ("horo", ([(1, 0)], 3), ("DomainError", None, None, None)),
    ("horo", ([(1, 0), (12, 0)], 3), ("ZoneError", "radius", 12, (12, 0))),
    ("horo", ([(1, 0), (8, 0), (9, 0)], 3),
     ("ZoneError", "radius", 12, (8, 0))),
    ("horo", ([(1, 0), (2, 0)], 0), ("DomainError", None, None, None)),
    ("horo", ([(2, 0), (1, 0)], 3), ("DomainError", None, None, None)),
    ("horo", ([(1, 0), (0, 1)], 3), ("DomainError", None, None, None)),
    # not diverging and too far out: the radius check comes first
    ("horo", ([(9, 0), (8, 0)], 3), ("ZoneError", "radius", 12, (9, 0))),
    ("sets", ([[(1, 0)], [(2, 0)]], [1], 2), ("DomainError", None, None,
                                             None)),
    ("sets", ([[(1, 0)], []], [1, 2], 2), ("DomainError", None, None, None)),
    # a set outside the window before an empty one: sets are checked in turn
    ("sets", ([[(12, 0)], []], [1, 2], 2),
     ("ZoneError", "radius", 12, (12, 0))),
    ("sets", ([[(1, 0)], [(2, 0), (12, 0)]], [1, 2], 2),
     ("ZoneError", "radius", 12, (12, 0))),
    ("sets", ([[(1, 0)], [(6, 0), (5, 0), (4, 1)]], [1, 5], 3),
     ("ZoneError", "radius", 11, (5, 0))),
    ("sets", ([[(1, 0)], [(2, 0)]], [1, 2], 0),
     ("DomainError", None, None, None)),
    ("sets", ([[(2, 0)], [(1, 0), (3, 0)]], [2, 1], 2),
     ("DomainError", None, None, None)),
]


@pytest.mark.parametrize("front,args,want", ANCHOR_CHECKS)
def test_anchor_checks(front, args, want):
    fn = {"busemann": busemann, "horo": horofunction,
          "sets": dl_from_sets}[front]
    w = materialize_window(build("grid2d"), (0, 0), 10)
    with pytest.raises(DomainError) as exc:
        fn(w, *args)
    e = exc.value
    assert (type(e).__name__, getattr(e, "parameter", None),
            getattr(e, "need", None), getattr(e, "witness", None)) == want


def test_verify_geodesic(line_window):
    def geodesic(path):
        return _geodesic(line_window, [line_window.find(v) for v in path])

    assert geodesic([0, 1, 2, 3])
    assert not geodesic([0, 1, 0])      # not distance-true
    assert not geodesic([0, 2])         # not adjacent


def test_busemann_line_values(line_window):
    ray = list(range(0, 41))
    fld, rep = busemann(line_window, ray, 40, 12)
    for x in range(-12, 13):
        assert fld.value_at(x) == -x
        assert fld.stable_at(x)


def test_busemann_requires_geodesic(line_window):
    with pytest.raises(DomainError):
        busemann(line_window, [0, 1, 0, 1], 3, 5)


def test_busemann_anchor_zone(line_window):
    ray = list(range(0, 56))
    with pytest.raises(ZoneError) as exc:
        busemann(line_window, ray, 55, 12)
    assert exc.value.parameter == "radius"


def test_horofunction_matches_busemann(line_window):
    ray = list(range(0, 41))
    bf, _ = busemann(line_window, ray, 40, 12)
    hf, _ = horofunction(line_window, [10, 25, 40], 12)
    for x in range(-12, 13):
        assert hf.value_at(x) == bf.value_at(x) - bf.value_at(0)


def test_horofunction_needs_divergence(line_window):
    with pytest.raises(DomainError):
        horofunction(line_window, [10, 10, 20], 12)
    with pytest.raises(DomainError):
        horofunction(line_window, [30], 12)


def test_dl_from_sets_halfline(halfline_window):
    sets = [(n,) for n in (20, 30, 40)]
    fld, _ = dl_from_sets(halfline_window, sets, [20, 30, 40], 10)
    for v in range(0, 11):
        assert fld.value_at(v) == -v


def test_dl_from_sets_validation(halfline_window):
    with pytest.raises(DomainError):
        dl_from_sets(halfline_window, [(30,)], [30], 10)
    with pytest.raises(ZoneError):
        dl_from_sets(halfline_window, [(30,), (55,)], [30, 55], 10)


def test_single_dl_function_on_halfline(halfline_window):
    """One-ended space: every construction gives the same field up to a
    constant on the zone."""
    pa, _ = u_point_assigned(halfline_window, range(10, 51, 10), 8)
    ray = list(range(0, 41))
    bf, _ = busemann(halfline_window, ray, 40, 8)
    hf, _ = horofunction(halfline_window, [20, 30, 40], 8)
    sf, _ = dl_from_sets(halfline_window, [(20,), (30,), (40,)],
                         [20, 30, 40], 8)
    for other in (bf, hf, sf):
        diffs = {pa.values[i] - other.values[i]
                 for i in pa.zone_indices()}
        assert len(diffs) == 1


def test_gromov_check_accepts_field(h_field):
    report = gromov_check(h_field, t_samples(h_field))
    assert report.ok and sum(report.checked.values()) > 0


def test_gromov_check_flags_corruption(h_window):
    fld, _ = u_point_assigned(h_window, range(6, 49, 6), 10)
    i = fld.index_of((2, 2))
    fld.values[i] += 2      # break the sublevel identity at one vertex
    report = gromov_check(fld, [-1, 0, 1])
    assert not report.ok
    assert any(v == (2, 2) for _, v, _, _ in report.violations)


def test_level_set_h_graph(h_field):
    zero = level_set(h_field, 0)
    # u = y - |x| vanishes exactly on the corner diagonals and the origin
    assert set(zero) == {(k, abs(k)) for k in range(-5, 6)}


def _big_and_small_windows(name, params, radius):
    """Windows B_radius(b) and B_2radius(b) around a vertex b off the
    default base; on the larger one the old bounds r + zone <= R and
    max(schedule) + zone <= R hold for every case below."""
    space = build(name, params)
    wide = materialize_window(space, space.default_base(), 2 * radius)
    b = wide.vertices[wide.count_within(1) - 1]
    return (materialize_window(space, b, radius),
            materialize_window(space, b, 2 * radius))


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_u_r_small_window_matches_big(name, params, radius):
    """u_r is exact for 1 <= r <= R and zone <= R: every (r, zone) on
    B_R gives the values of B_2R, including r = R and zone = R."""
    radius = min(radius // 2, 12)
    small, big = _big_and_small_windows(name, params, radius)
    for r in range(1, radius + 1):
        for zone in sorted({1, r, radius - r, radius} - {0}):
            assert u_r(small, r, zone).values == u_r(big, r, zone).values


@pytest.mark.parametrize("name,params,radius", ALL_GENERATORS)
def test_point_assigned_small_window_matches_big(name, params, radius):
    """max(schedule) <= R and zone <= R suffice: fields and reports on
    B_R equal those on B_2R."""
    radius = min(radius // 2, 16)
    small, big = _big_and_small_windows(name, params, radius)
    for zone in (1, radius // 2, radius):
        for schedule in (range(1, radius + 1), range(2, radius + 1, 3),
                         (radius,)):
            f_small, r_small = u_point_assigned(small, schedule, zone)
            f_big, r_big = u_point_assigned(big, schedule, zone)
            assert f_small.values == f_big.values
            assert r_small == r_big


def test_a_negative_tail_is_refused(line_window):
    """The stability tail counts schedule parameters back from the last,
    so a negative one would mark every value unstable: the sweep refuses
    it, and tail 0 is still accepted."""
    for sweep in (lambda tail: u_point_assigned(line_window, [8, 16, 24],
                                                 6, tail),
                  lambda tail: busemann(line_window, range(0, 31), 30, 6,
                                        tail)):
        for tail in (-1, -5):
            with pytest.raises(DomainError, match="tail must be >= 0"):
                sweep(tail)
        sweep(0)


# (generator, family base b, schedule, zone) on a window of radius 60 at
# the generator's default base, the window's own (delta = 0); the others
# grow from its rows.  On the halfline the steps past b have one-point
# spheres.  On grid2d (spheres of 4r points, distances decoded from pair
# codes) zone 1 takes the pass up to r = 8 and zone 2 up to r = 24.
ROUTE_FIELDS = [("line", 0, range(1, 41), 6), ("line", -4, range(2, 41, 2), 6),
                ("line", 9, range(3, 40, 3), 8),
                ("halfline", 0, range(1, 41), 6),
                ("halfline", 2, range(1, 30), 4),
                ("halfline", 7, range(2, 41, 2), 6),
                *((("grid2d", b, range(2, 41, 2), zone) for b in
                   ((0, 0), (3, -2)) for zone in (1, 2)))]


def _routed_field(name, b, schedule, zone, passes, bound=None):
    """Every step's entries, the number of ``passes`` they ran, and the
    values, ``stable`` and ``last_change`` of b's point-assigned field;
    with ``bound``, the space reports that ball bound, which routes every
    step one way."""
    gspace = build(name)
    if bound is not None:
        gspace.ball_size_bound = lambda base, radius: bound
    w = materialize_window(gspace, gspace.default_base(), 60)
    wb = w if b == w.base else \
        materialize_window(gspace, b, max(schedule[-1], zone), known=w)
    fld, rep = u_point_assigned(wb, schedule, zone)
    passes.clear()
    entries = [rep._run(k) for k in range(len(rep.schedule))]
    return (entries, len(passes)), (fld.values, rep.stable, rep.last_change)


@pytest.mark.parametrize("name,b,schedule,zone", ROUTE_FIELDS)
def test_closed_form_entries_match_the_passes(monkeypatch, name, b,
                                              schedule, zone):
    """Each step of a point-assigned field gives the same entries from the
    closed forms, min over S_r(b) of d(x, s) - r, as from its pass, and so
    the same values and certificate.  The space's ball bound routes the
    steps: 0 sends every step to the pass, 10^9 every one to the closed
    form, and the true bound splits each of these schedules: the steps up
    to some r take the pass, the rest the closed form."""
    from dlscape import fields
    passes = []
    bfs = fields._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        passes.append(limit)
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    (entries, n), field = _routed_field(name, b, schedule, zone, passes, 0)
    assert n == len(schedule)
    assert _routed_field(name, b, schedule, zone, passes, 10 ** 9) == \
        ((entries, 0), field)
    (got, n), got_field = _routed_field(name, b, schedule, zone, passes)
    assert (got, got_field) == (entries, field)
    assert 0 < n < len(schedule)
