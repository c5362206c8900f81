"""The pseudo-metric rho, anti-triangle, base-Lipschitz, and classes."""

import itertools
from types import SimpleNamespace

import pytest
from fractions import Fraction

from dlscape import (ConsistencyError, ZoneError, anti_triangle_check,
                     build, cli, equivalence_classes, materialize_window,
                     oracle, point_assigned_family, rho_matrix,
                     u_point_assigned)
from dlscape.pseudometric import RhoMatrix, base_lipschitz_gap
from dlscape.space import _bfs_from_indices

SCHED = range(8, 41, 4)


def test_rho_is_distance_on_line(line_window):
    sample = [-3, -1, 0, 2, 4]
    rho = rho_matrix(line_window, sample, SCHED, 10)
    for i, x in enumerate(sample):
        for j, y in enumerate(sample):
            assert rho.stable[i][j]
            assert rho.rho(i, j) == oracle(line_window.space, "rho", x, y)
    assert not rho.axiom_violations()


def test_rho_vanishes_on_halfline(halfline_window):
    sample = [0, 1, 4, 7]
    rho = rho_matrix(halfline_window, sample, SCHED, 10)
    assert all(v == 0 for row in rho.two_rho for v in row)
    assert not rho.axiom_violations()


def test_rho_is_distance_on_tree(tree2_window):
    sample = [(), (0,), (1,), (0, 1), (1, 0, 0)]
    rho = rho_matrix(tree2_window, sample, range(3, 10), 5)
    for i in range(len(sample)):
        for j in range(len(sample)):
            assert 2 * rho.dist[i][j] == rho.two_rho[i][j]
    assert not rho.axiom_violations()


def test_rho_axioms_on_h_graph(h_window):
    sample = [(0, 0), (2, 0), (-1, 0), (1, 1), (2, 2)]
    rho = rho_matrix(h_window, sample, SCHED, 10)
    assert not rho.axiom_violations()


def _defective_rho():
    """A hand-built 5-point matrix on the line with one witness of each
    kind: 2 rho(0, 0) = 2 (diagonal), 2 rho(1, 2) = 2 against 2 rho(2, 1)
    = 1 (symmetry), 2 rho(3, 4) = -1 (nonnegative), 2 rho(0, 1) = 3 > 2 d
    (rho<=d) and 2 rho(0, 4) = 8 > 2 rho(0, 2) + 2 rho(2, 4) (triangle).
    The entry (3, 4) is unstable."""
    n = 5
    dist = tuple(tuple(abs(i - j) for j in range(n)) for i in range(n))
    tr = [list(row) for row in dist]
    tr[0][0] = 2
    tr[1][2] = 2
    tr[3][4] = tr[4][3] = -1
    tr[0][1] = tr[1][0] = 3
    tr[0][4] = tr[4][0] = 8
    stable = [[True] * n for _ in range(n)]
    stable[3][4] = False
    return RhoMatrix(tuple(range(n)), tuple(map(tuple, tr)),
                     tuple(map(tuple, stable)), dist, Fraction(1))


AXIOM_WITNESSES = [
    ("diagonal", 0, 2), ("rho<=d", 0, 0), ("rho<=d", 0, 1),
    ("triangle", 0, 1, 4), ("triangle", 0, 2, 4), ("triangle", 0, 3, 4),
    ("rho<=d", 1, 0), ("symmetry", 1, 2), ("triangle", 1, 3, 4),
    ("symmetry", 2, 1), ("triangle", 2, 3, 4), ("triangle", 3, 4, 3),
    ("nonnegative", 3, 4), ("triangle", 4, 1, 0), ("triangle", 4, 2, 0),
    ("triangle", 4, 3, 0), ("triangle", 4, 3, 1), ("triangle", 4, 3, 2),
    ("nonnegative", 4, 3), ("triangle", 4, 3, 4)]


# The witnesses that test the unstable entry (3, 4) or compare with it,
# in a triangle as (i, k) or as (k, j).
HIDDEN_WITNESSES = [("nonnegative", 3, 4), ("triangle", 3, 4, 3),
                    ("triangle", 0, 3, 4), ("triangle", 1, 3, 4),
                    ("triangle", 2, 3, 4), ("triangle", 4, 3, 4)]


def test_axiom_violations_name_every_witness_in_order():
    """Every witness of :func:`_defective_rho`, in the order of the scan
    over (i, j, k); reading stable entries only drops those that read the
    unstable entry."""
    rho = _defective_rho()
    assert rho.axiom_violations(stable_only=False) == AXIOM_WITNESSES
    assert rho.axiom_violations() == [
        w for w in AXIOM_WITNESSES if w not in HIDDEN_WITNESSES]


def test_rho_sample_zone_guard(line_window):
    with pytest.raises(ZoneError) as exc:
        rho_matrix(line_window, [-8, 8], SCHED, 10)
    assert exc.value.parameter == "zone"


def test_anti_triangle_exhaustive(h_window):
    sample = [(0, 0), (1, 0), (-1, 0), (2, 0), (1, 1), (2, 2), (0, 2)]
    fields = point_assigned_family(h_window, sample, SCHED, 12)
    for x, y, z in itertools.product(sample, repeat=3):
        assert anti_triangle_check(fields[x], fields[y], z)


def test_base_lipschitz_line(line_window):
    fields = point_assigned_family(line_window, [0, 3], SCHED, 10)
    sup, d, _ = base_lipschitz_gap(fields[0], fields[3])
    assert (sup, d) == (3, 3)
    assert sup is None or sup <= d


def test_base_lipschitz_h_graph(h_window):
    fields = point_assigned_family(h_window, [(0, 0), (1, 0)], SCHED, 10)
    sup, d, _ = base_lipschitz_gap(fields[(0, 0)], fields[(1, 0)])
    assert d == 1 and sup <= 1


def test_base_lipschitz_reads_stable_vertices_only():
    """On the H-graph at R = 14 the fields at (-1,0) and (-1,1) differ by 3
    at vertices where they have not settled: 10 of their 13 shared zone
    vertices are skipped, and the rest give sup 1 = d.  With a stability
    tail past the schedule no vertex is stable, and there is no sup."""
    w = materialize_window(build("h_graph"), (0, 0), 14)
    bases = [(-1, 0), (-1, 1)]
    fields = point_assigned_family(w, bases, range(2, 11), 4)
    assert base_lipschitz_gap(*(fields[b] for b in bases)) == (1, 1, 10)
    fields = point_assigned_family(w, bases, range(2, 11), 4, tail=100)
    sup, d, skipped = base_lipschitz_gap(*(fields[b] for b in bases))
    assert (sup, d, skipped) == (None, 1, 13)
    assert sup is None or sup <= d


def test_partition_halfline_single_block(halfline_window):
    sample = list(range(0, 6))
    part = equivalence_classes(halfline_window, sample, SCHED, 10)
    assert part.blocks == [sample]
    # offsets witness u_x = u_y + (y - x)
    for (x, y), c in part.offsets.items():
        assert c == x - y


def test_partition_line_singletons(line_window):
    sample = list(range(-2, 3))
    part = equivalence_classes(line_window, sample, SCHED, 10)
    assert part.blocks == [[v] for v in sample]
    assert part.evidence == "WINDOW-EVIDENCE"


def test_partition_tree_singletons(tree2_window):
    sample = [(), (0,), (1,), (0, 0), (1, 1)]
    part = equivalence_classes(tree2_window, sample, range(3, 11), 4)
    assert part.blocks == [[v] for v in sorted(sample)]


def test_family_reuses_the_base_window(halfline_window):
    for schedule, zone in ((SCHED, 10), ((2, 4, 6), 10)):
        fields = point_assigned_family(halfline_window, [0, 3], schedule,
                                       zone)
        assert fields[0].window is halfline_window
        assert fields[3].window.base == 3
        # the other bases' windows reach max(schedule) and the zone
        assert fields[3].window.radius == max(max(schedule), zone)


def test_partition_consistency_guard(halfline_window):
    sample = [0, 1, 2]
    fields = point_assigned_family(halfline_window, sample, SCHED, 10)
    rho = rho_matrix(halfline_window, sample, SCHED, 10, fields=fields)
    # corrupt one field so constant-difference and rho = 0 disagree
    fields[2].values[fields[2].index_of(5)] += 1
    with pytest.raises(ConsistencyError):
        equivalence_classes(halfline_window, sample, SCHED, 10,
                            fields=fields, rho=rho)


def test_rho_scaled_units():
    space = build("line", scale=Fraction(2))
    w = materialize_window(space, 0, 60)
    rho = rho_matrix(w, [0, 4], SCHED, 10)
    # 4 hops at two hops per unit length: rho = 2 in reported units
    assert rho.rho(0, 1) == 2


def test_rho_zone_error_names_the_window_distance():
    """The confined sample BFS cannot see the row at height 3 of the
    H-graph, so (3,3) and (-3,3) look 12 apart there; the error carries
    the whole-window distance 6."""
    w = materialize_window(build("h_graph"), (0, 0), 40)
    with pytest.raises(ZoneError, match=r"are 6 apart, beyond zone 2"):
        rho_matrix(w, [(3, 3), (-3, 3)], SCHED, 2)
    # with zone 12 the confining ball B_18 holds that row, at distance 9
    assert rho_matrix(w, [(3, 3), (-3, 3)], SCHED, 12).dist == \
        ((0, 6), (6, 0))


# (generator, params, R, schedule, zone); the samples below lie within two
# hops of the base, so every pair is within the zone and the classes keep
# an evaluation zone of at least zone - 2.
FAMILY_SPACES = [("line", {}, 40, range(4, 33, 4), 10),
                 ("halfline", {}, 40, range(4, 33, 4), 10),
                 ("tree", {"b": 2}, 9, range(2, 8), 4),
                 ("grid2d", {}, 24, (6, 12, 18), 8),
                 ("h_graph", {}, 40, range(6, 31, 6), 10),
                 ("stick", {"m": 6, "h": 2}, 30, range(4, 25, 4), 8),
                 ("pendant_line", {}, 30, range(4, 25, 4), 8),
                 ("cylinder", {"m": 5}, 30, range(4, 25, 4), 8)]


def _family_on_caller_radius(window, bases, schedule, zone):
    """Each base's field on a window of the caller's radius."""
    return {b: u_point_assigned(
        window if b == window.base else
        materialize_window(window.space, b, window.radius),
        schedule, zone)[0] for b in bases}


@pytest.mark.parametrize("name,params,radius,schedule,zone", FAMILY_SPACES)
def test_family_rho_and_classes_match_caller_radius_windows(
        name, params, radius, schedule, zone):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    near = w.vertices[:w.count_within(2)]
    for sample in (near[:6], near[1:6], near[-4:]):
        fields = point_assigned_family(w, sample, schedule, zone)
        ref = _family_on_caller_radius(w, sample, schedule, zone)
        for b in sample:
            if b != w.base:
                assert fields[b].window.radius == max(max(schedule), zone)
            assert fields[b].values == ref[b].values
            assert fields[b].report == ref[b].report
        rho = rho_matrix(w, sample, schedule, zone)
        rho_ref = rho_matrix(w, sample, schedule, zone, fields=ref)
        assert (rho.two_rho, rho.stable) == (rho_ref.two_rho, rho_ref.stable)
        assert rho.dist == tuple(
            tuple(_bfs_from_indices(w, [w.find(x)])[w.find(y)]
                  for y in sample)
            for x in sample)
        part = equivalence_classes(w, sample, schedule, zone)
        part_ref = equivalence_classes(w, sample, schedule, zone,
                                       fields=ref, rho=rho_ref)
        assert (part.blocks, part.offsets, part.evaluation_zone) == \
            (part_ref.blocks, part_ref.offsets, part_ref.evaluation_zone)
    # bases b with d(base, b) + m <= R are swept on the caller's rows, the
    # others on windows from the generator; the first shell past R - m
    # and the window's edge take the second route
    m = max(max(schedule), zone)
    edge = [w.vertices[i] for d in (radius - m, radius - m + 1, radius)
            for i in (w.count_within(d - 1), w.count_within(d) - 1)]
    fields = point_assigned_family(w, edge, schedule, zone)
    ref = _family_on_caller_radius(w, edge, schedule, zone)
    for b in edge:
        wb = fields[b].window
        assert wb.known is (w if w.dist_from_base[w.find(b)] + m <= radius
                            else None)
        assert (wb.radius, wb.base) == (m, b)
        assert fields[b].values == ref[b].values
        assert fields[b].report == ref[b].report


def test_rho_h_graph_family_passes(monkeypatch):
    """The rho benchmark's h_graph shape (R 120, r-max 96, zone 16): a
    family field runs its last pass, after one BFS from its base where
    that is off (0, 0), and ``stable`` adds exactly two: the pass at the
    first parameter, 9, and the one at p* = 63, the largest parameter at
    or below the cutoff 96 - 32."""
    from dlscape import fields, space
    calls = []
    bfs = fields._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append(limit)
        return bfs(window, seeds, limit, settled)

    # the sweep's passes run in fields, the held BFS from the base in space
    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    w = materialize_window(build("h_graph"), (0, 0), 120)
    schedule = list(range(9, 91, 9)) + [96]
    for b, built in (((0, 0), 1), ((3, 1), 2), ((-7, 0), 2), ((-2, 3), 2)):
        calls.clear()
        fld = point_assigned_family(w, [b], schedule, 16)[b]
        assert len(calls) == built, b
        stable = fld.report.stable
        assert len(calls) == built + 2, b
        assert sum(stable.values()) > 0
        assert fld.report.stable is stable and len(calls) == built + 2


def test_rho_reads_sample_distances_off_the_family_passes(monkeypatch):
    """On the h_graph each family field off (0, 0) reads d(b, .) from the
    caller's window's held pass from b, so rho on those fields, as
    ``dlscape rho`` runs it, adds one BFS, from (0, 0) only, and gives
    the matrix rho_matrix builds on its own."""
    from dlscape import space
    calls = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append(tuple(seeds))
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    gspace = build("h_graph")
    w = materialize_window(gspace, (0, 0), 120)
    schedule = list(range(9, 91, 9)) + [96]
    sample = [(0, 0), (3, 1), (-2, 0), (-7, 0)]
    fields = point_assigned_family(w, sample, schedule, 16)
    assert len(calls) == 3
    calls.clear()
    rho = rho_matrix(w, sample, schedule, 16, fields=fields)
    assert calls == [(0,)]
    assert rho == rho_matrix(materialize_window(gspace, (0, 0), 120),
                             sample, schedule, 16)


def test_family_checks_the_callers_window(line_window):
    """A base other than the caller's may not slip past its bounds."""
    with pytest.raises(ZoneError, match="max.schedule. <= R"):
        point_assigned_family(line_window, [3], range(8, 65, 4), 10)
    with pytest.raises(ZoneError, match="zone exceeds"):
        point_assigned_family(line_window, [3], SCHED, 61)


def test_family_windows_grow_only_to_the_zone():
    """On the rho benchmark's shape the family fields are swept on the
    caller's rows, and rho and the classes read each family window only
    as far as B_zone(b)."""
    space = build("grid2d")
    w = materialize_window(space, (0, 0), 80)
    schedule, zone = list(range(6, 61, 6)) + [64], 16
    sample = [(0, 0), (3, 5), (-8, 0), (0, -7), (2, -2), (-4, 4), (1, 0),
              (5, -3)]
    fields = point_assigned_family(w, sample, schedule, zone)
    rho = rho_matrix(w, sample, schedule, zone, fields=fields)
    equivalence_classes(w, sample, schedule, zone, fields=fields, rho=rho)
    for b in sample[1:]:
        assert fields[b].window.known is w
        assert fields[b].window.grown <= zone
    assert rho.two_rho == tuple(tuple(2 * d for d in row) for row in rho.dist)


# (generator, window base, R, schedule, zone).  Every family base b lies
# within R // 3 of the window base o, so each field is swept on the
# caller's rows with delta = d(o, b) > 0 off o.  The schedules starting at
# 1 or 2 step below delta, so their first annuli |d(o, .) - r| <= delta
# are whole balls B_{r + delta}(o).  The grid2d window at (-7, 5) holds
# bases at negative x, with y of both signs.
ROUTE_SPACES = [("line", 0, 60, range(8, 41, 4), 10),
                ("line", 7, 60, range(1, 41), 10),
                ("halfline", 0, 60, range(8, 41, 8), 10),
                ("halfline", 9, 60, range(1, 41), 12),
                ("grid2d", (0, 0), 24, range(2, 17, 2), 8),
                ("grid2d", (2, -3), 24, range(1, 17), 6),
                ("h_graph", (3, 3), 30, range(2, 21, 2), 8),
                ("grid2d", (-7, 5), 18, range(1, 13), 6)]


def _family_fields(space, base, radius, schedule, zone):
    w = materialize_window(space, base, radius)
    bases = w.vertices[:w.count_within(radius // 3)]
    fields = point_assigned_family(w, bases, schedule, zone)
    return {b: (f.values, f.report.stable, f.report.last_change)
            for b, f in fields.items()}


@pytest.mark.parametrize("name,base,radius,schedule,zone", ROUTE_SPACES)
def test_family_spheres_agree_on_both_distance_routes(
        monkeypatch, name, base, radius, schedule, zone):
    """A family field reads S_r(b) and S_{r+1}(b) from
    ``space.sphere_at(b, .)`` where the generator gives it, else from one
    confined BFS from b: with the closed form patched away every field
    takes the pass and comes out the same, and so does each sweep pass,
    seeds and list.  On the h_graph window at (3, 3) the base (0, 0)
    takes the closed form and the other bases the pass.  The space
    reports a ball bound of 0, so no step takes the closed-form entries
    of :func:`u_point_assigned` and both runs pass at the same steps."""
    from dlscape import fields
    space, passes = build(name), []
    space.ball_size_bound = lambda base, radius: 0

    def counted(window, seeds, limit=None, settled=None):
        seeds = list(seeds)
        d = _bfs_from_indices(window, seeds, limit, settled or ())
        if settled is not None:         # a sweep pass, not the d(b, .) one
            passes.append((sorted(seeds), d))
        return d

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    closed = _family_fields(space, base, radius, schedule, zone), passes[:]
    passes.clear()
    with monkeypatch.context() as m:
        m.setattr(type(space), "sphere_at", lambda self, b, r: None)
        assert (_family_fields(space, base, radius, schedule, zone),
                passes) == closed


# (generator, window base, R, sample, fields that take the d(b, .) pass)
PASS_COUNTS = [("line", 0, 60, [0, -5, 3, 20, -20], 0),
               ("halfline", 0, 60, [0, 1, 7, 12, 20], 0),
               ("grid2d", (0, 0), 80, [(0, 0), (3, 5), (-8, 0), (0, -7),
                                       (2, -2), (-4, 4), (1, 0), (5, -3)],
                0),
               ("h_graph", (0, 0), 60, [(0, 0), (2, 0), (-1, 0), (1, 1),
                                        (2, 2), (0, 5)], 5),
               ("h_graph", (3, 3), 30, [(3, 3), (0, 0), (3, 0), (-2, 3)], 2)]


@pytest.mark.parametrize("name,base,radius,sample,passes", PASS_COUNTS)
def test_family_runs_no_pass_from_a_closed_form_base(
        monkeypatch, name, base, radius, sample, passes):
    """A family field runs a BFS seeded at its own base b only where the
    generator gives no closed-form d(b, .): none on the line, halfline
    and grid, one per non-base point on the h_graph, except from (0, 0).
    A sweep pass starts from a sphere S_r(b), r >= 1, which never holds
    b."""
    from dlscape import fields, pseudometric, space
    bfs, sweep = space._bfs_from_indices, fields.u_point_assigned
    seeded, current = [], []

    def counted(window, seeds, limit=None, settled=()):
        seeds = list(seeds)
        if seeds == [window.find(current[-1])]:
            seeded.append(current[-1])
        return bfs(window, seeds, limit, settled)

    def point_assigned(window, *args):
        current.append(window.base)
        return sweep(window, *args)

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    monkeypatch.setattr(pseudometric, "u_point_assigned", point_assigned)
    gspace = build(name)
    w = materialize_window(gspace, base, radius)
    schedule = list(range(6, radius - radius // 3 + 1, 6))
    point_assigned_family(w, sample, schedule, radius // 5)
    assert current == sample
    assert len(seeded) == passes == len(set(seeded))
    assert base not in seeded


# (generator, window base o, R_W, family base b, R, zone): b has closed-form
# spheres.  On grid2d, with the ray route turned off, every value is
# -d(b, x), dated with no pass, so the sweep runs its last pass only; the
# h_graph certificate runs more.
SPHERE_PASSES = [("grid2d", (0, 0), 60, (3, -2), 40, 12),
                 ("h_graph", (3, 3), 40, (0, 0), 24, 8)]


@pytest.mark.parametrize("name,base,radius,b,r_max,zone", SPHERE_PASSES)
def test_family_field_reads_two_spheres_per_pass(
        monkeypatch, name, base, radius, b, r_max, zone):
    """A family field whose base has closed-form spheres calls
    ``space.distance`` never: each pass that runs starts from the points
    of S_r(b) and reads those of S_{r+1}(b), no more."""
    from dlscape import fields
    space = build(name)
    space.rays_cover = lambda b, r: False
    w = materialize_window(space, base, radius)
    wb = materialize_window(space, b, r_max, known=w)
    sphere_at = type(space).sphere_at
    spheres, passes, distances = [], [], []

    def counted_sphere(self, at, r):
        points = sphere_at(self, at, r)
        spheres.append((r, len(points)))
        return points

    def counted_pass(window, seeds, limit=None, settled=()):
        seeds = list(seeds)
        passes.append(len(seeds))
        return _bfs_from_indices(window, seeds, limit, settled)

    monkeypatch.setattr(type(space), "sphere_at", counted_sphere)
    monkeypatch.setattr(type(space), "distance",
                        lambda self, a, v: distances.append(v))
    monkeypatch.setattr(fields, "_bfs_from_indices", counted_pass)
    _, report = u_point_assigned(wb, range(4, r_max + 1, 4), zone)
    report.last_change
    assert not distances
    assert (len(passes) == 1) == (name == "grid2d")
    assert len(spheres) == 2 * len(passes)
    for n, (r, near), (r1, cut) in zip(passes, spheres[::2], spheres[1::2]):
        size = len(sphere_at(space, b, r))
        assert (n, near, r1, cut) == \
            (size, size, r + 1, len(sphere_at(space, b, r + 1)))


def test_rho_matrix_builds_the_family_before_the_sample_distances(
        monkeypatch):
    """Called without ``fields``, rho_matrix builds the family first, so
    on the h_graph each sample point off (0, 0) runs its d(b, .) pass
    once, at the family's ball, and the sample distances read it: 16
    passes, where the sample distances first made 19."""
    from dlscape import fields, space
    passes = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        passes.append(limit)
        return bfs(window, seeds, limit, settled)

    monkeypatch.setattr(fields, "_bfs_from_indices", counted)
    monkeypatch.setattr(space, "_bfs_from_indices", counted)
    w = materialize_window(build("h_graph"), (0, 0), 120)
    sample = [(0, 0), (3, 1), (-2, 0), (-7, 0)]
    rho_matrix(w, sample, [*range(9, 91, 9), 96], 16)
    assert len(passes) == 16


# The benchmark's line, halfline and grid2d rho shapes: (generator, R,
# r-max, r-step, tail, zone, sample radius).
CLOSED_RHO = [("line", 6000, 4800, 480, 960, 10, 5),
              ("halfline", 12000, 9600, 960, 1920, 12, 10),
              ("grid2d", 80, 64, None, None, 16, 8)]


@pytest.mark.parametrize("name,radius,r_max,step,tail,zone,near",
                         CLOSED_RHO)
def test_closed_form_rho_runs_no_field_pass(monkeypatch, name, radius,
                                            r_max, step, tail, zone, near):
    """On the line, the grid and the halfline from its end, rays from the
    sample point cover its zone, so every family step reads -d(b, .); at
    the other halfline points every step takes the closed form.  So the
    family, rho and the classes run no pass in ``fields`` and grow no
    window past B_{zone + dmax}, dmax the sample's largest distance from
    the base.  A family window whose generator bound fits the budget does
    not grow the caller's window when it is made."""
    from dlscape import fields
    passes = []
    monkeypatch.setattr(fields, "_bfs_from_indices",
                        lambda *args: passes.append(args))
    gspace = build(name)
    w = materialize_window(gspace, gspace.default_base(), radius)
    if name == "grid2d":    # pairs at most 2 near = zone apart
        sample = [(0, 0), (8, 0), (0, -8), (-3, 5), (4, 4), (1, 0),
                  (-2, -6), (0, 1)]
    else:
        sample = [0, near, near // 2, 1, near - 1, 3]
    if name == "line":
        sample += [-near, -2]
    schedule = cli._schedule(SimpleNamespace(r_max=r_max, r_step=step))
    flds = point_assigned_family(w, sample, schedule, zone, tail)
    rho = rho_matrix(w, sample, schedule, zone, tail, fields=flds)
    part = equivalence_classes(w, sample, schedule, zone, tail,
                               fields=flds, rho=rho)
    assert not passes
    assert all(map(all, rho.stable)) and len(part.blocks) == \
        (1 if name == "halfline" else len(sample))
    for f in flds.values():
        assert f.window.grown <= zone + near
    assert w.grown <= zone + near
    grown = w.grown
    materialize_window(gspace, sample[1], r_max, known=w)
    assert w.grown == grown
