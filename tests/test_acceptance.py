"""Acceptance gate: one test per criterion, exact values and timings.

Each test prints a single PASS line on success (pytest -v also shows one
verdict line per criterion).  All numeric checks are exact integer or
Fraction comparisons; timing limits are asserted with wall-clock margins
well below the stated budgets on commodity hardware.
"""

import itertools
import random
import resource
import time

from fractions import Fraction

from conftest import t_samples

from dlscape import (build, brute_force_min_distortion, build_eps_isometry,
                     busemann, corr_from_isometry, dl_from_sets,
                     equivalence_classes, gromov_check, horofunction,
                     materialize_window, min_distortion_correspondence,
                     pa_gh_experiment, representation_check, rho_matrix,
                     shortest_path, sphere, trace_corays, u_point_assigned,
                     verify_gradient)
from dlscape.checks import suite_monotone
from dlscape.gh import MAPPINGS, FiniteMetricSpace, gh_bounds
from dlscape.pseudometric import (anti_triangle_check, base_lipschitz_gap,
                                  point_assigned_family)
from dlscape.space import _bfs_from_indices


def _timed(limit, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    assert dt < limit, f"took {dt:.2f}s, limit {limit}s"
    return out, dt


def test_criterion_01_h_graph_exact_values():
    def work():
        w = materialize_window(build("h_graph"), (0, 0), 150)
        fld, _ = u_point_assigned(w, range(6, 121, 6), 24, tail=48)
        return fld

    fld, dt = _timed(5.0, work)
    for k in range(1, 9):
        for v, want in (((k, 0), -k), ((-k, 0), -k),
                        ((0, k), k), ((k, k), 0)):
            assert fld.value_at(v) == want, (v, fld.value_at(v))
            assert fld.stable_at(v), v
    print(f"ACCEPTANCE 1 PASS (h-graph exact values, {dt:.2f}s)")


def test_criterion_02_sphere_membership():
    def work():
        w = materialize_window(build("h_graph"), (0, 0), 20)
        df = _bfs_from_indices(w, [0])
        for n in (12, 18):
            members = set(sphere(w, n))
            for i in range(n // 2, n + 1):
                v = (i, n - i)
                assert df[w.find(v)] == n and v in members, (n, v)
            for i in range(-(-n // 3), n // 2 + 1):   # ceil(n/3) .. n/2
                v = (3 * i - n, i)
                assert df[w.find(v)] == n and v in members, (n, v)

    _, dt = _timed(1.0, work)
    print(f"ACCEPTANCE 2 PASS (sphere membership, {dt:.2f}s)")


def test_criterion_03_monotonicity_ten_thousand_samples():
    plan = [("line", {}, 60, 1500), ("halfline", {}, 60, 1500),
            ("tree", {"b": 2}, 15, 1000), ("grid2d", {}, 40, 1500),
            ("h_graph", {}, 60, 1500), ("stick", {"m": 5, "h": 2}, 40, 1000),
            ("pendant_line", {}, 40, 1000), ("cylinder", {"m": 6}, 40, 1000)]
    total = 0
    for name, params, radius, trials in plan:
        result = suite_monotone(build(name, params), radius, trials, seed=42)
        assert result.ok, (name, result.violations[:3])
        total += result.checked
    assert total == 10_000, total
    print(f"ACCEPTANCE 3 PASS (monotonicity, {total} samples, 0 violations)")


def _sampled_comparisons(space, radius, zone, schedule, n_rays, n_horos,
                         rng):
    w = materialize_window(space, space.default_base(), radius)
    pa, _ = u_point_assigned(w, schedule, zone)
    far = sphere(w, radius - zone)
    count = 0
    for _ in range(n_rays + n_horos):
        target = far[rng.randrange(len(far))]
        ray = shortest_path(w, target)
        if count < n_rays:
            other, _ = busemann(w, ray, len(ray) - 1, zone)
        else:
            anchors = [ray[t] for t in
                       range(zone + 1, len(ray), max(1, zone // 2))]
            if len(anchors) < 2:
                anchors = ray[-2:]
            other, _ = horofunction(w, anchors, zone)
        for i in pa.zone_indices():
            if pa.report.stable[i] and other.report.stable[i]:
                v = w.vertices[i]
                assert pa.values[i] <= other.values[i] - other.values[0], \
                    (space.generator_id, v)
        count += 1
    return w, pa, count


def test_criterion_04_minimality():
    rng = random.Random(2024)
    total = 0
    for name, params, radius, zone, sched, nr, nh in [
            ("line", {}, 60, 12, range(12, 49, 6), 20, 20),
            ("tree", {"b": 2}, 15, 4, range(3, 12, 2), 40, 40),
            ("h_graph", {}, 60, 12, range(12, 49, 6), 40, 40)]:
        space = build(name, params)
        w, pa, n = _sampled_comparisons(space, radius, zone, sched,
                                        nr, nh, rng)
        total += n
    assert total == 200
    # equality on the line: u_0 = -|x| = min of the two Busemann fields
    lw = materialize_window(build("line"), 0, 60)
    pa, _ = u_point_assigned(lw, range(12, 49, 6), 12)
    bp, _ = busemann(lw, list(range(0, 41)), 40, 12)
    bm, _ = busemann(lw, [-t for t in range(0, 41)], 40, 12)
    for i in pa.zone_indices():
        v = lw.vertices[i]
        assert pa.values[i] == -abs(v) == min(bp.values[i] - bp.values[0],
                                              bm.values[i] - bm.values[0])
    print(f"ACCEPTANCE 4 PASS (minimality, {total} sampled comparisons)")


def test_criterion_05_pseudo_metric_full_verification():
    cases = [
        ("line", {}, 60, list(range(-4, 4)), range(8, 41, 4), 10, 16),
        ("halfline", {}, 60, list(range(0, 8)), range(8, 41, 4), 10, 16),
        ("tree", {"b": 2}, 14,
         [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (0, 0, 0)],
         range(3, 9), 6, 3),
        ("h_graph", {}, 60,
         [(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (1, 1), (2, 2), (0, 2)],
         range(8, 41, 4), 8, 16),
    ]
    for name, params, radius, sample, sched, zone, tail in cases:
        space = build(name, params)
        w = materialize_window(space, space.default_base(), radius)
        fields = point_assigned_family(w, sample, sched, zone, tail)
        rho = rho_matrix(w, sample, sched, zone, tail, fields=fields)
        assert all(all(row) for row in rho.stable), name
        assert not rho.axiom_violations(stable_only=False), name
        for x, y, z in itertools.product(sample, repeat=3):
            assert anti_triangle_check(fields[x], fields[y], z), \
                (name, x, y, z)
        for a, b in itertools.combinations(sample, 2):
            sup, d, _ = base_lipschitz_gap(fields[a], fields[b])
            assert sup <= d, (name, a, b)
        part = equivalence_classes(w, sample, sched, zone, tail,
                                   fields=fields, rho=rho)
        if name == "halfline":
            assert part.blocks == [sorted(sample)]
        if name == "line":
            assert part.blocks == [[v] for v in sorted(sample)]
    print("ACCEPTANCE 5 PASS (pseudo-metric axioms on 4 spaces, 0 "
          "violations)")


def test_criterion_06_busemann_line_difference():
    lw = materialize_window(build("line"), 0, 60)
    bp, _ = busemann(lw, list(range(0, 41)), 40, 12)
    bm, _ = busemann(lw, [-t for t in range(0, 41)], 40, 12)
    for t in range(-10, 11):
        assert bp.value_at(t) - bm.value_at(t) == -2 * t
        assert bp.stable_at(t) and bm.stable_at(t)
    print("ACCEPTANCE 6 PASS (b+ - b- = -2t on the line)")


def test_criterion_07_sublevel_identity_everywhere():
    plan = [("line", {}, 60), ("halfline", {}, 60), ("tree", {"b": 2}, 15),
            ("grid2d", {}, 40), ("h_graph", {}, 60),
            ("stick", {"m": 5, "h": 2}, 40), ("pendant_line", {}, 40),
            ("cylinder", {"m": 6}, 40)]
    checked = 0
    for name, params, radius in plan:
        space = build(name, params)
        w = materialize_window(space, space.default_base(), radius)
        zone = max(3, radius // 6)
        hi = radius - zone
        pa, _ = u_point_assigned(w, range(max(2, hi // 5), hi + 1,
                                          max(1, hi // 5)), zone)
        far = sphere(w, radius - zone)[0]
        ray = shortest_path(w, far)
        bf, _ = busemann(w, ray, len(ray) - 1, zone)
        # general set sequences need d(base, H_n) + 2*zone <= R for
        # exactness, a stricter margin than single-anchor fields
        t_hi = min(len(ray), radius - 2 * zone + 1)
        anchors = [(ray[t],) for t in range(zone + 1, t_hi,
                                            max(1, zone // 2))]
        if len(anchors) < 2:
            anchors = [(ray[-2],), (ray[-1],)]
        shifts = [w.dist_from_base[w.find(h[0])] for h in anchors]
        sf, _ = dl_from_sets(w, anchors, shifts, zone)
        for fld in (pa, bf, sf):
            report = gromov_check(fld, t_samples(fld, count=5))
            assert report.ok, (name, fld.kind, report.violations[:3])
            checked += sum(report.checked.values())
    assert checked > 0
    print(f"ACCEPTANCE 7 PASS (sublevel identity, {checked} exact checks)")


def test_criterion_08_corays_everywhere():
    plan = [("line", {}, 60, 10, range(12, 49, 6)),
            ("tree", {"b": 2}, 15, 5, range(3, 11, 2)),
            ("h_graph", {}, 60, 10, range(12, 49, 6))]
    traced = 0
    for name, params, radius, zone, sched in plan:
        space = build(name, params)
        w = materialize_window(space, space.default_base(), radius)
        fld, _ = u_point_assigned(w, sched, zone)
        for i in fld.zone_indices():
            v = w.vertices[i]
            trace = trace_corays(fld, v, max_paths=8)
            assert trace.paths, (name, v)
            for p in trace.paths:
                assert verify_gradient(p, fld), (name, v)
                traced += 1
            report = representation_check(fld, v, trace.paths)
            assert report.ok and report.equality_achieved, (name, v)
    print(f"ACCEPTANCE 8 PASS (co-rays, {traced} traced and verified)")


def test_criterion_09_gh_sandwich_and_roundtrip():
    def metric_from_weights(n, weights):
        d = [[0] * n for _ in range(n)]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = weights[k]
                k += 1
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    if d[i][m] + d[m][j] < d[i][j]:
                        d[i][j] = d[i][m] + d[m][j]
        return FiniteMetricSpace(n, tuple(map(tuple, d)), 0)

    def work():
        rng = random.Random(99)
        small_pairs = 0
        for _ in range(50):
            nx, ny = rng.randint(1, 6), rng.randint(1, 6)
            X = metric_from_weights(nx, [rng.randint(1, 9) for _ in
                                         range(nx * (nx - 1) // 2)])
            Y = metric_from_weights(ny, [rng.randint(1, 9) for _ in
                                         range(ny * (ny - 1) // 2)])
            corr = min_distortion_correspondence(X, Y)
            assert corr.proved_optimal
            lo, up, _ = gh_bounds(X, Y)
            assert lo == corr.distortion / 2 and up == corr.distortion
            assert lo <= up
            if nx <= 3 and ny <= 3:
                assert brute_force_min_distortion(X, Y).distortion == \
                    corr.distortion
                small_pairs += 1
            iso = build_eps_isometry(corr, X, Y)
            eps = max(iso.dis, iso.net_eps, Fraction(1, 2))
            back = corr_from_isometry(iso, X, Y, eps)
            assert back.distortion <= 3 * eps
        assert small_pairs > 0
        return small_pairs

    small_pairs, dt = _timed(60.0, work)
    print(f"ACCEPTANCE 9 PASS (GH sandwich, 50 pairs, {small_pairs} "
          f"brute-force cross-checks, {dt:.2f}s)")


def test_criterion_10_eps_isometry_field_deviation():
    def work():
        pw = materialize_window(build("pendant_line"), (0, 0), 60)
        lw = materialize_window(build("line"), 0, 60)
        fx, _ = u_point_assigned(pw, range(12, 49, 4), 12, tail=20)
        fy, _ = u_point_assigned(lw, range(12, 49, 4), 12, tail=20)
        return pa_gh_experiment(fx, fy, MAPPINGS["nearest_spine"], 1)

    report, dt = _timed(10.0, work)
    assert report.conclusive, report.unstable[:5]
    assert report.max_abs_deviation <= 8      # |u_x0 - u_y0 o f| <= 8 eps
    assert report.max_one_sided <= 4          # one-sided <= 4 eps
    print(f"ACCEPTANCE 10 PASS (field deviation {report.max_abs_deviation} "
          f"<= 8, one-sided {report.max_one_sided} <= 4, {dt:.2f}s)")


def test_criterion_11_million_vertex_performance():
    def work():
        w = materialize_window(build("grid2d"), (0, 0), 707)
        df = _bfs_from_indices(w, [0])
        return w, df

    (w, df), dt = _timed(10.0, work)
    assert len(w.vertices) >= 1_000_000
    assert df == w.dist_from_base
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 2048, f"peak RSS {peak_mb:.0f} MB"
    print(f"ACCEPTANCE 11 PASS ({len(w.vertices)} vertices, {dt:.2f}s, "
          f"peak {peak_mb:.0f} MB)")
