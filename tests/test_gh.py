"""Pointed GH machinery: correspondences, bounds, and certificates.

The key soundness facts are checked against independent oracles: the
branch-and-bound reduction against a full-relation brute force, and the
sandwich bounds against a grid search over admissible metrics on the
disjoint union (the definition itself), on tiny instances.  Past
brute-force sizes the search is checked against a plain DFS spec and by
metamorphic relations.
"""

import dataclasses
import itertools
import json
import math
import pathlib
import re
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from dlscape import (DomainError, EpsIsometry, FiniteMetricSpace,
                     MetricError, build, brute_force_min_distortion,
                     build_eps_isometry, corr_from_isometry, gh_bounds,
                     materialize_window, min_distortion_correspondence,
                     pa_gh_experiment, u_point_assigned)
from dlscape import gh
from dlscape.gh import (NODE_CAP, MAPPINGS, Correspondence, distortion,
                        map_distortion, map_net_eps)

DATA = pathlib.Path(__file__).parent / "data"


def metric_from_weights(n, weights, base=0):
    """Shortest-path completion of a weighted complete graph: always a
    metric, so random instances are cheap to generate."""
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
    return FiniteMetricSpace(n, tuple(map(tuple, d)), base)


def rand_space(rng, n_max=6, n_min=1, w_max=9):
    n = rng.randint(n_min, n_max)
    weights = [rng.randint(1, w_max) for _ in range(n * (n - 1) // 2)]
    return metric_from_weights(n, weights)


def test_metric_validation():
    with pytest.raises(MetricError):
        FiniteMetricSpace(2, ((0, 1), (2, 0)), 0)            # asymmetric
    with pytest.raises(MetricError):
        FiniteMetricSpace(2, ((1, 1), (1, 0)), 0)            # diagonal
    with pytest.raises(MetricError):
        FiniteMetricSpace(2, ((0, 0), (0, 0)), 0)            # zero off-diag
    with pytest.raises(MetricError) as exc:
        FiniteMetricSpace(3, ((0, 1, 9), (1, 0, 1), (9, 1, 0)), 0)
    assert exc.value.witness is not None                     # triangle
    # What from_json refuses: a float or bool scale, a float or bool
    # entry, a bool n or base.  A float scale used to give float distances.
    unit = ((0, 1), (1, 0))
    for args in [(2, unit, 0, 0.5), (2, unit, 0, True),
                 (2, ((0, 1.0), (1.0, 0)), 0), (2, ((0, True), (True, 0)), 0),
                 (True, ((0,),), 0), (2, unit, False)]:
        with pytest.raises(MetricError):
            FiniteMetricSpace(*args)
    two = FiniteMetricSpace(2, unit, 0, 2)                   # int scale
    assert two.scale == Fraction(2) and type(two.scale) is Fraction
    assert two.real_matrix()[0][1] == Fraction(1, 2)


def _metric_error(d):
    try:
        FiniteMetricSpace(len(d), d, 0)
    except MetricError as exc:
        return str(exc), exc.witness
    return None


@pytest.mark.parametrize("d,want", [
    (((0, 1, 9), (1, 0, 1), (9, 1, 0)),
     ("triangle inequality fails", (0, 1, 2))),
    (((0, 1, 2, 2), (1, 0, 1, 2), (2, 1, 0, 9), (2, 2, 9, 0)),
     ("triangle inequality fails", (2, 0, 3))),
    (((0, 5, 1, 1), (5, 0, 9, 1), (1, 9, 0, 1), (1, 1, 1, 0)),
     ("triangle inequality fails", (0, 3, 1))),
    # Row 0 fails the triangle test before the asymmetric
    # d[1][2] != d[2][1] is reached in row 1.
    (((0, 1, 9), (1, 0, 1), (9, 2, 0)),
     ("triangle inequality fails", (0, 1, 2))),
    (((0, 2, 3), (2, 0, 1), (3, 4, 0)), ("asymmetric entry", (1, 2, 1))),
    # A zero off-diagonal d[1][2] breaks the triangle at (0, 1, 2) first.
    (((0, 1, 2), (1, 0, 0), (2, 0, 0)),
     ("triangle inequality fails", (0, 1, 2))),
    (((0, 1, 1), (1, 0, 0), (1, 0, 0)),
     ("non-positive off-diagonal", (1, 2, 1))),
    (((0, 1), (1, 1)), ("nonzero diagonal", (1, 1, 1)))],
    ids=["k1", "k0_row2", "k3_row0", "asym_after_row", "asym",
         "zero_breaks_triangle", "zero", "diagonal"])
def test_metric_check_names_the_first_failure(d, want):
    """The axioms are tested in row order (i, then j, then k), so the
    first failure is the one named, with its witness."""
    assert _metric_error(d) == want


def test_from_json_malformed():
    with pytest.raises(DomainError):
        FiniteMetricSpace.from_json({"n": 2})


def test_two_point_example():
    X = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    Y = FiniteMetricSpace(2, ((0, 2), (2, 0)), 0)
    corr = min_distortion_correspondence(X, Y)
    assert corr.distortion == 1 and corr.proved_optimal
    lo, up, _ = gh_bounds(X, Y)
    assert (lo, up) == (Fraction(1, 2), Fraction(1))


def test_identical_spaces_distortion_zero():
    Z = metric_from_weights(4, [1, 2, 3, 2, 1, 2])
    corr = min_distortion_correspondence(Z, Z)
    assert corr.distortion == 0


def test_reduction_equals_brute_force_exhaustive():
    """All pointed pairs with |X|, |Y| <= 3 and small integer distances."""
    spaces = [FiniteMetricSpace(1, ((0,),), 0)]
    for a in (1, 2):
        spaces.append(FiniteMetricSpace(2, ((0, a), (a, 0)), 0))
    for a, b, c in itertools.product((1, 2), repeat=3):
        if a <= b + c and b <= a + c and c <= a + b:
            spaces.append(FiniteMetricSpace(
                3, ((0, a, b), (a, 0, c), (b, c, 0)), 0))
    for X, Y in itertools.product(spaces, repeat=2):
        fast = min_distortion_correspondence(X, Y)
        slow = brute_force_min_distortion(X, Y)
        assert fast.proved_optimal
        assert fast.distortion == slow.distortion, (X, Y)


def test_reduction_equals_brute_force_random():
    rng = random.Random(11)
    for _ in range(40):
        X, Y = rand_space(rng, 3), rand_space(rng, 3)
        assert min_distortion_correspondence(X, Y).distortion == \
            brute_force_min_distortion(X, Y).distortion


def pointed_gh_grid(X, Y, step=Fraction(1, 2)):
    """Grid search over admissible metrics on the disjoint union:
    min of d_H(X, Y) + d(base_X, base_Y) with cross-distances on a
    half-integer grid.  An upper bound on the true pointed GH that the
    known optimal-correspondence construction always attains."""
    dX, dY = X.real_matrix(), Y.real_matrix()
    cap = max(max(r) for r in dX) + max(max(r) for r in dY) + \
        min_distortion_correspondence(X, Y).distortion + 1
    # include 0: the infimum ranges over the closure where distinct points
    # of the union may coincide (pseudometric limit of admissible metrics)
    values = [step * k for k in range(0, int(cap / step) + 1)]
    cells = [(i, j) for i in range(X.n) for j in range(Y.n)]
    best = [None]

    def feasible(c, i, j, v):
        for i2 in range(X.n):
            if i2 != i and (i2, j) in c:
                w = c[(i2, j)]
                if abs(v - w) > dX[i][i2] or dX[i][i2] > v + w:
                    return False
        for j2 in range(Y.n):
            if j2 != j and (i, j2) in c:
                w = c[(i, j2)]
                if abs(v - w) > dY[j][j2] or dY[j][j2] > v + w:
                    return False
        return True

    def rec(k, c):
        if k == len(cells):
            haus = max(
                max(min(c[(i, j)] for j in range(Y.n))
                    for i in range(X.n)),
                max(min(c[(i, j)] for i in range(X.n))
                    for j in range(Y.n)))
            total = haus + c[(X.base, Y.base)]
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        i, j = cells[k]
        for v in values:
            if best[0] is not None and (i, j) == (X.base, Y.base) \
                    and v >= best[0]:
                break
            if feasible(c, i, j, v):
                c[(i, j)] = v
                rec(k + 1, c)
                del c[(i, j)]

    rec(0, {})
    return best[0]


def test_sandwich_against_definition_oracle():
    rng = random.Random(5)
    cases = [(rand_space(rng, 2), rand_space(rng, 2)) for _ in range(6)]
    cases += [(rand_space(rng, 3), rand_space(rng, 2)) for _ in range(3)]
    cases.append((FiniteMetricSpace(2, ((0, 1), (1, 0)), 0),
                  FiniteMetricSpace(2, ((0, 2), (2, 0)), 0)))
    for X, Y in cases:
        lo, up, _ = gh_bounds(X, Y)
        g = pointed_gh_grid(X, Y)
        # g is an upper bound on the true pointed GH; the sandwich says
        # the true value lies in [lo, up], so g >= lo and g <= up must
        # both hold (the correspondence construction realizes <= up on
        # the half-integer grid).
        assert lo <= g <= up, (X, Y, lo, g, up)


def test_eps_isometry_from_correspondence():
    rng = random.Random(3)
    for _ in range(100):
        X, Y = rand_space(rng, 4), rand_space(rng, 4)
        corr = min_distortion_correspondence(X, Y)
        iso = build_eps_isometry(corr, X, Y)
        assert iso.mapping[X.base] == Y.base
        assert iso.dis <= corr.distortion
        assert iso.net_eps <= corr.distortion


def test_isometry_roundtrip_three_eps():
    rng = random.Random(4)
    for _ in range(100):
        X, Y = rand_space(rng, 4), rand_space(rng, 4)
        corr = min_distortion_correspondence(X, Y)
        iso = build_eps_isometry(corr, X, Y)
        eps = max(iso.dis, iso.net_eps, Fraction(1, 2))
        back = corr_from_isometry(iso, X, Y, eps)
        assert back.distortion <= 3 * eps


def test_corr_from_isometry_precondition():
    X = FiniteMetricSpace(2, ((0, 4), (4, 0)), 0)
    corr = min_distortion_correspondence(X, X)
    iso = build_eps_isometry(corr, X, X)
    with pytest.raises(DomainError):
        corr_from_isometry(iso, X, X, Fraction(-1))


def test_correspondence_validate():
    """``validate`` and ``build_eps_isometry`` refuse pairs that miss the
    base pair or a point of either space, whatever distortion is stored."""
    X = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    bad = Correspondence(frozenset({(0, 0)}), Fraction(0))
    with pytest.raises(DomainError):
        bad.validate(X, X)
    X = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    Y = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    for pairs, named in [
            ({(1, 0), (0, 1), (2, 1)}, "does not relate the bases"),
            ({(0, 0), (1, 0), (2, 0)}, "does not cover both spaces"),
            ({(0, 0), (1, 1)}, "does not cover both spaces")]:
        bad = Correspondence(frozenset(pairs), distortion(pairs, X, Y))
        with pytest.raises(DomainError, match=named):
            bad.validate(X, Y)
        with pytest.raises(DomainError, match=named):
            build_eps_isometry(bad, X, Y)


def test_pointed_checks_refuse_non_index_pairs_alike():
    """1.0 == True == 1, so a set of indices took (1.0, 1) or (True, 1) for
    (1, 1), and ``build_eps_isometry`` returned the map (0, 1, 1) where
    ``validate`` refused the pairs.  Both refuse them with one error."""
    X = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    Y = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    for odd in (1.0, True):
        bad = Correspondence(frozenset({(0, 0), (odd, 1), (2, 1)}),
                             Fraction(1))
        with pytest.raises(DomainError) as validated:
            bad.validate(X, Y)
        with pytest.raises(DomainError) as built:
            build_eps_isometry(bad, X, Y)
        assert str(validated.value) == str(built.value)
        assert str(built.value).startswith(f"pair ({odd!r}, 1) is not")


def test_eps_isometry_reads_no_stored_distortion():
    """A correspondence whose stored distortion is wrong gives the same
    map, dis and net radius as one with the true distortion: the map's
    own numbers are computed from the map."""
    rng = random.Random(26)
    for _ in range(60):
        X, Y = _scaled_space(rng, 5), _scaled_space(rng, 5)
        corr = min_distortion_correspondence(X, Y)
        want = build_eps_isometry(corr, X, Y)
        for wrong in (corr.distortion + 1, Fraction(0), Fraction(-3, 7)):
            if wrong == corr.distortion:
                continue
            bad = dataclasses.replace(corr, distortion=wrong)
            assert build_eps_isometry(bad, X, Y) == want


@pytest.mark.parametrize("pairs,named", [
    ([(0, 0), (-1, 0)], "pair (-1, 0) "),
    ([(0, 0), (True, 0)], "pair (True, 0) "),
    ([(0, 0), (0, 7)], "pair (0, 7) "),
    ([(0, 7)], "pair (0, 7) "),
    ([(3, 0)], "pair (3, 0) "),
    ([(0, 0), (0, 1.0)], "pair (0, 1.0) "),
    ([(0, 0, 0)], "pair (0, 0, 0) "),
    ([[0, 0]], "pair [0, 0] ")],
    ids=["negative", "bool", "past_y", "lone_past_y", "past_x", "float",
         "triple", "list"])
def test_distortion_refuses_a_pair_of_no_points(pairs, named):
    """-1 used to be read as X's point 2 (giving 2, not 0), True as point
    1, and (0, 7) raised IndexError; with only distinct pairs compared, a
    lone bad pair would give 0.  Each is refused by name."""
    X = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    Y = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    with pytest.raises(DomainError, match=re.escape(named)):
        distortion(pairs, X, Y)


@pytest.mark.parametrize("mapping,named", [
    ((0, 3), "mapping entry 3 "), ((0, -2), "mapping entry -2 "),
    ((0, True), "mapping entry True "), ((0,), "mapping of length 1 ")],
    ids=["past_n", "negative", "bool", "too_short"])
def test_corr_from_isometry_refuses_a_bad_mapping(mapping, named):
    """Past the end and a short mapping used to raise IndexError, -2 was
    read as Y's point 1 and True as point 1; each is now refused by name."""
    X = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    Y = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    iso = EpsIsometry(mapping, Fraction(0), Fraction(1))
    with pytest.raises(DomainError, match=re.escape(named)):
        corr_from_isometry(iso, X, Y, 1)


@pytest.mark.parametrize("mapping,named", [
    ((0, -2), "mapping entry -2 "), ((0, True), "mapping entry True "),
    ((0, 5), "mapping entry 5 "), ((), "mapping is empty")],
    ids=["negative", "bool", "past_n", "empty"])
def test_map_readers_refuse_a_bad_entry(mapping, named):
    """-2 used to be read as Y's point 1, True as point 1, 5 raised a bare
    IndexError and map_net_eps raised one from min() on an empty mapping;
    each is refused by name, as by corr_from_isometry."""
    X = FiniteMetricSpace(2, ((0, 1), (1, 0)), 0)
    Y = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    named = re.escape(named)
    with pytest.raises(DomainError, match=named):
        map_distortion(mapping, X, Y)
    with pytest.raises(DomainError, match=named):
        map_net_eps(mapping, Y)


@given(weights=st.lists(st.integers(1, 9), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_distortion_monotone_under_inclusion(weights):
    X = metric_from_weights(4, weights)
    Y = metric_from_weights(4, list(reversed(weights)))
    full = {(i, j) for i in range(4) for j in range(4)}
    sub = {(i, i) for i in range(4)}
    assert distortion(sub, X, Y) <= distortion(full, X, Y)


def test_experiment_identity_zero_deviation(h_field):
    report = pa_gh_experiment(h_field, h_field, MAPPINGS["identity"], 0)
    assert report.max_abs_deviation == 0 and report.max_one_sided == 0
    assert report.abs_bound_ok and report.one_sided_bound_ok


def test_experiment_nearest_spine():
    pw = materialize_window(build("pendant_line"), (0, 0), 40)
    lw = materialize_window(build("line"), 0, 40)
    fx, _ = u_point_assigned(pw, range(8, 33, 4), 8, tail=16)
    fy, _ = u_point_assigned(lw, range(8, 33, 4), 8, tail=16)
    report = pa_gh_experiment(fx, fy, MAPPINGS["nearest_spine"], 1)
    assert report.conclusive
    assert report.max_abs_deviation <= 8
    assert report.max_one_sided <= 4


def test_experiment_map_out_of_zone(line_field):
    hw = materialize_window(build("halfline"), 0, 60)
    fy, _ = u_point_assigned(hw, range(8, 49, 8), 10)
    with pytest.raises(DomainError):
        pa_gh_experiment(line_field, fy, MAPPINGS["identity"], 1)


def spec_search_union(X, Y, node_cap=NODE_CAP):
    """The plain DFS the integer search replaced, kept as its spec: slots
    in fixed order, candidates by index, Fraction gaps, a node pruned once
    its distortion reaches the best leaf, and a leaf kept only on a strict
    improvement.  Returns (pairs, distortion, proved)."""
    dX, dY = X.real_matrix(), Y.real_matrix()
    slots = [("f", i) for i in range(X.n) if i != X.base] + \
            [("g", j) for j in range(Y.n) if j != Y.base]
    best_pairs, best_dis = None, None
    nodes = 0
    stack = [([(X.base, Y.base)], Fraction(0), 0)]
    while stack:
        pairs, dis, depth = stack.pop()
        nodes += 1
        if nodes > node_cap:
            return best_pairs, best_dis, False
        if best_dis is not None and dis >= best_dis:
            continue
        if depth == len(slots):
            best_pairs, best_dis = pairs, dis
            continue
        side, k = slots[depth]
        children = []
        for t in range(Y.n if side == "f" else X.n):
            p = (k, t) if side == "f" else (t, k)
            new_dis = max([dis] + [abs(dX[p[0]][q[0]] - dY[p[1]][q[1]])
                                   for q in pairs])
            if best_dis is None or new_dis < best_dis:
                children.append((pairs + [p], new_dis, depth + 1))
        stack.extend(reversed(children))
    return best_pairs, best_dis, True


def _scaled_space(rng, n_max):
    X = rand_space(rng, n_max)
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    return FiniteMetricSpace(X.n, X.dist, rng.randrange(X.n), scale)


def test_search_matches_the_plain_dfs_spec():
    """Same pairs, distortion and flag as the spec on random pairs of up to
    5 points, with random bases and scales."""
    rng = random.Random(12)
    for _ in range(150):
        X, Y = _scaled_space(rng, 5), _scaled_space(rng, 5)
        pairs, dis, proved = spec_search_union(X, Y)
        assert proved
        corr = min_distortion_correspondence(X, Y)
        assert (sorted(corr.pairs), corr.distortion, corr.proved_optimal) \
            == (sorted(set(pairs)), dis, proved), (X, Y)


def _relabel(X, perm):
    """X with point i renamed perm[i]."""
    d = [[0] * X.n for _ in range(X.n)]
    for i in range(X.n):
        for j in range(X.n):
            d[perm[i]][perm[j]] = X.dist[i][j]
    return FiniteMetricSpace(X.n, tuple(map(tuple, d)), perm[X.base],
                             X.scale)


def _times(X, k, scale=None):
    return FiniteMetricSpace(X.n, tuple(tuple(k * e for e in row)
                                        for row in X.dist), X.base,
                             X.scale if scale is None else scale)


def _d_star(X, Y):
    corr = min_distortion_correspondence(X, Y)
    assert corr.proved_optimal
    return corr.distortion


def _big_pairs(seed, count=8, past_eight=3):
    """``count`` pairs of 6-8 points with weights in 1..6, then
    ``past_eight`` pairs of 9-16 points with weights in 1..9: sizes where
    neither brute force nor the plain DFS spec can answer."""
    rng = random.Random(seed)
    return [(rand_space(rng, 8, 6, 6), rand_space(rng, 8, 6, 6))
            for _ in range(count)] + \
        [(rand_space(rng, 16, 9), rand_space(rng, 16, 9))
         for _ in range(past_eight)]


def test_relabeling_non_base_points_keeps_d_star():
    rng = random.Random(21)
    for X, Y in _big_pairs(21):
        perm = list(range(X.n))
        rest = perm[1:]
        rng.shuffle(rest)
        X2 = _relabel(X, [0] + rest)
        perm = list(range(1, Y.n))
        rng.shuffle(perm)
        Y2 = _relabel(Y, [0] + perm)
        assert _d_star(X2, Y2) == _d_star(X, Y), (X, Y)


def test_swapping_the_spaces_keeps_d_star():
    for X, Y in _big_pairs(22):
        assert _d_star(Y, X) == _d_star(X, Y), (X, Y)


def test_scaling_both_matrices_scales_d_star():
    for k, (X, Y) in zip(itertools.cycle((2, 3, 7)), _big_pairs(23)):
        assert _d_star(_times(X, k), _times(Y, k)) == k * _d_star(X, Y)


def test_a_scale_is_a_matrix_rescaled_by_hand():
    """X at scale p/q reads entry * q / p: multiplying X's matrix by q and
    Y's by p, both at scale 1, multiplies every distance and so D* by p."""
    rng = random.Random(24)
    for X, Y in _big_pairs(24):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        scaled = _times(X, 1, Fraction(p, q))
        assert _d_star(_times(X, q), _times(Y, p)) == \
            p * _d_star(scaled, Y), (X, Y, p, q)


def test_a_hard_eight_point_pair_is_proved():
    """Pair 7 of 30 pairs of 8-point spaces (random.Random(11); for each
    pair X then Y, 28 weights in 1..6 closed under shortest paths, base
    0) comes back proved within NODE_CAP.  The plain DFS spends its whole
    NODE_CAP on it and leaves it unproved; with no cap it returns the
    same correspondence, after minutes."""
    rng = random.Random(11)
    pairs = [tuple(metric_from_weights(8, [rng.randint(1, 6)
                                           for _ in range(28)])
                   for _ in "xy") for _ in range(30)]
    X, Y = (FiniteMetricSpace.from_json(json.loads(
        (DATA / f"gh_8pt_{side}.json").read_text())) for side in "xy")
    assert (X, Y) == pairs[7]
    corr = min_distortion_correspondence(X, Y)
    assert corr.proved_optimal and corr.distortion == 3
    assert sorted(corr.pairs) == [
        (0, 0), (0, 1), (0, 3), (0, 7), (1, 0), (1, 2), (2, 1), (3, 1),
        (3, 6), (4, 3), (4, 5), (5, 1), (6, 4), (7, 0)]


def test_an_unproved_search_claims_no_lower_bound(monkeypatch):
    """Cut at 40 nodes, the search on the 12-point pair (D* = 4) returns
    distortion 7, unproved.  Half of it is no lower bound, as it exceeds
    D*/2 = 2, so ``gh_bounds`` gives 0, the only one it proved."""
    X, Y = (FiniteMetricSpace.from_json(json.loads(
        (DATA / f"gh_12pt_{side}.json").read_text())) for side in "xy")
    monkeypatch.setattr(gh, "NODE_CAP", 40)
    lo, up, corr = gh_bounds(X, Y)
    assert not corr.proved_optimal and up == corr.distortion == 7
    assert lo == 0 <= Fraction(4, 2)


# The Fraction bodies the integer certification replaced, kept as its spec.
# ``spec_distortion`` also compares each pair with itself, as
# ``distortion`` did before it compared only distinct pairs.

def spec_distortion(pairs, X, Y):
    pairs = sorted(pairs)
    dX, dY = X.real_matrix(), Y.real_matrix()
    best = Fraction(0)
    for (i1, j1), (i2, j2) in \
            itertools.combinations_with_replacement(pairs, 2):
        gap = abs(dX[i1][i2] - dY[j1][j2])
        if gap > best:
            best = gap
    return best


def spec_map_distortion(mapping, X, Y):
    dX, dY = X.real_matrix(), Y.real_matrix()
    return max((abs(dX[i][k] - dY[mapping[i]][mapping[k]])
                for i in range(X.n) for k in range(i, X.n)),
               default=Fraction(0))


def spec_map_net_eps(mapping, Y):
    image = set(mapping)
    return max(min(row[m] for m in image) for row in Y.real_matrix())


def spec_corr_from_isometry(iso, X, Y, eps):
    """(pairs, distortion), or None where the map is no eps-isometry."""
    if iso.dis > eps or iso.net_eps > eps:
        return None
    dY = Y.real_matrix()
    pairs = {(i, j) for i in range(X.n) for j in range(Y.n)
             if dY[iso.mapping[i]][j] <= eps}
    pairs.add((X.base, Y.base))
    return pairs, spec_distortion(pairs, X, Y)


def _back(iso, X, Y, eps):
    try:
        back = corr_from_isometry(iso, X, Y, eps)
    except DomainError:
        return None
    return set(back.pairs), back.distortion


def test_certification_matches_the_fraction_spec():
    """Same mapping, dis, net_eps, back pairs and back distortion as the
    Fraction spec on random pairs with different scales.  The eps values
    are max(dis, net_eps, 1/2), the smallest d_Y(f(x), y) at or above
    max(dis, net_eps), where the pair sits on the <= boundary, and one
    just below max(dis, net_eps), which both refuse."""
    rng = random.Random(16)
    on_boundary = 0
    for _ in range(200):
        X, Y = _scaled_space(rng, 5), _scaled_space(rng, 5)
        corr = min_distortion_correspondence(X, Y)
        iso = build_eps_isometry(corr, X, Y)
        mapping = tuple(Y.base if i == X.base else
                        min(j for a, j in corr.pairs if a == i)
                        for i in range(X.n))
        assert (iso.mapping, iso.dis, iso.net_eps) == \
            (mapping, spec_map_distortion(mapping, X, Y),
             spec_map_net_eps(mapping, Y)), (X, Y)
        f = [rng.randrange(Y.n) for _ in range(X.n)]
        assert map_distortion(f, X, Y) == spec_map_distortion(f, X, Y)
        assert map_net_eps(f, Y) == spec_map_net_eps(f, Y)
        least = max(iso.dis, iso.net_eps)
        eps_values = [max(least, Fraction(1, 2))]
        reached = [d for m in mapping for d in Y.real_matrix()[m]
                   if d >= least]
        if reached:
            eps_values.append(min(reached))
            on_boundary += 1
        if least > 0:
            eps_values.append(least - Fraction(1, 97))
        for eps in eps_values:
            assert _back(iso, X, Y, eps) == \
                spec_corr_from_isometry(iso, X, Y, eps), (X, Y, eps)
    assert on_boundary >= 100


def test_distortion_matches_the_per_pair_body():
    """``distortion`` through ``real_matrix``, over distinct pairs only,
    equals the per-pair real() body over every pair of pairs on random
    relations between scaled spaces of up to 6 points, given as a list
    or as an iterator, on every single pair, and on no pair."""
    rng = random.Random(17)
    for _ in range(200):
        X, Y = _scaled_space(rng, 6), _scaled_space(rng, 6)
        every = [(i, j) for i in range(X.n) for j in range(Y.n)]
        pairs = rng.sample(every, rng.randint(1, len(every)))
        assert distortion(pairs, X, Y) == spec_distortion(pairs, X, Y) == \
            distortion(iter(pairs), X, Y)
        for pair in every:
            assert distortion([pair], X, Y) == \
                spec_distortion([pair], X, Y) == 0
        assert distortion((), X, Y) == 0


def test_validate_rejects_a_distortion_off_by_one_unit():
    """The Fraction re-check tells apart distortions one step of the
    search's integer unit apart, either way."""
    rng = random.Random(18)
    for _ in range(50):
        X, Y = _scaled_space(rng, 5), _scaled_space(rng, 5)
        corr = min_distortion_correspondence(X, Y)
        step = Fraction(1, math.lcm(X.scale.numerator, Y.scale.numerator))
        for off in (step, -step):
            bad = Correspondence(corr.pairs, corr.distortion + off)
            with pytest.raises(DomainError, match="stored distortion"):
                bad.validate(X, Y)


# The real-unit matrix: built once per space, on first read, and held
# outside the fields.

def _count_builds(monkeypatch):
    """The ``dist`` of each real-unit matrix built from here on."""
    built = []
    real_rows = gh._real_rows

    def counting(dist, scale):
        built.append(dist)
        return real_rows(dist, scale)

    monkeypatch.setattr(gh, "_real_rows", counting)
    return built


def _count_distortions(monkeypatch):
    """The pairs of each Fraction re-check run from here on."""
    ran = []
    plain = gh.distortion

    def counting(pairs, X, Y):
        ran.append(pairs)
        return plain(pairs, X, Y)

    monkeypatch.setattr(gh, "distortion", counting)
    return ran


def test_a_gh_job_builds_one_matrix_per_space(monkeypatch):
    """The CLI's gh job re-checks in Fraction arithmetic only the
    correspondence ``gh_bounds`` makes, and the back correspondence adds
    its own re-check: one ``distortion`` run, then two (three before
    ``build_eps_isometry`` stopped re-checking the correspondence it
    reads).  Each space's matrix is built once (six before the matrix
    was held)."""
    rng = random.Random(19)
    for _ in range(20):
        X, Y = _scaled_space(rng, 5), _scaled_space(rng, 5)
        X, Y = (FiniteMetricSpace.from_json(Z.to_json()) for Z in (X, Y))
        built = _count_builds(monkeypatch)
        ran = _count_distortions(monkeypatch)
        _, _, corr = gh_bounds(X, Y)
        iso = build_eps_isometry(corr, X, Y)
        assert ran == [corr.pairs]
        back = corr_from_isometry(iso, X, Y, max(iso.dis, iso.net_eps))
        assert ran == [corr.pairs, back.pairs]
        assert built == [X.dist, Y.dist]
        assert X.real_matrix() is X.real_matrix()


def test_real_rows_is_each_entry_over_the_scale():
    """One Fraction per distinct entry, shared by its cells, equals
    ``Fraction(e) / scale`` cell by cell, at integer and fractional
    scales, on matrices that repeat entries."""
    rng = random.Random(27)
    for _ in range(40):
        Z = rand_space(rng, 6, w_max=4)
        for scale in (Fraction(1), Fraction(3), Fraction(2, 5),
                      Fraction(rng.randint(1, 9), rng.randint(1, 9))):
            got = gh._real_rows(Z.dist, scale)
            assert len(got) == Z.n
            for row, want in zip(got, Z.dist):
                assert type(row) is tuple and len(row) == Z.n
                for a, e in zip(row, want):
                    assert type(a) is Fraction and a == Fraction(e) / scale


def test_brute_force_builds_one_matrix_per_space(monkeypatch):
    """322 builds for this 3 x 3 pair before the matrix was held: two per
    covering mask."""
    X = FiniteMetricSpace(3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0)
    Y = FiniteMetricSpace(3, ((0, 2, 3), (2, 0, 2), (3, 2, 0)), 1,
                          Fraction(1, 2))
    built = _count_builds(monkeypatch)
    assert brute_force_min_distortion(X, Y).distortion == \
        min_distortion_correspondence(X, Y).distortion
    assert built == [X.dist, Y.dist]


def test_a_held_matrix_leaves_eq_hash_and_repr():
    args = (3, ((0, 2, 3), (2, 0, 1), (3, 1, 0)), 1, Fraction(3, 2))
    X, twin = FiniteMetricSpace(*args), FiniteMetricSpace(*args)
    before = (hash(X), repr(X))
    X.real_matrix()
    assert X == twin and twin == X
    assert (hash(X), repr(X)) == before == (hash(twin), repr(twin))
    assert [f.name for f in dataclasses.fields(X)] == \
        ["n", "dist", "base", "scale"]
    assert X.real_matrix() == ((0, Fraction(4, 3), 2),
                               (Fraction(4, 3), 0, Fraction(2, 3)),
                               (2, Fraction(2, 3), 0))


def test_replace_builds_the_new_scales_matrix():
    X = FiniteMetricSpace(2, ((0, 3), (3, 0)), 0)
    assert X.real_matrix()[0][1] == 3
    half = dataclasses.replace(X, scale=Fraction(1, 2))
    assert half.real_matrix() == ((0, 6), (6, 0))
    assert X.real_matrix() == ((0, 3), (3, 0))


def test_a_space_keeps_its_values_when_the_callers_list_changes():
    """A list matrix used to be kept as given: changing it later changed
    the space, and hash raised TypeError."""
    rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    X = FiniteMetricSpace(3, rows, 0)
    rows[0][2] = rows[2][0] = 5
    rows[1] = [9, 9, 9]
    assert X.dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert X.real_matrix()[0][2] == 2 and X.real_matrix()[1][0] == 1
    assert hash(X) == hash(FiniteMetricSpace(3, X.dist, 0))


def test_spaces_of_one_size_hold_their_own_matrices():
    rng = random.Random(20)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            Z = metric_from_weights(n, [rng.randint(1, 9)
                                        for _ in range(n * (n - 1) // 2)])
            Z = FiniteMetricSpace(n, Z.dist, 0,
                                  Fraction(rng.randint(1, 4),
                                           rng.randint(1, 4)))
            assert Z.real_matrix() == tuple(
                tuple(Fraction(e) / Z.scale for e in row) for row in Z.dist)
