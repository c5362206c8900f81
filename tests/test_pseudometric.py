"""The pseudo-metric rho, anti-triangle, base-Lipschitz, and classes."""

import itertools

import pytest
from fractions import Fraction

from dlscape import (ConsistencyError, ZoneError, anti_triangle_check,
                     base_lipschitz_check, build, equivalence_classes,
                     materialize_window, oracle, point_assigned_family,
                     rho_matrix)
from dlscape.pseudometric import base_lipschitz_gap

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
    sup, d = base_lipschitz_gap(fields[0], fields[3])
    assert (sup, d) == (3, 3)
    assert base_lipschitz_check(fields[0], fields[3])


def test_base_lipschitz_h_graph(h_window):
    fields = point_assigned_family(h_window, [(0, 0), (1, 0)], SCHED, 10)
    sup, d = base_lipschitz_gap(fields[(0, 0)], fields[(1, 0)])
    assert d == 1 and sup <= 1


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
    fields = point_assigned_family(halfline_window, [0, 3], SCHED, 10)
    assert fields[0].window is halfline_window
    assert fields[3].window.base == 3


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
