"""Generator catalog: structure, labels, parameters, and oracles."""

import pytest
from fractions import Fraction

from dlscape import (DomainError, GeneratorParamError,
                     UnknownGeneratorError, build, build_from_dict, catalog,
                     materialize_window, oracle)
from dlscape.space import _bfs_from_indices, sphere

ALL = [("line", {}, 25), ("halfline", {}, 25), ("tree", {"b": 1}, 25),
       ("tree", {"b": 2}, 10), ("tree", {"b": 3}, 7), ("grid2d", {}, 9),
       ("h_graph", {}, 18), ("stick", {"m": 3, "h": 0}, 12),
       ("stick", {"m": 6, "h": 3}, 14), ("pendant_line", {}, 14),
       ("cylinder", {"m": 5}, 12)]


# The most neighbors a vertex has, from the generator's params.
DEGREE_BOUND = {"line": lambda p: 2, "halfline": lambda p: 2,
                "tree": lambda p: p["b"] + 1, "grid2d": lambda p: 4,
                "h_graph": lambda p: 4, "stick": lambda p: max(p["m"], 4),
                "pendant_line": lambda p: 3, "cylinder": lambda p: 4}


@pytest.mark.parametrize("name,params,radius", ALL)
def test_generator_structure(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), radius)
    for i, v in enumerate(w.vertices):
        assert space.contains(v)
        nbrs = space.neighbors(v)
        # symmetry of the neighbor relation and the declared degree bound
        assert len(nbrs) == len(set(nbrs)) <= DEGREE_BOUND[name](params)
        for u in nbrs:
            assert space.contains(u)
            assert v in space.neighbors(u)
        # label round trip
        assert space.parse_vertex(space.vertex_label(v)) == v
    labels = {space.vertex_label(v) for v in w.vertices}
    assert len(labels) == len(w.vertices)


def _lookalikes(v):
    """v with one int coordinate made a float, or a bool, of equal value:
    each compares and hashes equal to v."""
    if isinstance(v, int):
        return [float(v)] + ([bool(v)] if v in (0, 1) else [])
    out = []
    for k, c in enumerate(v):
        if isinstance(c, int):
            out += [v[:k] + (c2,) + v[k + 1:] for c2 in _lookalikes(c)]
    return out


# A base equal to a vertex, held in bools.
BOOL_BASE = {"line": False, "halfline": True, "tree": (False,),
             "grid2d": (True, False), "h_graph": (True, False),
             "stick": ("cycle", True), "pendant_line": (False, True),
             "cylinder": (True, False)}


@pytest.mark.parametrize("name,params,radius", ALL)
def test_contains_refuses_bool_and_float_coordinates(name, params, radius):
    space = build(name, params)
    w = materialize_window(space, space.default_base(), min(radius, 6))
    odd = [u for v in w.vertices for u in _lookalikes(v)]
    assert odd and not any(space.contains(u) for u in odd)
    with pytest.raises(DomainError):
        materialize_window(space, BOOL_BASE[name], 4)


def test_build_errors():
    with pytest.raises(UnknownGeneratorError):
        build("moebius")
    with pytest.raises(GeneratorParamError):
        build("tree")
    with pytest.raises(GeneratorParamError):
        build("line", {"b": 2})
    with pytest.raises(GeneratorParamError):
        build("stick", {"m": 2, "h": 0})


def test_build_from_dict_scale():
    space = build_from_dict({"generator": "line",
                             "scale": {"num": 3, "den": 2}})
    assert space.scale == Fraction(3, 2)
    with pytest.raises(DomainError):
        build_from_dict({"params": {}})
    for scale in ({"num": True, "den": 1}, {"num": 1, "den": True},
                  {"num": 1.0, "den": 1}):
        with pytest.raises(DomainError):
            build_from_dict({"generator": "line", "scale": scale})


@pytest.mark.parametrize("spec,error", [
    (["generator"], DomainError),                           # not an object
    ("generator", DomainError),
    (None, DomainError),
    ({"generator": ["line"]}, DomainError),                 # name not a str
    ({"generator": None}, DomainError),
    ({"generator": "line", "params": [1]}, GeneratorParamError),
    ({"generator": "line", "params": [["b", 2]]}, GeneratorParamError),
    ({"generator": "line", "params": []}, GeneratorParamError),
])
def test_build_refuses_malformed_specs(spec, error):
    with pytest.raises(error):
        build_from_dict(spec)
    if isinstance(spec, dict):
        with pytest.raises(error):
            build(spec["generator"], spec.get("params"))
def test_catalog_lists_all():
    cat = catalog()
    assert set(cat) == {"line", "halfline", "tree", "grid2d", "h_graph",
                        "stick", "pendant_line", "cylinder"}
    assert cat["tree"]["params"] and "point_assigned" in \
        cat["h_graph"]["oracles"]


def test_tree1_is_halfline():
    t = build("tree", {"b": 1})
    h = build("halfline")
    wt = materialize_window(t, (), 15)
    wh = materialize_window(h, 0, 15)
    assert [len(v) for v in wt.vertices] == list(wh.vertices)
    assert wt.dist_from_base == wh.dist_from_base


def _h_graph_rule(v):
    """The H-graph neighbor rule as the row and column segments give it,
    sorted: the spec for HGraph.neighbors."""
    x, y = v
    if y == 0:
        out = [(x - 1, 0), (x + 1, 0)] + ([(x, 1)] if x else [])
        return tuple(sorted(out))
    out = []
    if abs(x) <= y:
        out += [(u, y) for u in (x - 1, x + 1) if abs(u) <= y]
    if x != 0 and y <= abs(x):
        out += [(x, t) for t in (y - 1, y + 1) if t <= abs(x)]
    return tuple(sorted(out))


def test_h_graph_neighbors_match_the_sorted_rule():
    space = build("h_graph")
    seen = 0
    for x in range(-60, 61):
        for y in range(61):
            v = (x, y)
            if not space.contains(v):
                continue
            seen += 1
            nbrs = space.neighbors(v)
            assert nbrs == _h_graph_rule(v), v
            assert all(v in space.neighbors(u) for u in nbrs), v
    assert seen == 7381


def test_h_graph_axis_distance(h_window):
    # reaching (0,k) needs the arm through (k,0) or (-k,0): 3k hops
    df = _bfs_from_indices(h_window, [0])
    for k in range(1, 16):
        assert df[h_window.find((0, k))] == 3 * k


@pytest.mark.parametrize("name,params,radius", ALL)
def test_closed_form_distance_is_the_window_distance(name, params, radius):
    """From every source s in B_3(base), where a generator gives d(s, v) in
    closed form it is the BFS distance of every vertex of the window
    B_R(s), which is exact from its base; elsewhere it gives None for
    every v, and ``sphere_at(s, r)`` None for every r.  The h_graph gives
    both from (0, 0) only."""
    space = build(name, params)
    base = space.default_base()
    near = materialize_window(space, base, 3).vertices
    for s in near:
        known = name in ("line", "halfline", "grid2d") or \
            (name == "h_graph" and s == (0, 0))
        w = materialize_window(space, s, radius)
        for v, d in zip(w.vertices, w.dist_from_base):
            assert space.distance(s, v) == (d if known else None), (s, v)
        if not known:
            assert all(space.sphere_at(s, r) is None for r in range(radius))


# (generator, bases, R): halfline bases below R meet b - r < 0, and the
# grid2d bases take both signs of each coordinate.
SPHERE_SPACES = [("line", [0, -4, 9], 20),
                 ("halfline", [0, 2, 7], 20),
                 ("grid2d", [(0, 0), (3, -2), (-7, 5)], 16),
                 ("h_graph", [(0, 0)], 40)]


@pytest.mark.parametrize("name,bases,radius", SPHERE_SPACES)
def test_closed_form_sphere_is_the_window_sphere(name, bases, radius):
    """``sphere_at(b, r)`` lists S_r(b) once per vertex, the sphere of the
    window B_R(b), for every 1 <= r < R."""
    space = build(name)
    for b in bases:
        w = materialize_window(space, b, radius)
        for r in range(1, radius):
            got = list(space.sphere_at(b, r))
            assert len(got) == len(set(got)), (b, r)
            assert tuple(sorted(got)) == sphere(w, r), (b, r)


def test_stick_apex_distance():
    space = build("stick", {"m": 5, "h": 2})
    w = materialize_window(space, ("apex",), 12)
    df = _bfs_from_indices(w, [0])
    for v in w.vertices:
        assert df[w.find(v)] == space.dist_to_apex(v)


def test_oracle_unknown_quantity(h_window):
    with pytest.raises(DomainError):
        oracle(h_window.space, "nonsense")
    with pytest.raises(DomainError):
        oracle(build("grid2d"), "point_assigned", (0, 0), (1, 1))
