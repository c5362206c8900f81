"""Gradient lines (co-rays) of distance-like fields.

A discrete co-ray is a maximal vertex path along which the field drops by
exactly one per step; on unit graphs this realizes the gradient identity
verbatim and every such path is a geodesic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DescentError, DomainError, ZoneError
from .fields import _anchor_sets, _geodesic, _resolve_sets, _stable_from


@dataclass(frozen=True)
class CoRay:
    """Unit-decrement vertex path; ``truncated`` means it stopped at the
    zone boundary rather than at a genuine minimum."""

    vertices: tuple
    decrements: tuple
    truncated: bool

    @property
    def length(self):
        return len(self.vertices) - 1


@dataclass
class CoRayTrace:
    paths: list
    exhausted: bool    # False when max_paths cut the enumeration short


def _descending(field, i):
    """In-zone neighbors one below, in generator order."""
    values = field.values
    target = values[i] - 1
    return [j for j in field.window._adjacency[i]
            if values.get(j) == target]


def trace_corays(field, start, max_paths=64):
    """Depth-first enumeration of maximal unit-decrement paths from start.

    Neighbor ties break in generator order.  The field is valued on a ball
    B_e(base), e = min(zone, d(base, x)) for x the valued vertex of
    largest index: B_zone, or for a point-assigned field
    B_min(zone, max(schedule)).  A path that stops strictly inside it
    contradicts co-ray existence and raises :class:`DescentError`; a stop
    at its edge is reported as a truncated path.  ``max_paths`` must be at
    least 1.
    """
    if max_paths < 1:
        raise DomainError(f"max_paths must be >= 1, got {max_paths}")
    window = field.window
    i0 = field.index_of(start)
    dist = window._dist
    values = field.values
    edge = min(field.zone, dist[max(values)])
    paths = []
    exhausted = True

    stack = [(i0,)]
    while stack:
        if len(paths) >= max_paths:
            exhausted = False
            break
        path = stack.pop()
        down = _descending(field, path[-1])
        if down:
            for j in reversed(down):
                stack.append(path + (j,))
            continue
        tip = path[-1]
        if dist[tip] < edge and len(path) > 1:
            raise DescentError(
                "no descending neighbor strictly inside the zone; field is "
                "not distance-like there",
                vertex=window.vertex_at(tip))
        if len(path) == 1 and dist[tip] < edge:
            raise DescentError("no descending neighbor at start",
                               vertex=start)
        verts = tuple(map(window.vertex_at, path))
        decs = tuple(values[a] - values[b] for a, b in zip(path, path[1:]))
        paths.append(CoRay(verts, decs, truncated=True))
    return CoRayTrace(paths, exhausted)


def verify_gradient(coray, field):
    """Independent re-check of the gradient identity and geodesy.

    True iff every vertex lies in the field's zone, the field drops by
    exactly one per step and every vertex pair on the path is at hop
    distance equal to its index gap.  The distance test is exact under
    truncation: the path bounds the in-window distance above, and
    in-window distances bound the true ones below.

    The pairs from g_0 decide every pair: consecutive vertices are
    adjacent, so d(g_s, g_t) <= t - s, and d(g_0, g_t) = t with the
    triangle inequality t <= d(g_0, g_s) + d(g_s, g_t) <= s + (t - s)
    forces d(g_s, g_t) = t - s.  So :func:`~dlscape.fields._geodesic`
    decides them with one BFS from g_0, on the indices found here: the
    window's held pass, so co-rays from one start share it.
    """
    try:
        idxs = [field.index_of(v) for v in coray.vertices]
    except ZoneError:
        return False
    values = field.values
    if any(values[a] - values[b] != 1 for a, b in zip(idxs, idxs[1:])):
        return False
    return _geodesic(field.window, idxs)


def uniqueness_probe(field, start):
    """Number of neighbors one below the field value at start."""
    return len(_descending(field, field.index_of(start)))


@dataclass
class ReprEntry:
    start: object
    busemann_at_x: int
    field_at_start: int
    bound: int
    equality: bool


@dataclass
class ReprReport:
    """Representation-formula evidence u(x) <= u(g(0)) + b_g(x).
    ``entries`` holds the bounds whose Busemann value is stable at x; the
    rest are ``inconclusive``."""

    x: object
    value: int
    entries: list = dc_field(default_factory=list)
    inconclusive: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return all(self.value <= e.bound for e in self.entries)

    @property
    def equality_achieved(self):
        return any(e.equality for e in self.entries)


def representation_check(field, x, corays):
    """Check the co-ray representation of the field value at x.

    Each supplied co-ray contributes the bound u(g(0)) + b_g(x); the bound
    with the self-started co-ray is exact (b vanishes at its own origin).
    Rays whose Busemann sweep has not stabilized at x, or that start
    outside the field zone, are reported as inconclusive, not as failures.

    b_g(x) is read from the sweep d(x, g(t)) - t, t = 1..T, the Busemann
    field of :func:`~dlscape.fields.busemann` at x alone, under the same
    stability rule: one BFS at x gives d(x, g(t)) for the anchors of every
    co-ray, and the geodesy check makes one BFS per distinct start, all
    held on the window (:meth:`~dlscape.space.Window.distances_from`;
    x is often a start itself).

    Each co-ray's vertices are resolved once, through
    :func:`~dlscape.fields._resolve_sets`, before any geodesy check.  The
    pass at x is confined to :meth:`~dlscape.space.Window.geodesic_ball`
    (d(base, x), m, d(base, x) + m), m the largest d(base, v) over the
    vertices of the co-rays resolved in the window, which holds every
    anchor read.  It runs before the geodesy check of a co-ray from x,
    whose smaller ball it covers.
    """
    window = field.window
    dist = window._dist
    zone = field.zone
    ix = field.index_of(x)
    ux = field.values[ix]
    report = ReprReport(x=x, value=ux)
    resolved = []
    for coray in corays:
        try:
            found = _resolve_sets(window, [(v,) for v in coray.vertices],
                                  "path") if coray.length else None
        except DomainError as exc:
            found = str(exc)
        resolved.append(found)
    in_window = [(coray, found) for coray, found in zip(corays, resolved)
                 if isinstance(found, list)]
    m = max((d for _, found in in_window for d, _ in found), default=0)
    x_ball = window.geodesic_ball(dist[ix], m, dist[ix] + m)
    if any(coray.vertices[0] == x for coray, _ in in_window):
        window.distances_from(ix, x_ball)
    for coray, found in zip(corays, resolved):
        start = coray.vertices[0]
        if coray.length == 0:
            if start == x:
                report.entries.append(ReprEntry(start, 0, ux, ux,
                                                equality=True))
            else:
                report.inconclusive.append((start, "zero-length co-ray"))
            continue
        if isinstance(found, str):
            report.inconclusive.append((start, found))
            continue
        try:
            anchors = [i for _, (i,) in _anchor_sets(
                window, found, zone, zone, "path", ray=True)]
            u_start = field.values[field._valued(anchors[0], start)]
        except DomainError as exc:
            report.inconclusive.append((start, str(exc)))
            continue
        if dist[ix] > zone:     # only a field valued past its zone
            raise ZoneError(f"vertex {x!r} outside the field zone",
                            parameter="zone", witness=x, need=dist[ix])
        dx = window.distances_from(ix, x_ball)
        steps = range(1, len(anchors))
        bx = change = None
        for t in steps:
            b = dx[anchors[t]] - t
            if b != bx:
                bx, change = b, t
        if _stable_from(steps, 2 * zone, {ix: change})[ix] or \
                (start == x and bx == 0):
            bound = u_start + bx
            report.entries.append(ReprEntry(start, bx, u_start, bound,
                                            equality=(ux == bound)))
        else:
            report.inconclusive.append((start, "busemann value not stable"))
    return report
