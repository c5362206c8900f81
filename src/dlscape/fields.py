"""Candidate distance-like fields on windows.

All fields are integer hop-valued on a declared zone ``B_rho(base)`` and
carry per-vertex convergence metadata.  Truncated limits are reported as
(last value, stabilization flag over a tail window), never as a claimed
limit; the zoo oracles pin exact thresholds where they are known.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, partial

from .errors import DomainError, ZoneError
from .space import _bfs_from_indices

FIELD_KINDS = ("u_r", "point_assigned", "busemann", "horo", "set_limit")


def _stable_from(schedule, tail, last_change):
    """The stability rule on dated vertices.  A vertex's sweep entries are
    a suffix of the schedule; it is stable when its value last changed at
    or before cutoff = max(schedule) - tail and at least two schedule
    parameters exceed the cutoff.  Such a vertex has an entry at each of
    those parameters and the value held across all of them.
    """
    cutoff = schedule[-1] - tail
    settled = sum(p > cutoff for p in schedule) >= 2
    return {i: settled and c <= cutoff for i, c in last_change.items()}


# Kinds whose sweep entries are monotone along the schedule: u^r(x) is
# non-decreasing in r (:func:`u_point_assigned`), d(x, ray[t]) - t is
# non-increasing in t (:func:`busemann`).
_MONOTONE_KINDS = ("point_assigned", "busemann")


class ConvergenceReport:
    """Truncation certificate of one :func:`_sweep`, under the rule of
    :func:`_stable_from`.

    ``stable`` and ``last_change`` map each valued zone vertex index to
    its stability flag and to the parameter of its value's last change.
    Each is computed on its first read, from the sweep's final values and
    the deferred steps ``run(k)`` (step k's entries, from a pass or in
    closed form); ``dist`` (point-assigned only) gives d(base, x) for the
    free dates.  So a
    certificate no caller reads costs no pass, and the read order sets the
    passes:

    - ``stable`` read first runs at most two passes for a kind in
      ``_MONOTONE_KINDS``, and none for the free dates (:func:`_sweep`
      proves the rule); for any other kind it reads ``last_change``.
    - ``last_change`` runs the ascending walk; ``stable`` read after it
      runs no pass.

    Reports compare equal when their schedules, tails and both dicts do.
    """

    def __init__(self, kind, schedule, tail, ns, final, run, dist):
        self.schedule, self.tail = schedule, tail
        self._ns, self._final, self._run, self._dist = ns, final, run, dist
        self._monotone = kind in _MONOTONE_KINDS

    def _free_steps(self):
        """Vertex -> the step of its first entry, for the vertices dated
        with no pass."""
        ns, dist = self._ns, self._dist
        if dist is None:
            return {}
        return {i: bisect_right(ns, i) for i, u in enumerate(self._final)
                if u == -dist[i]}

    def _walk(self, ks, pending, dates):
        """:func:`_sweep`'s walk along ``ks``: ``dates``, vertex -> step."""
        ns, final = self._ns, self._final
        for k in ks:
            if not pending:
                break
            n = ns[k]
            if pending[0] >= n:
                continue
            e = self._run(k)
            cut = bisect_left(pending, n)
            kept = []
            for i in pending[:cut]:
                if e[i] != final[i]:
                    dates.pop(i, None)
                else:
                    dates.setdefault(i, k)
                    if self._monotone:
                        continue
                kept.append(i)
            pending = kept + pending[cut:]
        return dates

    @cached_property
    def stable(self):
        schedule, ns, n = self.schedule, self._ns, len(self._final)
        if "last_change" in self.__dict__ or not self._monotone:
            return _stable_from(schedule, self.tail, self.last_change)
        cutoff = schedule[-1] - self.tail
        if sum(p > cutoff for p in schedule) < 2:
            return dict.fromkeys(range(n), False)
        top = bisect_right(schedule, cutoff) - 1        # the step of p*
        free = self._free_steps()
        pending = [i for i in range(n)
                   if i not in free and bisect_right(ns, i) <= top]
        dates = self._walk(sorted({bisect_right(ns, pending[0]), top})
                           if pending else (), pending, free)
        return {i: dates.get(i, top + 1) <= top for i in range(n)}

    @cached_property
    def last_change(self):
        schedule, n = self.schedule, len(self._final)
        free = self._free_steps()
        dates = self._walk(range(len(schedule) - 1),
                           [i for i in range(n) if i not in free], free)
        self._run = None
        return {i: schedule[dates.get(i, -1)] for i in range(n)}

    def _key(self):
        return self.schedule, self.tail, self.stable, self.last_change

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return ("ConvergenceReport(schedule=%r, tail=%r, stable=%r, "
                "last_change=%r)" % self._key())


@dataclass
class ScalarField:
    """Integer hop values of a candidate dl-function on a zone."""

    window: object
    kind: str
    zone: int
    values: dict          # vertex index -> value
    report: ConvergenceReport

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise DomainError(f"unknown field kind {self.kind!r}")

    @property
    def base(self):
        return self.window.base

    def index_of(self, vertex):
        """Index of a vertex with a value.  A vertex outside the window
        raises the window's own radius ZoneError
        (:meth:`~dlscape.space.Window.require_zone`).  A vertex of the zone
        without a value lies past B_max(schedule) of a point-assigned
        sweep, so the error names ``r-max``."""
        window = self.window
        return self._valued(window.require_zone(vertex, window.radius),
                            vertex)

    def _valued(self, i, vertex):
        """:meth:`index_of` for ``vertex`` held at window index ``i``."""
        if i not in self.values:
            d = self.window._dist[i]
            raise ZoneError(f"vertex {vertex!r} outside the field zone",
                            parameter="r-max" if d <= self.zone else "zone",
                            witness=vertex, need=d)
        return i

    def value_at(self, vertex):
        return self.values[self.index_of(vertex)]

    def values_at(self, window, idxs):
        """:meth:`value_at` at the vertices of ``window`` at the indices
        ``idxs``, in order, refusing the first vertex without a value as
        it does.  Each is read through
        :meth:`~dlscape.space.Window.held_in` the field's window, and
        decoded only where it has no value there."""
        values = self.values
        out = []
        for i, j in zip(idxs, window.held_in(self.window, idxs)):
            if j not in values:
                j = self.index_of(window.vertex_at(i))
            out.append(values[j])
        return out

    def stable_at(self, vertex):
        return self.report.stable[self.index_of(vertex)]

    def zone_indices(self):
        return sorted(self.values)


def _check_zone(window, zone):
    """1 <= zone <= R; the ZoneError names the zone as its need."""
    if zone < 1:
        raise DomainError("zone must be >= 1")
    if zone > window.radius:
        raise ZoneError("zone exceeds the window radius", parameter="radius",
                        need=zone)


def _pass(on, at, sources, shift, limit, settled=()):
    """Sweep entries from one pass: d(., sources) - shift at the indices
    ``at`` of ``on``, by one BFS from ``sources`` confined to the first
    ``limit`` indices of ``on`` (a ball around its base) that also leaves
    out the indices ``settled`` (:func:`~dlscape.space._bfs_from_indices`),
    which the caller proves no shortest path from a read vertex enters."""
    d = _bfs_from_indices(on, sources, limit, settled)
    return [d[j] - shift for j in at]


def _sweep(window, kind, zone, tail, steps):
    """The limit of d(., H_n) - c_n on B_zone(base), swept along a schedule.

    Each step is (parameter, reach, entries).  ``entries()``, called only
    when the step runs, returns d(., H_n) - c_n at the zone vertices
    within ``reach`` of the base, in ``window``'s index order, from one
    pass (:func:`_pass`) or in closed form, whichever the step picks when
    it runs.  Reaches do not decrease, so a vertex's entries form a suffix
    of the schedule, and the last step, run here, gives every vertex its
    final value.

    The certificate (:class:`ConvergenceReport`, tail 2 * zone by default)
    runs the other steps when first read.  Only zone entries are held.  A
    confined pass gives the same list before and after the windows grow
    (:meth:`~dlscape.space.Window.distances_from`), and closed-form
    entries grow no window, so the read may come late.  For the kinds in
    ``_MONOTONE_KINDS`` a vertex's entries are monotone and end at its
    final value, so once an entry equals that value every later one does,
    and the certificate runs these passes:

    - Free dates (``point_assigned``).  For r >= d(base, x) a point of
      S_r is r from the base, so d(x, S_r) >= r - d(base, x) and u^r(x)
      >= -d(base, x).  A vertex whose final value is -d(base, x) has that
      entry at every step: its last change is its first entry, at the
      first parameter >= d(base, x), and no pass dates it.
    - One walk dates the vertices not dated free, along a list of steps
      in schedule order: a vertex leaves the pending list at its first
      entry equal to its final value, dated at that step.  A step's pass
      runs only while a pending vertex has an entry there (the list is
      sorted, so ``pending[0] < n``, n the number of zone vertices within
      its reach).
    - ``stable``.  With cutoff = max(schedule) - tail, no pass runs when
      fewer than two parameters exceed it: every vertex is unstable.
      Otherwise let p* be the largest parameter at or below it.  A vertex
      is stable iff its entry at p* equals its final value; one with no
      entry there has its first entry, so its last change, past p*.  The
      walk over the vertices with an entry at p* takes two steps, the
      first where one of them has an entry, then p*: at most two passes.
    - ``last_change``.  The walk over every vertex takes every step but
      the last; its date, else the last step, is the vertex's last change.
      ``stable`` read afterwards needs no pass.

    The other kinds keep every vertex pending, dated at the first step of
    its final run of entries equal to its final value, so the walk runs
    every pass, and ``stable`` reads the dates.

    A negative tail is refused first, before any step runs.  The CLI's
    radius-need re-runs (``cli._radius_need``) pass tail -1 so as to stop
    here, after a command's radius checks: one placed after the command's
    first sweep would not be seen by a re-run.
    """
    if tail is not None and tail < 0:
        raise DomainError(f"tail must be >= 0, got {tail}")
    steps = list(steps)
    count = window.count_within
    ns = [count(min(reach, zone)) for _, reach, _ in steps]

    def run(k):             # step k's entries, at its first ns[k] vertices
        return steps[k][2]()

    final = run(-1)
    report = ConvergenceReport(
        kind, tuple(p for p, _, _ in steps),
        2 * zone if tail is None else tail, ns, final, run,
        window._dist if kind == "point_assigned" else None)
    return ScalarField(window, kind, zone, dict(enumerate(final)),
                       report), report


def u_r(window, r, zone):
    """Finite-radius approximant d(., S_r(base)) - r on B_zone(base).

    Exact whenever 1 <= r <= R and zone <= R.  Distance to the base
    changes by at most one per step.  So for x in B_r, a shortest path
    from x to S_r meets S_r before it can leave B_r.  For x at distance
    s > r, every point of S_r is at least s - r from x, and the segment
    of a base-x geodesic from S_r to x has that length and stays in B_s.
    Either way a shortest path lies in the window, and for x in B_zone
    it lies in B_{max(r, zone)}: the one BFS from S_r, an index range as
    in :func:`u_point_assigned`, is confined to that ball.  It is a
    one-step :func:`_sweep` with tail 0, so its certificate dates every
    value at r and, with no two parameters past the cutoff, marks none
    stable.
    """
    _check_zone(window, zone)
    if r < 1 or r > window.radius:
        raise ZoneError(f"r={r} outside window radius", parameter="radius",
                        need=r if r > 0 else None)
    count = window.count_within
    return _sweep(window, "u_r", zone, 0, [(r, zone, partial(
        _pass, window, range(count(zone)), range(count(r - 1), count(r)), r,
        count(max(r, zone))))])[0]


def _check_schedule(window, schedule, zone):
    """The preconditions of :func:`u_point_assigned`; returns the schedule
    as a tuple."""
    schedule = tuple(schedule)
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("schedule must be non-empty strictly increasing")
    _check_zone(window, zone)
    if schedule[-1] > window.radius:
        raise ZoneError("need max(schedule) <= R", parameter="radius",
                        need=schedule[-1])
    if schedule[0] < 1:
        raise ZoneError(f"r={schedule[0]} outside window radius, and no "
                        f"radius admits a sphere radius below 1",
                        parameter="radius")
    return schedule


def u_point_assigned(window, schedule, zone, tail=None):
    """Truncated point-assigned field: the last u^r value per vertex.

    u^r(x) is monotone non-decreasing in r once r >= d(base, x), so only
    schedule entries in that range count; earlier entries can overshoot
    the limit (e.g. on the halfline) and are ignored per vertex.
    Monotone: a path from x in B_r to S_r' (r' > r) crosses S_r, and from
    there needs r' - r more steps, so u^r'(x) >= u^r(x), in any window.
    The value at the base is d(base, S_r) - r = 0 for every r.  Neither
    needs a run-time check.  :func:`_sweep` relies on this monotonicity,
    and on the bound u^r(x) >= -d(base, x), to date each vertex and skip
    the passes its certificate does not need.

    Needs max(schedule) <= R and zone <= R, nothing more: the values are
    then those of the infinite graph, so every window of radius at least
    max(schedule) and zone gives the same field.  Each u^r comes from one
    BFS from S_r confined to B_r, a prefix of the window's breadth-first
    order.  The sweep reads u^r(x) only where d(base, x) <= r, and
    distance to the base changes by at most one per step, so a shortest
    path from such an x meets S_r before it can leave B_r, a subset of
    B_R.

    The passes run on W, this window or the ``known`` window it grows from
    (:func:`~dlscape.space.materialize_window`), base o, delta = d(o, b)
    for b the base here, delta + R <= R_W.  The pass for r runs from
    S_r(b) over B_r(b), which holds every such shortest path: W's S_r
    and B_r if delta = 0.  Else, by the triangle inequality, B_r(b) lies
    in B_{delta + r}(o), the pass's limit.  Distance to b changes by at
    most one per edge, so a walk from S_r(b) that leaves B_r(b) first
    enters S_{r+1}(b), at a vertex of the limit ball next to B_r(b).  The
    pass leaves out (``settled`` of :func:`_sweep`) a set of vertices of
    S_{r+1}(b) below its limit that holds every such vertex, so it enters
    no vertex outside B_r(b), and it reaches all of B_r(b), which a
    geodesic through b joins to S_r(b) inside it: it visits exactly
    B_r(b), whatever the rest of the ball holds.

    Routes.  The ray route first: ``space.rays_cover(b, min(zone,
    max(schedule)))``, asked once per field, says a geodesic ray from b
    passes through every valued zone vertex x.  That ray meets S_r(b),
    r >= d(b, x), at r - d(b, x) from x, so u^r(x) <= -d(b, x), and with
    the lower bound u^r(x) >= -d(b, x) (the free dates of :func:`_sweep`)
    u^r(x) = -d(b, x).  Every step then reads -d(b, .) off the window's
    own distances from its base, with no pass and no ``sphere_at`` or
    ``distance`` call; W grows only as far as the zone's lookup,
    B_{delta + zone}(o), and the certificate dates every vertex free,
    with no pass either.

    Otherwise each step reads S_r(b) from ``space.sphere_at`` once when it
    runs, and gives its entries in closed form or runs that pass
    (:func:`_sweep`).  Where ``space.sphere_at`` gives S_r(b) and
    ``space.distance`` gives d(x, .) from every valued zone vertex x,
    u^r(x) = min over s in S_r(b) of d(x, s) - r, read off the closed
    forms.  They are those of the infinite graph, whose values the pass
    gives too (above), so both routes give the same entries, and the
    closed one reads no window past B_zone(b), where the zone vertices
    are held.  The cost rule: the closed form costs n |S_r(b)| distance
    calls, n the zone vertices the step values, and the pass visits
    B_r(b), at most ``space.ball_size_bound(b, r)`` vertices; a step
    takes the closed form only where the first is below the second.  So
    on the halfline off its end, whose spheres past b hold one point, a
    step takes it once r exceeds about n, and h_graph keeps its passes.
    d(x, .) is read once per zone vertex, the first time the count wins.
    W grows only as far as the passes that run read.

    A pass starts from S_r(b) and leaves out that part of S_{r+1}(b).
    Where ``space.sphere_at`` gives spheres around b in closed form, each
    point of both is one key and one index lookup in W, and a point of
    S_{r+1}(b) is kept where W holds it below the limit.  Else no step
    has a sphere, so every step takes the pass, and one scan per pass
    finds both sets in d(b, .), read from W's held pass from b
    (:meth:`~dlscape.space.Window.distances_from`, which
    :func:`~dlscape.space.pairwise_dist` shares) confined to the pass's
    limit ball or a larger one.  The last step runs first, so that pass
    runs once, over B_{delta + max(schedule)}(o).  The scan covers the
    annulus |d(o, v) - r| <= delta of the limit ball, which holds both
    sets, as d(o, v) < r - delta gives d(b, v) < r.  The confined pass is
    exact at each v with d(b, v) <= r, as its ball holds a geodesic from b
    to v, and it is never shorter than d(b, v).  So it reads r exactly on
    S_r(b), reads r + 1 only on S_{r+1}(b), and reads r + 1 at every
    vertex of the ball outside B_r(b) next to a vertex of B_r(b), which
    reads at most r.
    """
    schedule = _check_schedule(window, schedule, zone)
    space, b = window.space, window.base

    def valued(r):          # the number of zone vertices step r values
        return window.count_within(min(r, zone))

    def sweep(step):
        return _sweep(window, "point_assigned", zone, tail,
                      ((r, r, partial(step, r)) for r in schedule))

    if space.rays_cover(b, min(zone, schedule[-1])):
        return sweep(lambda r: [-d for d in window._dist[:valued(r)]])
    w = window if window.known is None else window.known
    k = w.find(b)
    delta, count = w._dist[k], w.count_within
    at = list(window.held_in(w, range(window.count_within(zone))))

    @cache
    def zone_vertices():    # the valued ones, () unless each d(x, .) is closed
        xs = list(map(window.vertex_at, range(valued(schedule[-1]))))
        return xs if all(space.distance(x, b) is not None for x in xs) else ()

    def step(r):            # u^r at the valued zone vertices
        n, s = valued(r), space.sphere_at(b, r)
        bound = None if s is None else space.ball_size_bound(b, r)
        if bound is not None and n * len(s) < bound and zone_vertices():
            return [min(map(partial(space.distance, x), s)) - r
                    for x in zone_vertices()[:n]]
        limit = count(delta + r)
        if not delta:
            return _pass(w, at[:n], range(count(r - 1), limit), r, limit)
        if s is not None:
            return _pass(w, at[:n], list(w.held(s)), r, limit, [
                j for j in w.held(space.sphere_at(b, r + 1))
                if j is not None and j < limit])
        near, cut = [], []
        lo = count(r - delta - 1)
        dist_b = w.distances_from(k, limit)
        for j, d in enumerate(dist_b[lo:limit], lo):
            if d == r:
                near.append(j)
            elif d == r + 1:
                cut.append(j)
        return _pass(w, at[:n], near, r, limit, cut)

    return sweep(step)


def _geodesic(window, idxs):
    """Whether d(p_0, p_t) == t for every t along a path of window indices.

    The equality test is exact despite truncation: the path itself bounds
    the in-window distance above by t, and any in-window distance is at
    least the true one.  One BFS from p_0 decides every t, confined to
    :meth:`~dlscape.space.Window.geodesic_ball` (d(base, p_0),
    max_t d(base, p_t), T), which holds the path as well; it is the
    window's held pass (:meth:`~dlscape.space.Window.distances_from`).
    """
    if not idxs:
        raise DomainError("path must be non-empty")
    adjacency = window._adjacency
    for a, b in zip(idxs, idxs[1:]):
        if b not in adjacency[a]:
            return False
    dist = window._dist
    limit = window.geodesic_ball(dist[idxs[0]], max(dist[i] for i in idxs),
                                 len(idxs) - 1)
    d0 = window.distances_from(idxs[0], limit)
    return all(d0[i] == t for t, i in enumerate(idxs))


def _resolve_sets(window, sets, what):
    """(d(base, H_n), indices of H_n) per anchor set: the sets before the
    first empty one, whose DomainError comes next, are looked up by
    :meth:`~dlscape.space.Window.require_all`; the margin check of
    :func:`_anchor_sets` names its own need."""
    k = next((j for j, h in enumerate(sets) if not h), len(sets))
    idxs = iter(window.require_all([v for h in sets[:k] for v in h], what))
    if k < len(sets):
        raise DomainError(f"{what} must be non-empty")
    found = [[next(idxs) for _ in h] for h in sets]
    return [(min(map(window._dist.__getitem__, i)), i) for i in found]


def _anchor_sets(window, found, zone, margin, what, ray=False):
    """``found``, the :func:`_resolve_sets` result for the anchor sets of
    a Busemann (``ray``), horofunction or set-limit sweep, once it passes
    these checks in order: a ray is a geodesic; d(base, H_n) + margin <=
    R, so the sweep is exact on the zone (the ZoneError names the first
    failing set's nearest member and the need max d(base, H_n) + margin);
    1 <= zone; a sequence's d(base, H_n) strictly increases.
    """
    radius, dist = window.radius, window._dist
    if ray and not _geodesic(window, [i for _, (i,) in found]):
        raise DomainError("ray is not a geodesic vertex path")
    for a, idxs in found:
        if a + margin > radius:
            near = min(idxs, key=dist.__getitem__)
            raise ZoneError(f"{what} too close to the window boundary",
                            parameter="radius", witness=window.vertex_at(near),
                            need=max(b for b, _ in found) + margin)
    _check_zone(window, zone)
    if not ray and any(b <= a for (a, _), (b, _) in zip(found, found[1:])):
        raise DomainError(f"d(base, {what}) must be strictly increasing")
    return found


def busemann(window, ray, T, zone, tail=None):
    """Busemann-type field d(., ray[t]) - t, swept over t = 1..T.

    Needs 1 <= T < len(ray); ray[0..T] must pass the checks of
    :func:`_anchor_sets` for a Busemann sweep, and values are then exact
    on the zone.  The sweep is monotone non-increasing in t, which
    drives the stabilization flags: ray[t] and ray[t+1] are adjacent, so
    d(y, ray[t+1]) <= d(y, ray[t]) + 1 in the window graph for every y.
    :func:`_sweep` relies on this monotonicity to date each vertex and
    skip the passes its certificate does not need.

    The BFS from an anchor a is confined to
    :meth:`~dlscape.space.Window.geodesic_ball` (zone, d(base, a),
    zone + d(base, a)), which holds a geodesic from each zone vertex.
    """
    ray = list(ray)
    if T < 1 or T >= len(ray):
        raise DomainError("need 1 <= T < len(ray)")
    found = _anchor_sets(
        window, _resolve_sets(window, [(v,) for v in ray[:T + 1]], "path"),
        zone, zone, "path", ray=True)
    ball, at = window.geodesic_ball, range(window.count_within(zone))
    return _sweep(window, "busemann", zone, tail,
                  ((t, zone, partial(_pass, window, at, anchor, t,
                                     ball(zone, d, zone + d)))
                   for t, (d, anchor) in enumerate(found) if t))


def horofunction(window, points, zone, tail=None):
    """Horofunction-type field d(., p_n) - d(base, p_n) along a diverging
    vertex sequence.  Sequences need not be monotone; the stability flags
    say where the sweep has settled, not that it converges.

    The BFS from p_n is confined to the ball of :func:`busemann`, with
    p_n for the anchor.
    """
    points = list(points)
    if len(points) < 2:
        raise DomainError("need at least two points")
    found = _anchor_sets(window, _resolve_sets(
        window, [(p,) for p in points], "p_n"), zone, zone, "p_n")
    ball, at = window.geodesic_ball, range(window.count_within(zone))
    return _sweep(window, "horo", zone, tail,
                  ((a, zone, partial(_pass, window, at, idxs, a,
                                     ball(zone, a, zone + a)))
                   for a, idxs in found))


def dl_from_sets(window, sets, shifts, zone, tail=None):
    """General set-sequence field d(., H_n) - c_n.

    Exactness needs a + 2*zone <= R, a = d(base, H_n).  The BFS from H_n
    is confined to :meth:`~dlscape.space.Window.geodesic_ball` (zone,
    a + 2*zone - 1, a + zone - 1) = B_{a + 2*zone - 1}; members past it
    are skipped.  A zone vertex y is at most zone + a from H_n, through
    the base.  If a nearest member h is nearer, d(y, h) <= a + zone - 1
    and d(base, h) <= a + 2*zone - 1, and that ball holds a geodesic from
    y to h.  Otherwise d(y, H_n) = zone + a, and a geodesic from y to the
    base followed by one from the base to a member at distance a is a
    geodesic to H_n inside B_max(zone, a), a subset of that ball.
    """
    sets = [tuple(s) for s in sets]
    shifts = list(shifts)
    if len(sets) != len(shifts) or len(sets) < 2:
        raise DomainError("need matching sets/shifts lists of length >= 2")
    found = _anchor_sets(window, _resolve_sets(window, sets, "H_n"), zone,
                         2 * zone, "H_n")
    ball, at = window.geodesic_ball, range(window.count_within(zone))
    return _sweep(window, "set_limit", zone, tail,
                  [(a, zone, partial(_pass, window, at, idxs, cn, ball(
                      zone, a + 2 * zone - 1, a + zone - 1)))
                   for (a, idxs), cn in zip(found, shifts)])


@dataclass
class GromovReport:
    """Outcome of the sublevel-set identity check."""

    checked: dict = dc_field(default_factory=dict)   # t -> count
    skipped: list = dc_field(default_factory=list)   # t with empty sublevel
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def gromov_check(field, t_samples):
    """Verify u(x) = t + d(x, {u <= t}) for sampled integer thresholds.

    ``{u <= t}`` is the integer rendering of the open sublevel set: along
    a unit-decrement descent from x the value first reaches t after
    exactly u(x) - t steps.  Only vertices whose full descent provably
    stays in the zone are checked (d(base, x) + u(x) - t <= zone), so the
    verdict is exact, never window-noise.

    Stability evidence: none; every zone value is read, stable or not.
    The identity is a property of the values, and a sweep's values are
    its last entries d(., H_n) - c_n (u^r for :func:`u_r`), a distance
    function shifted by a constant, which satisfies it wherever the
    descent stays in the zone whether or not the sweep has settled.  A
    violation therefore shows a wrong value, never an unsettled one.

    The BFS from {u <= t}, in B_zone, is confined to
    :meth:`~dlscape.space.Window.geodesic_ball` (d(base, x), zone,
    zone - d(base, x)) = B_zone: a checked x with a right value has
    d(base, x) + d(x, {u <= t}) <= zone, and confinement cannot shorten
    a distance.  A violation reports the distance in B_zone (-1: none).
    """
    window = field.window
    dist = window._dist
    limit = window.geodesic_ball(0, field.zone, field.zone)
    report = GromovReport()
    for t in t_samples:
        sub = [i for i, v in field.values.items() if v <= t]
        if not sub:
            report.skipped.append(t)
            continue
        d = _bfs_from_indices(window, sub, limit)
        count = 0
        for i, u in field.values.items():
            if u < t:
                continue
            if dist[i] + (u - t) > field.zone:
                continue
            count += 1
            if u != t + d[i]:
                report.violations.append((t, window.vertex_at(i), u, d[i]))
        report.checked[t] = count
    return report


def level_set(field, c):
    """In-zone vertices where the field equals c exactly."""
    window = field.window
    out = [window.vertex_at(i) for i, v in field.values.items() if v == c]
    out.sort()
    return tuple(out)


def field_to_json(field):
    """Export schema: one record per zone vertex plus window provenance."""
    window = field.window
    space = window.space
    rep = field.report
    last_change = rep.last_change       # first, so ``stable`` runs no pass
    stable = rep.stable
    rows = []
    for i in field.zone_indices():
        rows.append({
            "vertex": space.vertex_label(window.vertex_at(i)),
            "dist_from_base": window._dist[i],
            "value": field.values[i],
            "stable": stable[i],
            "last_change": last_change[i],
        })
    return {
        "space": space.spec_dict(),
        "base": space.vertex_label(window.base),
        "radius": window.radius,
        "kind": field.kind,
        "zone": field.zone,
        "schedule": list(rep.schedule),
        "tail": rep.tail,
        "scale": {"num": space.scale.numerator,
                  "den": space.scale.denominator},
        "values": rows,
    }
