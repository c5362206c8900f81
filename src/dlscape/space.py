"""Infinite graph spaces, finite windows, and exact shortest-path tools.

A :class:`GraphSpace` is an infinite, connected, locally finite graph with
unit edge weights, described by a deterministic neighbor rule.  A
:class:`Window` is a finite ball around a base vertex; every distance
consumer states which validity zone it needs, so truncation never silently
corrupts a value.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from operator import eq

from .errors import DomainError, ResourceLimitError, ZoneError

DEFAULT_MAX_VERTICES = 2_000_000
MAX_VERTICES_ENV = "DLSCAPE_MAX_VERTICES"


def vertex_budget():
    raw = os.environ.get(MAX_VERTICES_ENV)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{MAX_VERTICES_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise DomainError(f"{MAX_VERTICES_ENV} must be positive")
    return value


class GraphSpace:
    """Base class for generated infinite graphs.

    Subclasses fix the vertex encoding, a deterministic neighbor order and
    a rational scale factor: the reported distance is ``hops / scale``.

    A generator names itself in ``generator_id``, declares its parameters
    in ``schema`` (name -> description, each held as the attribute of that
    name; empty by default) and implements ``neighbors(v)`` and
    ``contains(v)``, and where it can, ``ball_size_bound``, ``distance``,
    ``sphere_at`` and ``rays_cover``.  It inherits its vertex codec,
    ``default_base()``, ``parse_vertex(text)`` and ``vertex_label(v)``, and
    the ``window_codec`` its windows hold keys in, from one of
    :mod:`dlscape.zoo`'s vertex types, or defines its own.  By default the
    space is that codec: ``encode`` and ``decode`` give a vertex as its own
    key, and ``neighbors`` is the rule on keys.
    """

    generator_id = "?"
    schema = {}
    ball_size_exact = False

    def __init__(self, scale=Fraction(1)):
        scale = Fraction(scale)
        if scale <= 0:
            raise DomainError("scale must be positive")
        self.scale = scale

    @property
    def params(self):
        return {key: getattr(self, key) for key in self.schema}

    def ball_size_bound(self, base, radius):
        """A proven upper bound on |B_radius(base)|, or None when none is
        known; :func:`materialize_window` builds a window on demand only
        under a bound.  A generator whose bound is |B_radius(base)| itself
        sets ``ball_size_exact``, and :func:`materialize_window` then
        refuses a ball over the budget before any growth."""
        return None

    def distance(self, a, b):
        """Closed-form graph distance d(a, b) between two vertices, or None
        where the generator gives none.  For a given a it is None for every
        b or exact for every b, so one call from a tells a caller which."""
        return None

    def sphere_at(self, b, r):
        """The sphere S_r(b) in closed form, each vertex once, in no set
        order, or None where the generator gives none.  As for
        :meth:`distance`, for a given b it is None for every r or exact
        for every r."""
        return None

    def rays_cover(self, b, r):
        """True only where a geodesic ray from b passes through every
        vertex of B_r(b), so that :func:`~dlscape.fields.u_point_assigned`
        reads u^r'(x) = -d(b, x) there for every r' >= d(b, x); False by
        default.  An override proves its answer in its docstring."""
        return False

    def window_codec(self, base, radius):
        """The codec a window B_radius(base) holds its keys in (see
        :class:`Window`): by default the space itself, whose key for a
        vertex is the vertex."""
        return self

    def encode(self, v):
        return v

    def decode(self, key):
        return key

    # -----------------------------------------------------------------------
    def spec_dict(self):
        return {
            "generator": self.generator_id,
            "params": dict(self.params),
            "scale": {"num": self.scale.numerator, "den": self.scale.denominator},
        }

    def check_vertex(self, v):
        if not self.contains(v):
            raise DomainError(
                f"vertex {v!r} is not a vertex of generator {self.generator_id}"
            )
        return v

    def __repr__(self):
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.generator_id}({ps})"


class Window:
    """Ball ``B_R(base)`` of a graph space, materialized shell by shell.

    ``vertices`` is in breadth-first order with the generator's neighbor
    ordering, so two materializations of the same (space, base, R) are
    identical.  Breadth-first order makes ``dist_from_base``
    non-decreasing: every ball ``B_rho(base)`` is a prefix of ``vertices``
    and every sphere a contiguous index range.

    Keys.  ``_vertices`` holds one key per vertex, in index order, and
    ``_index`` maps each key to its index, all under one codec,
    ``_codec``: the space's :meth:`GraphSpace.window_codec` for (base, R),
    or the codec of the ``known`` window it grows from, so that the two
    hold the same key for a vertex.  A codec has ``encode`` (None: no
    window of the codec holds the vertex), ``decode`` and ``neighbors``,
    the neighbor rule on keys.  A space is its own codec, with the vertex
    as its key, unless it codes its windows' vertices, as grid2d and
    h_graph code their pairs as small ints (:class:`~dlscape.zoo._PairCodec`).
    Keys never leave this module.  Two methods give a vertex's index:
    :meth:`find`, which grows the window as far as the vertex, and
    :meth:`held`, which reads only what is held.  :meth:`vertex_at`
    decodes one index, :meth:`held_in` maps indices to another window's,
    passing keys as they are under a shared codec, and ``vertices`` is a
    read-only view that decodes one item per read.

    State.  A window in state r = ``grown`` (0 <= r <= R) is exactly the
    window ``materialize_window(space, base, r)``, held in the lists
    ``_vertices``, ``_index``, ``_dist`` and ``_adjacency``, up to the
    codec of its keys.  Its vertices, index order and distances are a
    prefix of those of B_R, its rows of B_{r-1} are B_R's, and its rows of
    the sphere S_r are B_R's filtered to B_r.  Growing to a state r' > r
    rebuilds the rows of S_r from the neighbor source and continues the
    same breadth-first loop (:meth:`_grow`); entries already held never
    move.

    Completion.  :meth:`count_within` grows the window to min(rho, R); a
    lookup through :meth:`find` grows it until the vertex is found, and
    to R before it answers "not in window", unless the codec, ``contains``
    or a closed-form distance past R already proves the vertex absent,
    when it answers at once with no growth; :meth:`held` never grows it.
    Every read of the whole window (``len`` and the ``vertices``,
    ``dist_from_base`` and ``adjacency`` properties) grows it to R first,
    so those reads see B_R.  Other readers in this package read ``_dist``
    and ``_adjacency`` below a ``count_within`` or ``find`` they have
    called, as :func:`shortest_path` does; a held row lists every held
    neighbor.

    Passes.  :meth:`distances_from` holds one single-source BFS per start
    index, re-run only for a larger ball.  The exact-distance checks
    (:func:`pairwise_dist` and the co-ray geodesy and representation
    checks) and :func:`~dlscape.fields.u_point_assigned`'s d(b, .) read
    their single-source distances through it, so on one window they share
    each pass.

    Budget.  :func:`materialize_window` builds a window on demand only when
    the space's :meth:`GraphSpace.ball_size_bound`, or else the ``known``
    window it grows from, proves B_R fits the vertex budget; otherwise it
    grows it to R at once, or refuses it with no growth where the bound
    is exact, so :class:`ResourceLimitError` is raised at construction.
    """

    __slots__ = ("space", "base", "radius", "grown", "known", "_budget",
                 "_codec", "_vertices", "_index", "_dist", "_adjacency",
                 "_passes")

    def __init__(self, space, base, radius, budget, known=None):
        self.space, self.base, self.radius = space, base, radius
        self.grown, self.known, self._budget = 0, known, budget
        self._codec = space.window_codec(base, radius) \
            if known is None else known._codec
        key = self._codec.encode(base)
        self._vertices, self._index = [key], {key: 0}
        self._dist, self._adjacency = [0], [()]
        self._passes = {}

    def _grow(self, rho):
        """Grow to state min(rho, R) by the breadth-first loop, resumed at
        the sphere S_grown, whose rows it rebuilds.  Rows of the sphere at
        the new state keep the in-window neighbors only: each of them has
        already been discovered, so filtering by the map is exact.

        Neighbors come from the generator, or from the rows of ``known``,
        a window holding B_R(base), grown first to s = d(o, base) + rho, o
        = known.base.  A vertex at distance below rho from the base is
        within s - 1 of o, so its row there lists every generator neighbor
        in generator order.  A vertex at distance rho is in B_s, and so is
        each of its neighbors in B_rho(base); its row there keeps those, in
        generator order.  So both sources give the same window.

        One loop reads both, as one run over the window's keys from
        S_grown on; the run grows as the loop finds vertices, and the map
        from a key to the index here is the index.  From the generator the
        rows come from the codec's ``neighbors``.  A window grown from
        known holds known's keys (its codec is known's), and the row of a
        key is known's row of it, read as known's keys, in known's order.
        So each neighbor is one index lookup on both routes, and a call
        allocates only for the vertices it adds: growing one shell per call
        costs the shells it reads, not the ball.  The index takes the rows'
        int objects.
        """
        radius = min(rho, self.radius)
        if radius <= self.grown:
            return
        vertices, index, dist = self._vertices, self._index, self._dist
        adjacency, budget, known = self._adjacency, self._budget, self.known
        head = bisect_left(dist, self.grown)
        del adjacency[head:]
        if known is None:
            rows = self._codec.neighbors
        else:
            known.count_within(known._dist[known._index[vertices[0]]]
                               + radius)
            code, kindex = known._vertices.__getitem__, \
                known._index.__getitem__
            krows = known._adjacency

            def rows(v):
                return map(code, krows[kindex(v)])

        get, push, grow_dist = index.get, vertices.append, dist.append
        for v, dv in zip(_tail(vertices, head), _tail(dist, head)):
            row = []
            if dv < radius:
                for w in rows(v):
                    j = get(w)
                    if j is None:
                        j = len(dist)
                        if j >= budget:
                            raise _over_budget(self.space, self.base,
                                               self.radius, budget)
                        index[w] = j
                        push(w)
                        grow_dist(dv + 1)
                    row.append(j)
            else:
                for w in rows(v):
                    j = get(w)
                    if j is not None:
                        row.append(j)
            adjacency.append(tuple(row))
        self.grown = radius

    @property
    def vertices(self):
        self._grow(self.radius)
        return _DecodedList(self._vertices, self._codec)

    @property
    def dist_from_base(self):
        self._grow(self.radius)
        return self._dist

    @property
    def adjacency(self):
        self._grow(self.radius)
        return self._adjacency

    def __len__(self):
        return len(self.vertices)

    def vertex_at(self, i):
        """The vertex at index i of the held prefix, decoded; no growth."""
        return self._codec.decode(self._vertices[i])

    def held(self, vertices):
        """Each vertex's index, or None where it is not held; no growth."""
        return map(self._index.get, map(self._codec.encode, vertices))

    def held_in(self, other, idxs):
        """``other``'s index of the vertex at each of this window's indices
        ``idxs``, or None where other does not hold it; no growth.  Keys
        pass as they are when the two windows hold the same codec, else
        each is decoded and encoded again."""
        keys = map(self._vertices.__getitem__, idxs)
        if other._codec is not self._codec:
            keys = map(other._codec.encode, map(self._codec.decode, keys))
        return map(other._index.get, keys)

    def find(self, vertex):
        """Index of ``vertex``, or None when it is not in B_R(base).  A
        vertex not held answers None at once when the codec holds no key
        for it, the space does not contain it, or its closed-form distance
        d(base, vertex) exceeds R.  Otherwise the state grows to that
        distance where the generator gives it, then doubles until the
        vertex is held or the window is whole, so a vertex near the base
        is found without growing the window to R."""
        key = self._codec.encode(vertex)
        i = self._index.get(key)
        if i is None and self.grown < self.radius:
            if key is None or not self.space.contains(vertex):
                return None
            d = self.space.distance(self.base, vertex)
            if d is not None:
                if d > self.radius:
                    return None
                self._grow(d)
                i = self._index.get(key)
        while i is None and self.grown < self.radius:
            self._grow(max(1, 2 * self.grown))
            i = self._index.get(key)
        return i

    def count_within(self, rho):
        """Size of ``B_rho(base)``, i.e. the length of its index prefix."""
        if rho > self.grown:
            self._grow(rho)
        return bisect_right(self._dist, rho)

    def geodesic_ball(self, da, db, dab):
        """Size of a ball that holds a window geodesic from a to b, given
        d(base, a) <= da, d(base, b) <= db and d(a, b) <= dab; a BFS
        confined to it gives the window distance d(a, b), from a or from a
        source set whose nearest member to b is a.

        The ball is B_m, m = (da + db + dab') // 2, where dab' = dab, or
        min(dab, da + db - 1) when min(da, db) >= 1.  If d(a, b) <= dab',
        a vertex z on any geodesic has 2 d(base, z) <= (d(base, a) +
        d(a, z)) + (d(base, b) + d(z, b)) <= da + db + dab'.  Otherwise
        d(a, b) = da + db, as d(a, b) <= d(base, a) + d(base, b) <= da + db
        and dab' = da + db - 1 < d(a, b).  Then d(base, a) = da, d(base, b)
        = db, and a geodesic from a to the base followed by one from the
        base to b is a geodesic from a to b inside B_max(da, db), a subset
        of B_m, m = da + db - 1 >= max(da, db) when min(da, db) >= 1.
        """
        if da >= 1 and db >= 1:
            dab = min(dab, da + db - 1)
        return self.count_within((da + db + dab) // 2)

    def distances_from(self, i, limit):
        """BFS distances from index i confined to the first ``limit``
        indices, ``limit`` the size of a ball B_rho around the base (from
        :meth:`count_within` or :meth:`geodesic_ball`); the list may be
        longer, and callers only read it.  A pass is held per i and re-run
        only for a larger ball.

        A larger ball's distances serve a smaller one, as they lie between
        its and the whole window's: every index a caller reads is one its
        ball proves exact, and there all three agree.  A held pass stays
        exact after the window grows.  It was taken with rho <= grown, and
        growth rebuilds only the rows of the sphere S_grown: past ``limit``
        when rho < grown, and otherwise gaining only neighbors at distance
        grown + 1, at or past ``limit``, which the pass pre-settles.  So a
        pass run now reads the same rows and gives the same list.  The
        same holds for any pass of :func:`_bfs_from_indices` confined to
        a ball B_rho, rho <= grown, from the same seed indices: run after
        any growth, it reads the same rows and gives the same list, so a
        step of :func:`~dlscape.fields._sweep` may run its pass whenever
        the certificate first reads it.
        """
        d = self._passes.get(i)
        if d is None or len(d) < limit:
            d = self._passes[i] = _bfs_from_indices(self, [i], limit)
        return d

    def require_zone(self, vertex, rho, what="query"):
        i = self.find(vertex)
        if i is None:
            raise ZoneError(f"{what} vertex {vertex!r} not in window",
                            parameter="radius", witness=vertex,
                            need=self.space.distance(self.base, vertex)
                            if self.space.contains(vertex) else None)
        d = self._dist[i]
        if d > rho:
            raise ZoneError(
                f"{what} vertex {vertex!r} at distance {d} exceeds zone "
                f"{rho}", parameter="zone", witness=vertex, need=d)
        return i

    def require_all(self, vertices, what):
        """:meth:`require_zone` at R for each of ``vertices``; a miss names
        the largest d(base, v) over them all, so one radius holds all."""
        try:
            return [self.require_zone(v, self.radius, what) for v in vertices]
        except ZoneError as exc:
            if exc.need is not None:    # space.distance is closed from base
                exc.need = max(self.space.distance(self.base, v)
                               for v in vertices if self.space.contains(v))
            raise

    def require_sample(self, sample):
        """Indices of a non-empty sample inside the R // 3 zone.  A point
        outside the window raises :meth:`require_all`'s radius ZoneError;
        one in it but past the zone raises a radius ZoneError whose
        ``need``, 3 dmax, dmax the largest d(base, s), is the smallest
        radius whose zone holds the sample."""
        if not sample:
            raise DomainError("sample must be non-empty")
        idxs = self.require_all(sample, "sample")
        dist = self._dist
        zone = self.radius // 3
        for v, i in zip(sample, idxs):
            if dist[i] > zone:
                raise ZoneError(
                    f"sample vertex {v!r} at distance {dist[i]} exceeds "
                    f"zone {zone}", parameter="radius", witness=v,
                    need=3 * max(dist[j] for j in idxs))
        return idxs


class _DecodedList(Sequence):
    """Read-only view of a window's key list: item i is the vertex
    at index i, decoded when read."""

    __slots__ = ("_keys", "_decode")

    def __init__(self, keys, codec):
        self._keys, self._decode = keys, codec.decode

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._decode, self._keys[i]))
        return self._decode(self._keys[i])

    def __iter__(self):
        return map(self._decode, self._keys)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


def _tail(items, start):
    """An iterator over ``items[start:]`` that goes on to the items
    appended while it runs, started at ``start`` in O(1)."""
    it = iter(items)
    it.__setstate__(start)
    return it


def _over_budget(space, base, radius, budget):
    return ResourceLimitError(f"window ({space!r}, base={base!r}, "
                              f"R={radius}) exceeds vertex budget {budget}")


def materialize_window(space, base, radius, known=None):
    """Breadth-first materialization of ``B_radius(base)``.

    Adjacency rows keep the generator's neighbor order, restricted to
    in-window vertices.  Raises :class:`ResourceLimitError` when the vertex
    budget (``DLSCAPE_MAX_VERTICES``, default 2,000,000) would be exceeded:
    with no growth when a floor on |B_R| is over the budget, the space's
    ``ball_size_bound`` where it is exact (``ball_size_exact``), else
    R + 1, as a connected infinite graph has a vertex at each distance.
    The window grows on demand (see :class:`Window`) when
    ``space.ball_size_bound(base, radius)`` is at most the budget, and is
    grown to ``radius`` here otherwise.

    ``known`` is an optional window of the same space.  When it holds
    B_radius(base), s + radius <= its radius for s = d(known.base, base),
    the same window grows from its rows and holds its keys
    (:meth:`Window._grow`), and :func:`~dlscape.fields.u_point_assigned`
    runs its passes there.  It grows on demand when the generator's bound
    fits the budget, which grows known no further than the lookup of
    base, and else when known's B_{s + radius}, counted by growing known
    to it, does.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    space.check_vertex(base)
    budget = vertex_budget()
    bound = space.ball_size_bound(base, radius)
    if (bound if space.ball_size_exact else radius + 1) > budget:
        raise _over_budget(space, base, radius, budget)
    if known is not None:
        k = known.find(base)
        if k is None or known._dist[k] + radius > known.radius:
            known = None
    window = Window(space, base, radius, budget, known)
    if known is not None and (bound is None or bound > budget):
        bound = known.count_within(known._dist[k] + radius)
    if bound is None or bound > budget:
        window._grow(radius)
    return window


def _bfs_from_indices(window, seeds, limit=None, settled=()):
    """Multi-source BFS over the window graph, from vertex indices.

    With ``limit`` the search is confined to the vertices of index below
    ``limit``, a ball around the base that comes from
    :meth:`Window.count_within`, and reads only their rows; seeds at or
    past it are skipped and the result has ``limit`` entries.  Without it
    the window is grown to its radius first.

    ``settled``, a sequence of indices below the limit, are left out of
    the search as well: they start out settled, as the indices past the
    limit do, so the search neither enters nor leaves from them, and they
    read -1 (unreached) in the result.  The result is then the BFS of the
    graph induced on the other indices below the limit, exact wherever a
    caller proves a shortest path avoids the settled vertices.
    """
    if limit is None:
        limit = len(window)
    adjacency = window._adjacency
    n = len(adjacency)
    # Indices past the limit start out settled, so the inner loop skips
    # them without a bound test on every edge; they are cut off below.
    dist = [-1] * limit
    dist += [0] * (n - limit)
    for i in settled:
        dist[i] = 0
    queue = []
    push = queue.append
    for i in seeds:
        if dist[i] != 0:
            dist[i] = 0
            push(i)
    # The loop appends to the list it walks: a FIFO queue without pops.
    for v in queue:
        dv = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dv
                push(w)
    del dist[limit:]
    for i in settled:
        dist[i] = -1
    return dist


def sphere(window, r):
    """All vertices at hop distance exactly ``r`` from the base."""
    if r < 0 or r > window.radius:
        raise ZoneError(f"sphere radius {r} outside window radius "
                        f"{window.radius}", parameter="radius",
                        need=r if r > 0 else None)
    hi = window.count_within(r)
    return tuple(sorted(map(window.vertex_at,
                            range(window.count_within(r - 1), hi))))


def pairwise_dist(window, sample):
    """Exact distance matrix on a sample inside the R/3 validity zone
    (:meth:`Window.require_sample`, whose ZoneError names its own need).

    One BFS per point (:meth:`Window.distances_from`), confined to
    :meth:`Window.geodesic_ball` (dmax, dmax, 2 dmax), dmax the largest
    d(base, s) over the sample: two sample points are at most 2 dmax <= R
    apart, through the base.
    """
    idxs = window.require_sample(sample)
    dmax = max(window._dist[i] for i in idxs)
    limit = window.geodesic_ball(dmax, dmax, 2 * dmax)
    rows = [window.distances_from(i, limit) for i in idxs]
    return [[d[j] for j in idxs] for d in rows]


def shortest_path(window, goal):
    """One shortest vertex path base..goal, a geodesic of the window: the
    path of BFS parents from the base, each vertex's parent the first one
    whose row lists it.

    No BFS runs.  The window's indices are the discovery order of the BFS
    from the base that built it, and its rows list neighbors in generator
    order, so a BFS from the base over the rows dequeues vertices in index
    order and finds each from its smallest-index neighbor.  That neighbor
    is one shell nearer the base: every index of S_{d - 1} is below every
    index of S_d and S_{d + 1}, and a vertex of S_d, d >= 1, has a neighbor
    in S_{d - 1}, which its row lists, as a row of S_grown keeps every held
    neighbor.  So the walk from the goal to the smallest index of each row
    reads only rows of B_{d(base, goal)}, which :meth:`Window.find` holds.
    A goal outside the window raises :meth:`Window.require_zone`'s error.
    """
    g = window.require_zone(goal, window.radius)
    path = [g]
    while g:
        g = min(window._adjacency[g])
        path.append(g)
    return list(map(window.vertex_at, reversed(path)))
