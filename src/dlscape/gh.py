"""Pointed Gromov-Hausdorff toolkit on finite pointed metric spaces.

Distances are scaled integers (real distance = entry / scale) so every
distortion, bound, and certificate below is an exact Fraction.  The
pointed GH distance itself is never computed; only the sandwich
  D*/2 <= d_pGH <= D*
for D* the minimal distortion over pointed correspondences, plus the
epsilon-isometry certificate.

The search and the certification (the eps-isometry and the
correspondence back from it) compare ints in one unit shared by both
spaces (``_int_view``) and turn a result into a Fraction once.  The
re-check, ``distortion`` and ``Correspondence.validate``, stays in
Fraction arithmetic, as does ``brute_force_min_distortion``, so the
integer route is checked by one that shares none of its arithmetic.
The re-check reads each space's real-unit Fractions from
``FiniteMetricSpace.real_matrix``, which a space builds once and holds;
only where the Fractions come from is shared between calls, not how
they are compared.

The re-check runs where a correspondence is made: on the one
``gh_bounds`` returns and on the one ``corr_from_isometry`` returns.
``build_eps_isometry`` reads no stored distortion, so it checks only
what ``Correspondence.validate`` checks first: the pairs' shape, the
base pair and the cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, MetricError, ResourceLimitError

NODE_CAP = 500_000


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Pointed metric space given by a scaled-integer distance matrix.

    ``dist`` is kept as a tuple of tuples and ``scale`` as a Fraction (an
    int scale is converted), so the space is immutable and hashable and a
    caller's list cannot change it later.  ``n``, ``base`` and every entry
    must be non-bool ints and ``scale`` a positive Fraction or int, as
    ``from_json`` asks of its input.
    """

    n: int
    dist: tuple            # n x n tuple of tuples, integer entries
    base: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        n, scale = self.n, self.scale
        if type(n) is not int or type(self.base) is not int:
            raise MetricError("n and base must be integers")
        if type(scale) is int:
            scale = Fraction(scale)
        elif type(scale) is not Fraction:
            raise MetricError(f"scale must be a Fraction or an integer, "
                              f"got {scale!r}")
        try:
            d = tuple(map(tuple, self.dist))
        except TypeError:
            raise MetricError("dist must be a matrix of integers") from None
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "scale", scale)
        if n < 1 or len(d) != n or any(len(row) != n for row in d):
            raise MetricError(f"matrix shape does not match n={n}")
        if not 0 <= self.base < n:
            raise MetricError(f"base index {self.base} out of range")
        if scale <= 0:
            raise MetricError("scale must be positive")
        if any(type(e) is not int for row in d for e in row):
            raise MetricError("every distance must be an integer")
        for i in range(n):
            if d[i][i] != 0:
                raise MetricError("nonzero diagonal", witness=(i, i, i))
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise MetricError("asymmetric entry", witness=(i, j, i))
                if i != j and d[i][j] <= 0:
                    raise MetricError("non-positive off-diagonal",
                                      witness=(i, j, i))
                for k in range(n):
                    if d[i][j] > d[i][k] + d[k][j]:
                        raise MetricError("triangle inequality fails",
                                          witness=(i, k, j))

    def real_matrix(self):
        """Every distance in real units, as exact Fractions: a tuple of
        tuples of ``Fraction(e) / scale``, built on first read and held
        by the space, outside its fields, so ``==``, ``hash`` and ``repr``
        ignore it.  The space is frozen, so the matrix never goes stale;
        ``dataclasses.replace`` makes a new space, which builds its own."""
        held = self.__dict__.get("_real")
        if held is None:
            held = _real_rows(self.dist, self.scale)
            object.__setattr__(self, "_real", held)
        return held

    def to_json(self):
        return {"n": self.n, "base": self.base,
                "scale": {"num": self.scale.numerator,
                          "den": self.scale.denominator},
                "dist": [list(row) for row in self.dist]}

    @classmethod
    def from_json(cls, data):
        """Read ``n``, ``base``, the scale's ``num`` and ``den`` and every
        distance as JSON integers: a float, bool or non-finite value is
        refused, never rounded, so the space searched is the one given."""
        try:
            scale = Fraction(_json_int(data["scale"]["num"]),
                             _json_int(data["scale"]["den"]))
            dist = tuple(tuple(map(_json_int, row)) for row in data["dist"])
            return cls(_json_int(data["n"]), dist, _json_int(data["base"]),
                       scale)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed finite-space JSON: {exc}") from exc


def _real_rows(dist, scale):
    """``dist`` in real units: each entry ``Fraction(e) / scale``, built
    once per distinct entry and shared by the cells that hold it."""
    unit = {e: Fraction(e) / scale for e in set().union(*dist)}
    return tuple(tuple(map(unit.__getitem__, row)) for row in dist)


def _json_int(value):
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def distortion(pairs, X, Y):
    """max |d_X(x,x') - d_Y(y,y')| over pairs of pairs, exact Fraction.

    The independent re-check of the integer search and certification: it
    reads each space's own ``real_matrix`` and subtracts Fractions, with
    no shared unit.  The matrices are held by the spaces, so a call
    builds no Fractions from ``dist``; the arithmetic is the same as
    with a matrix built afresh.  A pair compared with itself has gap
    |d_X(i,i) - d_Y(j,j)| = 0, so only distinct pairs are compared.  A
    pair that is not (i, j), with i a point index of X and j one of Y, is
    refused (``_check_pairs``)."""
    pairs = tuple(pairs)
    _check_pairs(pairs, X, Y)
    dX, dY = X.real_matrix(), Y.real_matrix()
    best = Fraction(0)
    for (i1, j1), (i2, j2) in itertools.combinations(pairs, 2):
        gap = abs(dX[i1][i2] - dY[j1][j2])
        if gap > best:
            best = gap
    return best


@dataclass(frozen=True)
class Correspondence:
    """Pointed correspondence with its exact distortion."""

    pairs: frozenset
    distortion: Fraction
    proved_optimal: bool = True

    def validate(self, X, Y):
        """Raise DomainError unless the pairs are index pairs that relate
        the bases, cover both spaces and have the stored distortion,
        recomputed in Fraction arithmetic by ``distortion``, which checks
        their shape first."""
        dis = distortion(self.pairs, X, Y)
        self._check_pointed(X, Y)
        if dis != self.distortion:
            raise DomainError("stored distortion does not match the pairs")

    def _check_pointed(self, X, Y):
        """Raise DomainError unless the pairs, which ``_check_pairs`` has
        passed (a set of indices takes 1.0 or True for 1), relate the
        bases and cover both spaces."""
        if (X.base, Y.base) not in self.pairs:
            raise DomainError("correspondence does not relate the bases")
        if {i for i, _ in self.pairs} != set(range(X.n)) or \
                {j for _, j in self.pairs} != set(range(Y.n)):
            raise DomainError("correspondence does not cover both spaces")

    def to_json(self):
        return {"pairs": sorted(map(list, self.pairs)),
                "distortion": str(self.distortion),
                "proved_optimal": self.proved_optimal}


def brute_force_min_distortion(X, Y):
    """Full-relation minimum over all pointed correspondences.

    Exponential in n_X * n_Y; the exhaustive reduction oracle for tiny
    spaces only.
    """
    if X.n * Y.n > 12:
        raise ResourceLimitError("brute force limited to n_X * n_Y <= 12")
    base_pair = (X.base, Y.base)
    optional = [(i, j) for i in range(X.n) for j in range(Y.n)
                if (i, j) != base_pair]
    best = None
    for mask in range(1 << len(optional)):
        pairs = [base_pair] + [p for k, p in enumerate(optional)
                               if mask >> k & 1]
        if {i for i, _ in pairs} != set(range(X.n)) or \
                {j for _, j in pairs} != set(range(Y.n)):
            continue
        dis = distortion(pairs, X, Y)
        if best is None or dis < best.distortion:
            best = Correspondence(frozenset(pairs), dis)
    return best


def _int_view(X, Y):
    """(unit, dX, dY): both distance matrices as ints in units of 1/unit,
    for unit = lcm(X.scale.numerator, Y.scale.numerator).

    Exact: an entry e at scale num/den is the real distance
    e*den/num = e*den*(unit/num)/unit, and num divides unit, so
    e*den*(unit//num) is that distance in units of 1/unit.  An int
    result r in this unit is the real value Fraction(r, unit).
    """
    unit = math.lcm(X.scale.numerator, Y.scale.numerator)

    def ints(space):
        k = space.scale.denominator * (unit // space.scale.numerator)
        return [[e * k for e in row] for row in space.dist]

    return unit, ints(X), ints(Y)


class _NodeCap(Exception):
    """The search used up its node cap."""


def _search_union(X, Y, node_cap):
    """Integer branch and bound over unions graph(f) | graph(g) with the
    bases pinned.  Every pointed correspondence contains such a union and
    distortion only grows under inclusion, so the minimum over unions is
    the minimum D* over all pointed correspondences.

    A slot is a non-base point awaiting its correspondent: x_i's image
    f(i), then y_j's g(j), in index order.  Both matrices are rescaled to
    one integer unit, so every gap is an int; ``cost[s][t]`` is the
    largest gap from slot s's pair with candidate t to the pairs already
    placed.  A leaf's distortion is the largest cost it chose, and any
    completion puts some t in each open slot s, so no completion stays
    below a limit once some open slot has every cost at or above it.

    ``descend`` finds a completion below a limit whenever one exists:
    most constrained slot first (fewest candidates below the limit),
    candidates by cost, pruned by that bound.  A placed pair (a, b) also
    covers its other point, so that point's slot, if open, closes on
    (a, b) itself at no cost: any other partner there only adds a pair,
    every point keeps its own slot's pair, and distortion grows under
    inclusion.

    Phase 1 finds D*: a first descent with no limit seeds the incumbent
    greedily, and each further descent must beat it; a descent that
    finds nothing, or an incumbent of 0, proves it optimal, whatever the
    sizes of X and Y.  Past ``node_cap`` nodes the incumbent is returned
    with proved False.  There is always an incumbent by then, for any
    ``node_cap`` >= n_X + n_Y - 1: under ``limit = inf`` every candidate
    is below the limit, so no slot is ever left with none, the first
    descent never backtracks, and it reaches a leaf after one node per
    slot it fills, at most n_X + n_Y - 2, plus the leaf.

    Phase 2 finds the canonical witness: the first leaf L*, in slot order
    and candidate-index order, whose distortion is D*.  Slot by slot it
    keeps the smallest candidate whose prefix has a completion within D*,
    which spells out L*.  The last witness found extends the prefix
    within D*, so its own candidate qualifies and only smaller ones need a
    descent.  L* is the leaf the plain DFS over the same order returns
    when it finishes, keeping a leaf only on a strict improvement: every
    leaf before L* has distortion > D*, so no prefix of L* is pruned
    before L* is kept, and no later leaf improves on D*.  Past the node
    cap, the last witness is returned.

    Returns (pairs, distortion, proved).
    """
    unit, dX, dY = _int_view(X, Y)
    slots = [(True, i) for i in range(X.n) if i != X.base] + \
            [(False, j) for j in range(Y.n) if j != Y.base]
    owner = ({k: s for s, (side, k) in enumerate(slots) if side},
             {k: s for s, (side, k) in enumerate(slots) if not side})

    def pair(s, t):
        side, k = slots[s]
        return (k, t) if side else (t, k)

    def place(open_, rows, a, b):
        """Cost rows of the open slots once (a, b) is placed."""
        out = []
        for s, row in zip(open_, rows):
            side, k = slots[s]
            fixed, line = (dX[k][a], dY[b]) if side else (dY[k][b], dX[a])
            out.append([g if (g := abs(fixed - e)) > c else c
                        for c, e in zip(row, line)])
        return out

    def settle(open_, rows, s, t, picked):
        """Open slots and rows once slot s takes t; the slot of the pair's
        other point, if open, closes on the same pair."""
        side, k = slots[s]
        o = owner[side].get(t)
        picked[s] = t
        if o in open_:
            picked[o] = k
        kept = [(u, row) for u, row in zip(open_, rows) if u != s and u != o]
        rest = [u for u, _ in kept]
        return rest, place(rest, [row for _, row in kept], *pair(s, t))

    nodes = 0

    def descend(dis, open_, rows, limit, picked):
        """Distortion of a completion with every cost below ``limit``,
        filling ``picked``, or None when there is none."""
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _NodeCap
        if not open_:
            return dis
        pick, fewest = 0, None
        for i, row in enumerate(rows):
            below = sum(c < limit for c in row)
            if not below:
                return None
            if fewest is None or below < fewest:
                pick, fewest = i, below
        s = open_[pick]
        for c, t in sorted((c, t) for t, c in enumerate(rows[pick])):
            if c >= limit:
                break
            found = descend(max(dis, c), *settle(open_, rows, s, t, picked),
                            limit, picked)
            if found is not None:
                return found
        return None

    every = list(range(len(slots)))
    start = place(every, [[0] * (Y.n if side else X.n) for side, _ in slots],
                  X.base, Y.base)
    proved = False
    try:
        # Phase 1: D*.
        limit = math.inf
        while limit > 0:
            picked = [None] * len(slots)
            found = descend(0, every, start, limit, picked)
            if found is None:
                break
            best, choice, limit = found, picked, found
        proved = True
        # Phase 2: L*, slot by slot.
        rows = start
        for s in every:
            rest = every[s + 1:]
            for t, c in enumerate(rows[0]):
                if c <= best:
                    nxt = place(rest, rows[1:], *pair(s, t))
                    if t == choice[s]:
                        break
                    trial = choice[:s] + [t] + [None] * len(rest)
                    if descend(0, rest, nxt, best + 1, trial) is not None:
                        choice = trial
                        break
            rows = nxt
    except _NodeCap:
        pass
    pairs = [(X.base, Y.base)] + [pair(s, t) for s, t in enumerate(choice)]
    return pairs, Fraction(best, unit), proved


def min_distortion_correspondence(X, Y):
    """Minimum-distortion pointed correspondence.  ``proved_optimal``
    says that phase 1 of the search finished within ``NODE_CAP`` nodes,
    which proves its distortion is D* at any size; past the cap the best
    correspondence found is returned with ``proved_optimal=False``."""
    pairs, dis, proved = _search_union(X, Y, NODE_CAP)
    corr = Correspondence(frozenset(pairs), dis, proved)
    corr.validate(X, Y)
    return corr


def gh_bounds(X, Y):
    """(lower, upper, correspondence): D*/2 <= pointed GH <= D*, for the
    correspondence of :func:`min_distortion_correspondence`.  Where it is
    not ``proved_optimal`` its distortion is still an upper bound, but it
    may exceed D*, so half of it is no lower bound: lower is then 0, the
    only one the search proved."""
    corr = min_distortion_correspondence(X, Y)
    lower = corr.distortion / 2 if corr.proved_optimal else Fraction(0)
    return lower, corr.distortion, corr


@dataclass(frozen=True)
class EpsIsometry:
    """Function table X -> Y with its exact distortion and net radius."""

    mapping: tuple          # mapping[i] = image index in Y
    dis: Fraction
    net_eps: Fraction

    def to_json(self):
        return {"mapping": list(self.mapping), "dis": str(self.dis),
                "net_eps": str(self.net_eps)}


def _is_index(k, Z):
    """Whether ``k`` is a point index of Z: a non-bool int in range(Z.n)."""
    return type(k) is int and 0 <= k < Z.n


def _check_pairs(pairs, X, Y):
    """Refuse a pair that is not (i, j), with i a point index of X and j
    one of Y, since the rows are indexed by its entries."""
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2 or \
                not _is_index(pair[0], X) or not _is_index(pair[1], Y):
            raise DomainError(f"pair {pair!r} is not (i, j) with i a point "
                              f"index of X (0..{X.n - 1}) and j one of Y "
                              f"(0..{Y.n - 1})")


def _check_mapping(mapping, Y, n=None):
    """Refuse a mapping that is empty, not point indices of Y, since Y's
    rows are indexed by its entries, or, given ``n``, not n of them."""
    if not mapping:
        raise DomainError("mapping is empty: it maps no point of X")
    if n is not None and len(mapping) != n:
        raise DomainError(f"mapping of length {len(mapping)} does not "
                          f"cover the {n} points of X")
    for m in mapping:
        if not _is_index(m, Y):
            raise DomainError(f"mapping entry {m!r} is not a point index "
                              f"of Y (0..{Y.n - 1})")


def map_distortion(mapping, X, Y):
    """max |d_X(x,x') - d_Y(f(x),f(x'))|, compared as ints in the unit
    of ``_int_view``.  A mapping that is not X.n point indices of Y is
    refused."""
    _check_mapping(mapping, Y, X.n)
    unit, dX, dY = _int_view(X, Y)
    best = 0
    for i in range(X.n):
        row, image = dX[i], dY[mapping[i]]
        for k in range(i + 1, X.n):
            gap = abs(row[k] - image[mapping[k]])
            if gap > best:
                best = gap
    return Fraction(best, unit)


def map_net_eps(mapping, Y):
    """Smallest eps for which f(X) is an eps-net of Y.  Y's own entries
    are ints in units of 1/scale, and scaling keeps min and max, so they
    are compared as they are and divided once.  An entry that is not a
    point index of Y is refused."""
    _check_mapping(mapping, Y)
    image = set(mapping)
    return Fraction(max(min(row[m] for m in image) for row in Y.dist)) \
        / Y.scale


def build_eps_isometry(corr, X, Y):
    """Pick the smallest-index correspondent per point (base pinned).

    Guarantees dis f <= dis corr and the image is a (dis corr)-net.  Only
    what the map reads is checked: the pairs' shape, the base pair and
    the cover.  ``corr.distortion`` is never read, since the map's
    distortion and net radius are computed from the map itself, as ints;
    the Fraction re-check runs where a correspondence is made.
    """
    _check_pairs(corr.pairs, X, Y)
    corr._check_pointed(X, Y)
    mapping = []
    for i in range(X.n):
        if i == X.base:
            mapping.append(Y.base)
        else:
            mapping.append(min(j for a, j in corr.pairs if a == i))
    mapping = tuple(mapping)
    return EpsIsometry(mapping, map_distortion(mapping, X, Y),
                       map_net_eps(mapping, Y))


def corr_from_isometry(iso, X, Y, eps):
    """Correspondence {(x, y) : d_Y(f(x), y) <= eps} from an eps-isometry.

    Its distortion is at most 3*eps (checked exactly), so it certifies
    pointed GH <= 3*eps.  The pairs and their distortion are found with
    ints in the unit of ``_int_view``: with eps = p/q, d_Y(f(x), y) <= eps
    is dY[f(x)][y] * q <= p * unit.  ``validate`` then recomputes the
    distortion in Fraction arithmetic, the one re-check of that route.
    A mapping that is not X.n point indices of Y is refused.
    """
    _check_mapping(iso.mapping, Y, X.n)
    eps = Fraction(eps)
    if iso.dis > eps or iso.net_eps > eps:
        raise DomainError(f"map is not an {eps}-isometry "
                          f"(dis={iso.dis}, net_eps={iso.net_eps})")
    unit, dX, dY = _int_view(X, Y)
    reach = eps.numerator * unit
    pairs = {(i, j) for i in range(X.n)
             for j, e in enumerate(dY[iso.mapping[i]])
             if e * eps.denominator <= reach}
    pairs.add((X.base, Y.base))
    dis = Fraction(max(abs(dX[i1][i2] - dY[j1][j2])
                       for (i1, j1), (i2, j2) in
                       itertools.combinations_with_replacement(pairs, 2)),
                   unit)
    corr = Correspondence(frozenset(pairs), dis, proved_optimal=False)
    corr.validate(X, Y)
    if dis > 3 * eps:
        raise DomainError(f"induced correspondence has distortion {dis} "
                          f"> 3*eps = {3 * eps}")
    return corr


def identity_map(v):
    return v


def nearest_spine_map(v):
    """Pendant-line vertex (n, k) -> line vertex n."""
    return v[0]


def spine_embed_map(v):
    """Line vertex n -> pendant-line spine vertex (n, 0)."""
    return (v, 0)


def double_map(v):
    """Line vertex n -> line vertex 2n (for a half-scale target)."""
    return 2 * v


MAPPINGS = {
    "identity": identity_map,
    "nearest_spine": nearest_spine_map,
    "spine": spine_embed_map,
    "double": double_map,
}


@dataclass
class ExperimentReport:
    """Zone-restricted deviation of point-assigned fields under a map."""

    eps: Fraction
    checked: int
    max_abs_deviation: Fraction
    max_one_sided: Fraction      # u_{y0}(f(x)) - u_{x0}(x), signed max
    abs_bound_ok: bool           # max |...| <= 8 eps
    one_sided_bound_ok: bool     # signed max <= 4 eps
    unstable: list               # vertices skipped as inconclusive
    witness_abs: object = None

    @property
    def conclusive(self):
        return not self.unstable

    def to_json(self, space_x):
        return {
            "eps": str(self.eps),
            "checked": self.checked,
            "max_abs_deviation": str(self.max_abs_deviation),
            "max_one_sided": str(self.max_one_sided),
            "abs_bound_8eps_ok": self.abs_bound_ok,
            "one_sided_bound_4eps_ok": self.one_sided_bound_ok,
            "unstable": [space_x.vertex_label(v) for v in self.unstable],
            "witness_abs": None if self.witness_abs is None
            else space_x.vertex_label(self.witness_abs),
        }


def pa_gh_experiment(field_x, field_y, mapping, eps):
    """Compare point-assigned fields across an eps-isometry-like map.

    ``mapping`` is a function from field_x's vertices to field_y's, one of
    :data:`MAPPINGS`.  Deviations are in real units (hops / scale) so two
    spaces of different scale compare exactly.  Vertices whose value is not
    flagged stable on either side are skipped and listed; the verdict is
    inconclusive unless that list is empty.  A map that fails on a source
    vertex, or sends one outside the target zone, raises DomainError.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    wx, wy = field_x.window, field_y.window
    sx, sy = wx.space.scale, wy.space.scale
    checked, unstable = 0, []
    max_abs, max_one, witness = Fraction(0), None, None
    for i in sorted(field_x.values):
        vx = wx.vertex_at(i)
        try:
            vy = mapping(vx)
        except (TypeError, IndexError):
            raise DomainError(f"map cannot take vertex {vx!r}") from None
        (j,) = wy.held([vy])
        if j is None or j not in field_y.values:
            raise DomainError(f"map sends {vx!r} outside the target zone")
        if not field_x.report.stable[i] or not field_y.report.stable[j]:
            unstable.append(vx)
            continue
        ux = Fraction(field_x.values[i]) / sx
        uy = Fraction(field_y.values[j]) / sy
        checked += 1
        if abs(uy - ux) > max_abs:
            max_abs = abs(uy - ux)
            witness = vx
        if max_one is None or uy - ux > max_one:
            max_one = uy - ux
    if checked == 0:
        raise DomainError("no stable vertices to compare")
    return ExperimentReport(eps, checked, max_abs, max_one,
                            max_abs <= 8 * eps, max_one <= 4 * eps,
                            unstable, witness)
