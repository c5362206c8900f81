"""The induced pseudo-metric rho and its equivalence classes.

rho(x,y) = -(u_x(y) + u_y(x)) / 2 is kept as the integer 2*rho for exact
arithmetic; the rational scale is applied only at export.  Class detection
is window evidence: two bases land in one block when their fields differ
by an exact constant across the shared evaluation zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .errors import ConsistencyError, DomainError, ZoneError
from .fields import _check_schedule, u_point_assigned
from .space import materialize_window, pairwise_dist


def point_assigned_family(window, bases, schedule, zone, tail=None):
    """Point-assigned fields for several bases of one space.

    The schedule and zone are checked against the caller's window first,
    so this accepts the inputs :func:`u_point_assigned` accepts there.
    The caller's window serves its own base.  Every other base b gets
    B_m(b), m = max(max(schedule), zone), grown from the caller's rows
    when they hold it (``materialize_window(..., known=window)``; the
    sweep then runs its passes there, and it, rho and the classes grow
    B_m(b) only to B_zone(b), and the caller's window only as far as
    those passes read, no further than B_{d(base, b) + zone} where rays
    from b cover its zone (``space.rays_cover``), so that no step runs a
    pass, or where every step takes the closed form of
    :func:`u_point_assigned`), else from the generator.  That is the
    field of a window
    B_R(b): u_point_assigned is exact on any window of radius at least
    max(schedule) and zone (see its docstring), and B_m(b) is a prefix of
    B_R(b) in breadth-first order, so the vertex indices agree too.
    """
    schedule = _check_schedule(window, schedule, zone)
    radius = max(schedule[-1], zone)
    fields = {}
    for b in bases:
        wb = window if b == window.base else \
            materialize_window(window.space, b, radius, known=window)
        fld, _ = u_point_assigned(wb, schedule, zone, tail)
        fields[b] = fld
    return fields


@dataclass
class RhoMatrix:
    """Scaled pseudo-metric on a sample, with per-entry stability flags."""

    sample: tuple
    two_rho: tuple          # integers: 2*rho in hop units
    stable: tuple
    dist: tuple             # hop distances on the sample
    scale: Fraction

    def rho(self, i, j):
        """rho in reported (scaled) units, as an exact Fraction."""
        return Fraction(self.two_rho[i][j], 2) / self.scale

    def axiom_violations(self, stable_only=True):
        """Witnesses against the pseudo-metric axioms, exact integers.
        With ``stable_only`` an entry tested must be stable, and so must
        both entries it is compared with in a triangle."""
        n = len(self.sample)
        sample, tr, dist = self.sample, self.two_rho, self.dist
        st = self.stable if stable_only else ((True,) * n,) * n
        bad = []
        for i in range(n):
            ti, si = tr[i], st[i]
            if ti[i] != 0:
                bad.append(("diagonal", sample[i], ti[i]))
            for j in range(n):
                if not si[j]:
                    continue
                tij = ti[j]
                if tij != tr[j][i]:
                    bad.append(("symmetry", sample[i], sample[j]))
                if tij < 0:
                    bad.append(("nonnegative", sample[i], sample[j]))
                if tij > 2 * dist[i][j]:
                    bad.append(("rho<=d", sample[i], sample[j]))
                for k in range(n):
                    if si[k] and st[k][j] and tij > ti[k] + tr[k][j]:
                        bad.append(("triangle", sample[i], sample[k],
                                    sample[j]))
        return bad

    def pair_stable(self, i, j):
        return self.stable[i][j] and self.stable[j][i]

    def zero_blocks(self):
        """Connected components of the stable rho = 0 relation."""
        n = len(self.sample)
        return _blocks(self.sample, [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if self.two_rho[i][j] == 0 and self.pair_stable(i, j)])

    def to_json(self, space):
        n = len(self.sample)
        return {
            "sample": [space.vertex_label(v) for v in self.sample],
            "two_rho_hops": [list(row) for row in self.two_rho],
            "stable": [list(row) for row in self.stable],
            "rho_scaled": [[str(self.rho(i, j)) for j in range(n)]
                           for i in range(n)],
        }


def _blocks(sample, links):
    """Components of ``sample`` joined by the index pairs ``links``, as a
    sorted list of sorted vertex lists."""
    parent = list(range(len(sample)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in links:
        parent[find(i)] = find(j)
    blocks = {}
    for i, v in enumerate(sample):
        blocks.setdefault(find(i), []).append(v)
    return sorted(sorted(b) for b in blocks.values())


def rho_matrix(window, sample, schedule, zone, tail=None, fields=None):
    """Pseudo-metric matrix on a sample of base points.

    Requires every pair of sample points within ``zone`` hops of each
    other so u_x(y) is exact on each per-base window.  Unstable entries
    are flagged, not failed.

    u_x(y) is read on x's own window B_m(x) of
    :func:`point_assigned_family`; it equals the value on B_R(x), so
    rho is the same as with windows of the caller's radius.  The sample
    distances are those of :func:`~dlscape.space.pairwise_dist`; a pair
    further apart than ``zone`` raises ZoneError with its distance.  The
    family is built first, so on the h_graph the sample distances read
    the d(b, .) passes its fields hold at their larger balls, and an input
    both refuse raises the family's error and its check's need alone.
    """
    sample = tuple(sample)
    if fields is None:
        fields = point_assigned_family(window, sample, schedule, zone, tail)
    dist = tuple(map(tuple, pairwise_dist(window, sample)))
    for x, row in zip(sample, dist):
        for y, d in zip(sample, row):
            if d > zone:
                raise ZoneError(
                    f"sample points {x!r},{y!r} are {d} apart, "
                    f"beyond zone {zone}", parameter="zone", witness=(x, y),
                    need=d)
    two_rho = tuple(tuple(-(fields[x].value_at(y) + fields[y].value_at(x))
                          for y in sample) for x in sample)
    stable = tuple(tuple(fields[x].stable_at(y) and fields[y].stable_at(x)
                         for y in sample) for x in sample)
    return RhoMatrix(sample, two_rho, stable, dist, window.space.scale)


def anti_triangle_check(field_x, field_y, z):
    """Exact verdict on u_x(y) + u_y(z) <= u_x(z) with y = field_y's base."""
    y = field_y.base
    return field_x.value_at(y) + field_y.value_at(z) <= field_x.value_at(z)


def base_lipschitz_gap(field_a, field_b):
    """(sup |u_a - u_b|, d(base_a, base_b), skipped) over the zone
    vertices the fields share.

    The sup reads only vertices stable in both fields, since a truncated
    value that has not settled can break the bound; ``skipped`` counts the
    shared vertices left out, and sup is None when that is all of them.
    d(base_a, base_b) is read off field_a's window, a ball around base_a.
    """
    wa, wb = field_a.window, field_b.window
    if wa.space is not wb.space and \
            wa.space.spec_dict() != wb.space.spec_dict():
        raise DomainError("fields must live on the same space")
    zone_a = field_a.zone_indices()
    shared = [(i, j) for i, j in zip(zone_a, wa.held_in(wb, zone_a))
              if j in field_b.values]
    if not shared:
        raise DomainError("fields share no zone vertices")
    k = wa.find(field_b.base)
    if k is None:
        raise DomainError("base of the second field not in the first window")
    stable_a, stable_b = field_a.report.stable, field_b.report.stable
    gaps = [abs(field_a.values[i] - field_b.values[j]) for i, j in shared
            if stable_a[i] and stable_b[j]]
    return max(gaps, default=None), wa._dist[k], len(shared) - len(gaps)


@dataclass
class ClassPartition:
    """Blocks of sample points whose fields differ by an exact constant
    over the shared evaluation zone (window evidence only)."""

    blocks: list            # sorted list of sorted vertex lists
    offsets: dict           # (x, y) in one block -> constant c: u_x = u_y + c
    evaluation_zone: int
    evidence: str = "WINDOW-EVIDENCE"

    def to_json(self, space):
        return {
            "blocks": [[space.vertex_label(v) for v in blk]
                       for blk in self.blocks],
            "evaluation_zone": self.evaluation_zone,
            "evidence": self.evidence,
        }


def equivalence_classes(window, sample, schedule, zone, tail=None,
                        fields=None, rho=None):
    """Partition a sample by constant field difference; cross-checked
    against the rho = 0 blocks.  A mismatch between the two routes is an
    internal bug, not data.

    Both routes use the same evidence: a pair is joined only when its rho
    entries are stable both ways, as in :meth:`RhoMatrix.zero_blocks`.

    The fields are compared on B_{zone - dmax}(base), dmax the largest
    d(base, s) over the sample, and on the sample itself.  A constant
    difference c on a set holding x and y gives c = u_x(x) - u_y(x) =
    -u_y(x) and c = u_x(y) - u_y(y) = u_x(y), so u_x(y) + u_y(x) = 0:
    this route joins only pairs with rho = 0.

    Each field is read once over the evaluation vertices, when the first
    stable pair that holds its base is compared, so a vertex it has no
    value at raises its ZoneError at that pair.
    """
    sample = tuple(sample)
    if fields is None:
        fields = point_assigned_family(window, sample, schedule, zone, tail)
    if rho is None:
        rho = rho_matrix(window, sample, schedule, zone, tail, fields=fields)
    if rho.sample != sample:
        raise DomainError("rho must be computed on the same sample")

    found = [window.find(v) for v in sample]
    max_base_dist = max(window._dist[i] for i in found)
    eval_zone = zone - max_base_dist
    if eval_zone < 1:
        raise ZoneError("zone too small for a shared evaluation region",
                        parameter="zone", need=max_base_dist + 1)
    eval_idxs = [*range(window.count_within(eval_zone)), *found]

    rows = {}

    def row(x):             # x's field at the evaluation vertices, read once
        r = rows.get(x)
        if r is None:
            r = rows[x] = fields[x].values_at(window, eval_idxs)
        return r

    n = len(sample)
    offsets = {}
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            if not rho.pair_stable(i, j):
                continue
            diffs = set(map(sub, row(sample[i]), row(sample[j])))
            if len(diffs) == 1:
                links.append((i, j))
                offsets[(sample[i], sample[j])] = diffs.pop()
    blocks = _blocks(sample, links)

    rho_blocks = rho.zero_blocks()
    if blocks != rho_blocks:
        raise ConsistencyError(
            f"constant-difference blocks {blocks} disagree with rho=0 "
            f"blocks {rho_blocks}")
    return ClassPartition(blocks, offsets, eval_zone)
