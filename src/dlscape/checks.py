"""Seeded randomized invariant suites.

Each suite draws its cases from a seeded RNG, checks an exact invariant
on a window of the given space, and returns a SuiteResult with explicit
witnesses for every violation.  Identical (space, radius, trials, seed)
always reproduces the same cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .corays import trace_corays, verify_gradient
from .errors import DomainError, ZoneError
from .fields import _stable_from, gromov_check, u_point_assigned, u_r
from .pseudometric import (anti_triangle_check, base_lipschitz_gap,
                           point_assigned_family)
from .space import materialize_window, sphere

POOL_SIZE = 8               # bases of the field pool


@dataclass
class SuiteResult:
    suite: str
    trials: int
    checked: int
    violations: list = dc_field(default_factory=list)
    stats: dict = dc_field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {"suite": self.suite, "trials": self.trials,
                "checked": self.checked, "ok": self.ok,
                "violations": self.violations, "stats": self.stats}


def _window(space, radius):
    return materialize_window(space, space.default_base(), radius)


def _suite_schedule(radius):
    """Zone and sweep schedule of the field-based suites."""
    zone = max(4, radius // 5)
    hi = radius - zone
    return zone, list(range(max(2, hi // 6), hi + 1, max(1, hi // 6)))


def _suite_settles(radius):
    """Whether the suite schedule can mark a value stable.  No value last
    changes before the first parameter, and the base's value, 0 at every
    step, last changes there, so some value can be stable exactly when the
    base's is under the stability rule
    (:func:`~dlscape.fields._stable_from`, tail 2 * zone)."""
    zone, schedule = _suite_schedule(radius)
    if not schedule:
        return False
    return _stable_from(schedule, 2 * zone, {0: schedule[0]})[0]


def _require_suite_radius(radius, holds, what):
    """Raise a radius ZoneError when ``holds(radius)`` is false, with the
    smallest larger radius where it is true as its ``need``: the suite
    schedule at ``radius`` ``what``."""
    if not holds(radius):
        need = radius + 1
        while not holds(need):
            need += 1
        raise ZoneError(f"the suite schedule at radius {radius} {what}",
                        parameter="radius", need=need)


def _suite_field(space, radius):
    """The window and the point-assigned field of the suite schedule; a
    radius whose schedule is empty raises ZoneError with the smallest
    radius whose schedule is not."""
    window = _window(space, radius)
    _require_suite_radius(radius, lambda r: _suite_schedule(r)[1],
                          "is empty")
    zone, schedule = _suite_schedule(radius)
    return window, u_point_assigned(window, schedule, zone)[0]


def _label(window, i):
    return window.space.vertex_label(window.vertex_at(i))


def suite_monotone(space, radius, trials, seed):
    """u^{r1}(x) <= u^{r2}(x) <= d(x0, x) for r1 < r2 with d(x0, x) <= r.

    u^r is exact for every r <= R (:func:`~dlscape.fields.u_r`).  The
    suite draws r + d(x0, x) <= R as well only to keep the cases each seed
    draws fixed.  A drawn x has d(x0, x) <= R // 3, so it gives a case
    r1 < r2 exactly when R >= 2; a smaller radius raises ZoneError."""
    window = _window(space, radius)
    _require_suite_radius(radius, lambda r: r >= 2, "is empty")
    rng = random.Random(seed)
    dist = window._dist
    inner = range(window.count_within(radius // 3))
    zone = max(1, radius // 3)
    cache = {}

    def u_r_at(r, i):
        if r not in cache:
            cache[r] = u_r(window, r, zone).values
        return cache[r][i]

    result = SuiteResult("monotone", trials, 0)
    for _ in range(trials):
        i = rng.choice(inner)
        lo, hi = max(dist[i], 1), radius - dist[i]
        if hi - lo < 1:
            continue
        r1 = rng.randint(lo, hi - 1)
        r2 = rng.randint(r1 + 1, hi)
        u1, u2 = u_r_at(r1, i), u_r_at(r2, i)
        result.checked += 1
        if not (u1 <= u2 <= dist[i]):
            result.violations.append(
                {"vertex": _label(window, i), "r1": r1, "r2": r2,
                 "u_r1": u1, "u_r2": u2, "d": dist[i]})
    return result


def _field_pool(space, radius, rng):
    """Point-assigned fields for a small random pool of nearby vertices.

    The suites that read the pool check stable values only, so a radius
    whose schedule cannot mark any value stable raises ZoneError with the
    smallest radius that can, rather than checking nothing."""
    window = _window(space, radius)
    _require_suite_radius(radius, _suite_settles,
                          "cannot mark any field value stable")
    zone, schedule = _suite_schedule(radius)
    inner = range(window.count_within(zone // 2))
    picks = sorted(rng.sample(inner, min(POOL_SIZE, len(inner))))
    bases = list(map(window.vertex_at, picks))
    fields = point_assigned_family(window, bases, schedule, zone)
    return window, bases, fields


def suite_anti_triangle(space, radius, trials, seed):
    """u_x(y) + u_y(z) <= u_x(z) on sampled triples from a field pool."""
    rng = random.Random(seed)
    window, bases, fields = _field_pool(space, radius, rng)
    result = SuiteResult("anti-triangle", trials, 0)
    labels = window.space.vertex_label
    for _ in range(trials):
        x, y, z = (rng.choice(bases) for _ in range(3))
        fx, fy = fields[x], fields[y]
        if not (fx.stable_at(y) and fy.stable_at(z) and fx.stable_at(z)):
            continue
        result.checked += 1
        if not anti_triangle_check(fx, fy, z):
            result.violations.append(
                {"x": labels(x), "y": labels(y), "z": labels(z),
                 "u_x_y": fx.value_at(y), "u_y_z": fy.value_at(z),
                 "u_x_z": fx.value_at(z)})
    result.stats["pool"] = [labels(b) for b in bases]
    return result


def suite_lipschitz(space, radius, trials, seed):
    """sup_zone |u_a - u_b| <= d(a, b) over sampled base pairs, on the
    zone vertices stable in both fields (:func:`base_lipschitz_gap`); the
    stats count the vertices ``skipped`` as unstable."""
    rng = random.Random(seed)
    window, bases, fields = _field_pool(space, radius, rng)
    result = SuiteResult("lipschitz", trials, 0)
    labels = window.space.vertex_label
    skipped = 0
    for _ in range(trials):
        a, b = rng.choice(bases), rng.choice(bases)
        sup, bound, unstable = base_lipschitz_gap(fields[a], fields[b])
        skipped += unstable
        if sup is None:
            continue
        result.checked += 1
        if sup > bound:
            result.violations.append(
                {"a": labels(a), "b": labels(b), "sup": sup, "d": bound})
    result.stats["pool"] = [labels(b) for b in bases]
    result.stats["skipped"] = skipped
    return result


def suite_gromov(space, radius, trials, seed):
    """Sublevel identity u(x) = t + d(x, {u <= t}) on the point-assigned
    field, at ``trials`` sampled integer thresholds."""
    window, fld = _suite_field(space, radius)
    rng = random.Random(seed)
    lo_t = min(fld.values.values())
    hi_t = max(fld.values.values())
    ts = sorted({rng.randint(lo_t, hi_t) for _ in range(trials)}) \
        if hi_t > lo_t else [lo_t]
    report = gromov_check(fld, ts)
    result = SuiteResult("gromov", trials, sum(report.checked.values()))
    for t, v, u, d in report.violations:
        result.violations.append({"t": t, "vertex": space.vertex_label(v),
                                  "value": u, "sublevel_distance": d})
    result.stats["t_samples"] = ts
    result.stats["skipped"] = report.skipped
    return result


def suite_coray(space, radius, trials, seed):
    """Every sampled vertex with a field value yields >= 1 traced co-ray
    and all traced co-rays pass the exact gradient verification."""
    window, fld = _suite_field(space, radius)
    rng = random.Random(seed)
    starts = fld.zone_indices()
    result = SuiteResult("coray", trials, 0)
    traced = 0
    for _ in range(trials):
        i = rng.choice(starts)
        trace = trace_corays(fld, window.vertex_at(i), max_paths=16)
        if not trace.paths:
            result.violations.append({"start": _label(window, i),
                                      "reason": "no co-ray traced"})
            continue
        for cr in trace.paths:
            result.checked += 1
            traced += 1
            if not verify_gradient(cr, fld):
                result.violations.append(
                    {"start": _label(window, i),
                     "path": [window.space.vertex_label(v)
                              for v in cr.vertices],
                     "reason": "gradient identity failed"})
    result.stats["traced"] = traced
    return result


def suite_sphere(space, radius, trials, seed):
    """Every vertex of S_r has a neighbor on S_{r-1}: spheres grow by
    unit steps, the discrete trace of the geodesic property.  It draws r
    from 1..R, so radius 0 raises ZoneError."""
    window = _window(space, radius)
    _require_suite_radius(radius, lambda r: r >= 1, "is empty")
    rng = random.Random(seed)
    dist, find, adjacency = window._dist, window.find, window._adjacency
    result = SuiteResult("sphere", trials, 0)
    for _ in range(trials):
        r = rng.randint(1, radius)
        for v in sphere(window, r):      # grows the window to r
            i = find(v)
            result.checked += 1
            if not any(dist[j] == r - 1 for j in adjacency[i]):
                result.violations.append({"r": r,
                                          "vertex": _label(window, i)})
    return result


SUITES = {
    "monotone": suite_monotone,
    "anti-triangle": suite_anti_triangle,
    "lipschitz": suite_lipschitz,
    "gromov": suite_gromov,
    "coray": suite_coray,
    "sphere": suite_sphere,
}


def run_suite(name, space, radius, trials, seed):
    fn = SUITES.get(name)
    if fn is None:
        raise DomainError(f"unknown suite {name!r}; "
                          f"choose from {sorted(SUITES)}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    return fn(space, radius, trials, seed)
