"""Seeded inputs, jobs and independent output checks for each workload.

A workload is a list of jobs built from the seed before timing starts
(``make_jobs``).  A job does what one ``dlscape`` CLI command does:
materialize, compute, the command's own check, and canonical-JSON export
(``run_job``).  ``check_job`` then verifies the job's result against a
route that does not share the computation: closed-form oracles, brute
force, or re-verification.  Checking happens outside the timed region.

Every call into the program goes through a module attribute
(``fields.u_point_assigned``, not an imported name), so the tracer can
rebind those attributes.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

from dlscape import cli, corays, fields, gh, pseudometric, space, zoo
from dlscape.errors import DomainError

# A job list is long enough that a run seldom repeats a job, so a run's
# job times sample the workload rather than one short list.  Jobs cycle
# through the spaces (or GH size classes) in a fixed order; a round covers
# each once, and a run stops only at a round boundary, so every space is
# equally weighted.  Spaces within a workload are sized so their job times
# overlap: a median that falls in a gap between two spaces' job times
# swings with a single job.  The first TRACE_JOBS jobs (whole rounds) are
# the traced and digested prefix.
ROUND = {"coray": 2, "gh": 4, "rho": 4}
TRACE_JOBS = {"coray": 8, "gh": 120, "rho": 4}

CORAY_SPACES = (("h_graph", 120, 20, 96), ("grid2d", 60, 10, 48))
CORAY_STARTS = 96          # stratified start vertices per space
CORAY_MAX_PATHS = 8

# (n_X, n_Y) size classes.  Other classes up to 6 points have search-time
# tails -- to 0.15 s for (3, 6), to seconds and the node cap for (6, 6) --
# whose top percentile no 25 s run reproduces across seeds, and (3, 4)
# and (4, 3) need a 0.5 s brute force each, so they are left out.
GH_SIZES = ((3, 3), (5, 3), (6, 3), (4, 4))
GH_PER_SIZE = 600
GH_BRUTE_MAX = 12          # brute-force oracle wherever n_X * n_Y <= 12

# (space, R, zone, r-max, r-step, tail, sample radius).  Sample points lie
# within the sample radius of the base, so each pair is within the zone
# (the halfline is one-ended: [0, 10] has diameter 10) and the classes
# keep an evaluation zone of at least zone - radius >= 2.  The line and
# halfline windows hold about 12,000 vertices, like the other two, and
# their tails span two schedule steps so every entry can stabilize.
RHO_SPACES = (("line", 6000, 10, 4800, 480, 960, 5),
              ("halfline", 12000, 12, 9600, 960, 1920, 10),
              ("h_graph", 120, 16, 96, None, None, 8),
              ("grid2d", 80, 16, 64, None, None, 8))
RHO_SAMPLE = 8
RHO_JOBS = 16              # jobs per space


class CheckError(Exception):
    """A job's output disagrees with its independent route."""


def _schedule(r_max, r_step=None):
    """The CLI's default schedule for ``--r-max`` (and ``--r-step``)."""
    return cli._schedule(SimpleNamespace(r_max=r_max, r_step=r_step))


def _ball(gspace, base, radius):
    """Vertices within ``radius`` of base as (distance, label, vertex),
    sorted; a plain BFS over the generator's neighbor rule, independent of
    the window code under test."""
    dist = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in gspace.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return sorted((d, gspace.vertex_label(v), v) for v, d in dist.items())


def _stratified(rng, items, k):
    """One uniform pick from each of k equal-count strata of ``items``."""
    n = len(items)
    return [items[rng.randrange(n * s // k, n * (s + 1) // k)]
            for s in range(k)]


def _metric_from_weights(n, weights):
    """Shortest-path closure of a weighted complete graph, as in the GH
    acceptance criterion: always a metric with positive off-diagonal."""
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
    return d


def _finite_space_text(rng, n):
    d = _metric_from_weights(n, [rng.randint(1, 9)
                                 for _ in range(n * (n - 1) // 2)])
    return cli._canonical({"n": n, "base": 0,
                           "scale": {"num": 1, "den": 1}, "dist": d})


def make_jobs(workload, seed):
    """The seeded job list, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = []
    if workload == "coray":
        for name, radius, zone, r_max in CORAY_SPACES:
            gspace = zoo.build(name)
            ball = _ball(gspace, gspace.default_base(), zone)
            starts = _stratified(rng, ball, CORAY_STARTS)
            rng.shuffle(starts)
            groups.append([("coray", name, radius, zone, r_max, label)
                           for _, label, _ in starts])
    elif workload == "gh":
        for nx, ny in GH_SIZES:
            groups.append([("gh", _finite_space_text(rng, nx),
                            _finite_space_text(rng, ny))
                           for _ in range(GH_PER_SIZE)])
    elif workload == "rho":
        for name, radius, zone, r_max, r_step, tail, near in RHO_SPACES:
            gspace = zoo.build(name)
            base = gspace.default_base()
            others = [label for _, label, v in _ball(gspace, base, near)
                      if v != base]
            groups.append([
                ("rho", name, radius, zone, r_max, r_step, tail,
                 (gspace.vertex_label(base),)
                 + tuple(rng.sample(others, RHO_SAMPLE - 1)))
                for _ in range(RHO_JOBS)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [job for round_ in zip(*groups) for job in round_]


# ---------------------------------------------------------------------------
# Jobs.  Each returns (canonical JSON text, result kept for the check).


def _coray(name, radius, zone, r_max, start_label):
    gspace = zoo.build(name)
    window = space.materialize_window(gspace, gspace.default_base(), radius)
    fld, _ = fields.u_point_assigned(window, _schedule(r_max), zone)
    start = gspace.parse_vertex(start_label)
    trace = corays.trace_corays(fld, start, max_paths=CORAY_MAX_PATHS)
    paths = []
    for cr in trace.paths:
        paths.append({
            "vertices": [gspace.vertex_label(v) for v in cr.vertices],
            "decrements": list(cr.decrements),
            "truncated": cr.truncated,
            "gradient_ok": corays.verify_gradient(cr, fld),
        })
    rep = corays.representation_check(fld, start, trace.paths)
    payload = {"start": start_label,
               "descending_neighbors": corays.uniqueness_probe(fld, start),
               "paths": paths, "exhausted": trace.exhausted,
               "representation": {"ok": rep.ok,
                                  "equality": rep.equality_achieved,
                                  "stable": len(rep.entries),
                                  "inconclusive": len(rep.inconclusive)}}
    text = cli._canonical(payload)
    return text, (fld, paths, rep)


def _gh(x_text, y_text):
    X = gh.FiniteMetricSpace.from_json(json.loads(x_text))
    Y = gh.FiniteMetricSpace.from_json(json.loads(y_text))
    lower, upper, corr = gh.gh_bounds(X, Y)
    iso = gh.build_eps_isometry(corr, X, Y)
    eps = max(iso.dis, iso.net_eps, Fraction(1, 2))
    back = gh.corr_from_isometry(iso, X, Y, eps)
    payload = {"lower": str(lower), "upper": str(upper),
               "correspondence": corr.to_json(),
               "eps_isometry": iso.to_json(),
               "back_distortion": str(back.distortion)}
    return cli._canonical(payload), (X, Y, lower, upper, corr)


def _rho(name, radius, zone, r_max, r_step, tail, sample_labels):
    gspace = zoo.build(name)
    window = space.materialize_window(gspace, gspace.default_base(), radius)
    sample = [gspace.parse_vertex(t) for t in sample_labels]
    sched = _schedule(r_max, r_step)
    flds = pseudometric.point_assigned_family(window, sample, sched, zone,
                                              tail)
    rho = pseudometric.rho_matrix(window, sample, sched, zone, tail,
                                  fields=flds)
    part = pseudometric.equivalence_classes(window, sample, sched, zone,
                                            tail, fields=flds, rho=rho)
    bad = rho.axiom_violations()
    payload = {"rho": rho.to_json(gspace), "partition": part.to_json(gspace),
               "axiom_violations": [[str(x) for x in w] for w in bad]}
    return cli._canonical(payload), (gspace, flds, rho, bad)


_RUNNERS = {"coray": _coray, "gh": _gh, "rho": _rho}


def run_job(job):
    return _RUNNERS[job[0]](*job[1:])


# ---------------------------------------------------------------------------
# Independent checks.


def _expected_u(gspace, base, vertex):
    """Closed-form point-assigned value, or None where none is known.

    The zoo oracles cover h_graph (base (0,0)), line and halfline; on the
    Z^2 lattice the spheres are L1 diamonds, so u_b(x) = -|x - b|_1.
    """
    name = gspace.generator_id
    if name == "grid2d":
        return -abs(vertex[0] - base[0]) - abs(vertex[1] - base[1])
    if name == "h_graph" and base != (0, 0):
        return None
    if name in ("h_graph", "line", "halfline"):
        return zoo.oracle(gspace, "point_assigned", base, vertex)
    return None


def _check_field(fld):
    window = fld.window
    gspace, base = window.space, window.base
    for i, value in fld.values.items():
        want = _expected_u(gspace, base, window.vertices[i])
        if want is not None and value != want:
            raise CheckError(f"u at {window.vertices[i]!r} is {value}, "
                             f"oracle says {want}")


def _expected_two_rho(gspace, x, y):
    name = gspace.generator_id
    if name == "grid2d":
        return 2 * (abs(x[0] - y[0]) + abs(x[1] - y[1]))
    if name in ("line", "halfline"):
        rho = zoo.oracle(gspace, "rho", x, y) * gspace.scale
        return int(2 * rho)
    return None


def check_job(job, result):
    """Raise :class:`CheckError` if the job's result is wrong."""
    kind = job[0]
    if kind == "coray":
        fld, paths, rep = result
        _check_field(fld)
        if not paths:
            raise CheckError("no co-ray traced")
        if not all(p["gradient_ok"] for p in paths):
            raise CheckError("a co-ray failed verify_gradient")
        if not (rep.ok and rep.equality_achieved):
            raise CheckError("representation bound or equality failed")
    elif kind == "gh":
        X, Y, lower, upper, corr = result
        try:
            corr.validate(X, Y)
        except DomainError as exc:
            raise CheckError(f"correspondence invalid: {exc}") from exc
        if not corr.proved_optimal:
            raise CheckError("search not proved optimal within budget")
        if lower * 2 != upper or upper != corr.distortion:
            raise CheckError("GH sandwich does not match the distortion")
        if X.n * Y.n <= GH_BRUTE_MAX:
            brute = gh.brute_force_min_distortion(X, Y)
            if brute.distortion != corr.distortion:
                raise CheckError(f"brute force gives {brute.distortion}, "
                                 f"search gives {corr.distortion}")
    elif kind == "rho":
        gspace, flds, rho, bad = result
        if bad:
            raise CheckError(f"pseudo-metric axioms violated: {bad[:3]}")
        for fld in flds.values():
            _check_field(fld)
        n = len(rho.sample)
        for i in range(n):
            for j in range(n):
                want = _expected_two_rho(gspace, rho.sample[i],
                                         rho.sample[j])
                if want is not None and rho.stable[i][j] \
                        and rho.two_rho[i][j] != want:
                    raise CheckError(
                        f"2*rho{rho.sample[i], rho.sample[j]} is "
                        f"{rho.two_rho[i][j]}, oracle says {want}")
