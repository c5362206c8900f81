"""Command-line front end.

Space specs come either as a JSON file path ({"generator", "params",
"scale"}) or as shorthand ``name`` / ``name:key=val,key=val`` with an
optional ``scale=p/q`` entry.  A spec is a path when it ends in ``.json``
or a path separator comes before its first ':', whatever files exist.
All output is canonical JSON (sorted keys, fixed separators) so identical
configs produce byte-identical artifacts.

Exit codes: 0 success, 1 invariant violation (JSON witness emitted),
2 usage / precondition error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import checks, corays, fields, gh, pseudometric, zoo
from .errors import DlscapeError, DomainError, GeneratorParamError, \
    ZoneError
from .space import materialize_window, shortest_path

DEFAULT_SEED = 0


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_fraction(text):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"expected an integer or p/q with q != 0, "
                          f"got {text!r}") from None


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{path} is not valid JSON: {exc}") from None


def load_space(spec):
    """JSON file path, or shorthand 'name' / 'name:key=val,...'.  A path
    ends in '.json' or has a path separator before its first ':' (the
    shorthand's 'scale=p/q' holds one after it), so a file in the working
    directory named like a shorthand never shadows it."""
    head = spec.partition(":")[0]
    if spec.endswith(".json") or os.sep in head or \
            (os.altsep is not None and os.altsep in head):
        return zoo.build_from_dict(_load_json(spec))
    name, _, tail = spec.partition(":")
    params, scale = {}, Fraction(1)
    if tail:
        for item in tail.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise DlscapeError(
                    f"bad space parameter {item!r}; expected key=value")
            if key == "scale":
                scale = _parse_fraction(val)
                continue
            try:
                params[key] = int(val)
            except ValueError:
                raise GeneratorParamError(
                    f"space parameter {key} must be an integer, "
                    f"got {val!r}") from None
    return zoo.build(name, params, scale)


def _vertex(space, text):
    try:
        return space.parse_vertex(text)
    except ValueError:
        raise DomainError(f"bad vertex label {text!r} for generator "
                          f"{space.generator_id}") from None


def _window_for(args):
    space = load_space(args.space)
    base = _vertex(space, args.base) if args.base is not None \
        else space.default_base()
    return space, materialize_window(space, base, args.radius)


def _schedule(args):
    if args.r_max < 1:
        raise DomainError(f"--r-max must be >= 1, got {args.r_max}")
    if args.r_step is not None and args.r_step < 1:
        raise DomainError(f"--r-step must be >= 1, got {args.r_step}")
    step = args.r_step if args.r_step else max(1, args.r_max // 10)
    sched = list(range(step, args.r_max + 1, step))
    if not sched or sched[-1] != args.r_max:
        sched.append(args.r_max)
    return sched


def _zone(args):
    return args.zone if args.zone is not None else max(1, args.radius // 5)


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _field_csv(field):
    """The rows of ``fields.field_to_json``, one CSV line each."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["vertex", "dist_from_base", "value",
                                  "stable", "last_change"],
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(fields.field_to_json(field)["values"])
    return buf.getvalue()


def _point_assigned(args):
    space, window = _window_for(args)
    fld, _ = fields.u_point_assigned(window, _schedule(args), _zone(args),
                                     args.tail)
    return space, window, fld


def cmd_zoo(args):
    _emit(args, _canonical(zoo.catalog()))
    return 0


def _emit_field(args, fld):
    _emit(args, _field_csv(fld) if args.csv else
          _canonical(fields.field_to_json(fld)))
    return 0


def cmd_field(args):
    return _emit_field(args, _point_assigned(args)[2])


def cmd_level_set(args):
    space, _, fld = _point_assigned(args)
    verts = fields.level_set(fld, args.level)
    _emit(args, _canonical({"level": args.level,
                            "vertices": [space.vertex_label(v)
                                         for v in verts]}))
    return 0


def _ray_from_args(args, space, window):
    if args.ray:
        return [_vertex(space, t) for t in args.ray.split(";")]
    if args.ray_target:
        return shortest_path(window, _vertex(space, args.ray_target))
    raise DlscapeError("provide --ray or --ray-target")


def cmd_busemann(args):
    space, window = _window_for(args)
    ray = _ray_from_args(args, space, window)
    T = args.T if args.T is not None else len(ray) - 1
    fld, _ = fields.busemann(window, ray, T, _zone(args), args.tail)
    return _emit_field(args, fld)


def cmd_horo(args):
    space, window = _window_for(args)
    points = [_vertex(space, t) for t in args.points.split(";")]
    fld, _ = fields.horofunction(window, points, _zone(args), args.tail)
    return _emit_field(args, fld)


def cmd_coray(args):
    space, window = _window_for(args)
    sched, zone = _schedule(args), _zone(args)
    start = window.base
    if args.start is not None:
        # Looked up before the field is built: a need re-run stops at the
        # field's sweep, so a check after it would go unseen.
        start = _vertex(space, args.start)
        window.require_zone(start, window.radius)
    fld, _ = fields.u_point_assigned(window, sched, zone, args.tail)
    trace = corays.trace_corays(fld, start, max_paths=args.max_paths)
    oks = [corays.verify_gradient(cr, fld) for cr in trace.paths]
    out_paths = []
    for cr, ok in zip(trace.paths, oks):
        out_paths.append({
            "vertices": [space.vertex_label(v) for v in cr.vertices],
            "decrements": list(cr.decrements),
            "truncated": cr.truncated,
            "gradient_ok": ok,
        })
    payload = {"start": space.vertex_label(start),
               "descending_neighbors": corays.uniqueness_probe(fld, start),
               "paths": out_paths, "exhausted": trace.exhausted}
    _emit(args, _canonical(payload))
    return 0 if all(oks) else 1


def cmd_rho(args):
    space, window = _window_for(args)
    sample = [_vertex(space, t) for t in args.sample.split(";")]
    sched, zone = _schedule(args), _zone(args)
    # The sample's checks before the family's, and before its first sweep,
    # where a need re-run stops.
    window.require_sample(sample)
    flds = pseudometric.point_assigned_family(window, sample, sched, zone,
                                              args.tail)
    rho = pseudometric.rho_matrix(window, sample, sched, zone, args.tail,
                                  fields=flds)
    part = pseudometric.equivalence_classes(window, sample, sched, zone,
                                            args.tail, fields=flds, rho=rho)
    bad = rho.axiom_violations()
    payload = {"rho": rho.to_json(space), "partition": part.to_json(space),
               "axiom_violations": [[str(x) for x in w] for w in bad]}
    _emit(args, _canonical(payload))
    return 0 if not bad else 1


def cmd_gh(args):
    X = gh.FiniteMetricSpace.from_json(_load_json(args.x))
    Y = gh.FiniteMetricSpace.from_json(_load_json(args.y))
    lower, upper, corr = gh.gh_bounds(X, Y)
    iso = gh.build_eps_isometry(corr, X, Y)
    payload = {"lower": str(lower), "upper": str(upper),
               "correspondence": corr.to_json(),
               "eps_isometry": iso.to_json()}
    _emit(args, _canonical(payload))
    return 0


def cmd_experiment(args):
    space_x = load_space(args.space_x)
    space_y = load_space(args.space_y)
    wx = materialize_window(space_x, space_x.default_base(), args.radius)
    wy = materialize_window(space_y, space_y.default_base(), args.radius)
    sched, zone = _schedule(args), _zone(args)
    fx, _ = fields.u_point_assigned(wx, sched, zone, args.tail)
    fy, _ = fields.u_point_assigned(wy, sched, zone, args.tail)
    report = gh.pa_gh_experiment(fx, fy, gh.MAPPINGS[args.map],
                                 _parse_fraction(args.eps))
    payload = report.to_json(space_x)
    payload["conclusive"] = report.conclusive
    _emit(args, _canonical(payload))
    if not report.conclusive:
        return 0
    return 0 if report.abs_bound_ok and report.one_sided_bound_ok else 1


def cmd_check(args):
    space = load_space(args.space)
    result = checks.run_suite(args.suite, space, args.radius, args.trials,
                              args.seed)
    _emit(args, _canonical(result.to_json()))
    return 0 if result.ok else 1


def _add_output(p):
    p.add_argument("--output", help="write to file instead of stdout")


def _add_window_args(p):
    p.add_argument("--space", required=True,
                   help="space spec: JSON file or name[:key=val,...]")
    p.add_argument("--base", help="base vertex label (generator default "
                                  "if omitted)")
    p.add_argument("--radius", type=int, required=True,
                   help="window radius R")
    p.add_argument("--zone", type=int, help="validity zone (default R//5)")
    p.add_argument("--tail", type=int,
                   help="stability tail W (default 2*zone)")


def _add_schedule_args(p):
    p.add_argument("--r-max", type=int, required=True,
                   help="largest sphere radius in the schedule")
    p.add_argument("--r-step", type=int,
                   help="schedule step (default r-max//10)")


class _Parser(argparse.ArgumentParser):
    """Misuse exits 2 with canonical JSON on stderr; subparsers inherit."""

    def error(self, message):
        sys.stderr.write(_canonical({"error": "UsageError",
                                     "message": f"{self.prog}: {message}"}))
        self.exit(2)


def build_parser():
    parser = _Parser(
        prog="dlscape",
        description="Distance-like functions, co-rays, the pseudo-metric "
                    "rho, and pointed GH bounds on graph windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="generator catalog")
    p.add_argument("action", choices=["list"])
    _add_output(p)
    p.set_defaults(fn=cmd_zoo)

    p = sub.add_parser("field", help="point-assigned field")
    _add_window_args(p)
    _add_schedule_args(p)
    p.add_argument("--csv", action="store_true", help="CSV table output")
    _add_output(p)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("level-set", help="exact level set of the field")
    _add_window_args(p)
    _add_schedule_args(p)
    p.add_argument("--level", type=int, required=True)
    _add_output(p)
    p.set_defaults(fn=cmd_level_set)

    p = sub.add_parser("busemann", help="Busemann field along a ray")
    _add_window_args(p)
    p.add_argument("--ray", help="semicolon-separated vertex labels")
    p.add_argument("--ray-target",
                   help="trace the BFS geodesic from base to this vertex")
    p.add_argument("--T", type=int, help="last anchor index (default: ray "
                                         "length - 1)")
    p.add_argument("--csv", action="store_true")
    _add_output(p)
    p.set_defaults(fn=cmd_busemann)

    p = sub.add_parser("horo", help="horofunction field along points")
    _add_window_args(p)
    p.add_argument("--points", required=True,
                   help="semicolon-separated vertex labels, diverging")
    p.add_argument("--csv", action="store_true")
    _add_output(p)
    p.set_defaults(fn=cmd_horo)

    p = sub.add_parser("coray", help="trace and verify co-rays")
    _add_window_args(p)
    _add_schedule_args(p)
    p.add_argument("--start", help="start vertex label (default: base)")
    p.add_argument("--max-paths", type=int, default=64)
    _add_output(p)
    p.set_defaults(fn=cmd_coray)

    p = sub.add_parser("rho", help="pseudo-metric matrix on a sample")
    _add_window_args(p)
    _add_schedule_args(p)
    p.add_argument("--sample", required=True,
                   help="semicolon-separated vertex labels")
    _add_output(p)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("gh", help="pointed GH bounds for two finite spaces")
    p.add_argument("--x", required=True, help="finite-space JSON file")
    p.add_argument("--y", required=True, help="finite-space JSON file")
    _add_output(p)
    p.set_defaults(fn=cmd_gh)

    p = sub.add_parser("experiment", help="experiment harnesses")
    p.add_argument("kind", choices=["pa-gh"])
    p.add_argument("--space-x", required=True)
    p.add_argument("--space-y", required=True)
    p.add_argument("--eps", required=True, help="epsilon, int or p/q")
    p.add_argument("--map", default="identity", choices=sorted(gh.MAPPINGS),
                   help="named map")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--zone", type=int)
    p.add_argument("--tail", type=int)
    _add_schedule_args(p)
    _add_output(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("check", help="seeded invariant suites")
    p.add_argument("--suite", required=True,
                   help=f"one of {sorted(checks.SUITES)}")
    p.add_argument("--space", required=True)
    p.add_argument("--radius", type=int, default=48)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p)
    p.set_defaults(fn=cmd_check)

    return parser


def _radius_miss(exc):
    """The need of a radius ZoneError, else None."""
    return exc.need if isinstance(exc, ZoneError) and \
        exc.parameter == "radius" else None


def _radius_need(args, need):
    """The command's radius need from ``need``, the first radius
    ZoneError's: the command runs again at the need, output discarded,
    until no radius ZoneError names a larger one.  A check's need does not
    fall as R grows, so no run exceeds the smallest radius where all hold;
    a fixed need (a lookup's is its whole list's) fails in one run at most,
    the margin d(base, H_n) + R // 5 in about log_5 R runs.

    Each run has tail -1, which the command's first sweep refuses before
    any step runs (:func:`~dlscape.fields._sweep`), after every radius
    check.  So a run costs the checks' lookups and the window growth they
    read, not the answer.  ``check`` takes no tail, so its suites run in
    full, at their own need, a few units."""
    while True:
        again = argparse.Namespace(**{**vars(args), "radius": need,
                                      "tail": -1, "output": os.devnull})
        try:
            args.fn(again)
        except Exception as exc:    # past the asked radius, any error ends
            larger = _radius_miss(exc)
            if larger is not None and larger > need:
                need = larger
                continue
        return need


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # --help, or misuse (see _Parser)
        return exc.code or 0
    try:
        return args.fn(args)
    except DlscapeError as exc:
        need = _radius_miss(exc)
        if need is not None:
            exc.need = _radius_need(args, need)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("parameter", "witness", "vertex"):
            val = getattr(exc, attr, None)
            if val is not None:
                payload[attr] = str(val)
        need = getattr(exc, "need", None)
        if need is not None:
            payload["need"] = need
        sys.stderr.write(_canonical(payload))
        return 2
    except OSError as exc:
        sys.stderr.write(_canonical({"error": "OSError",
                                     "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
