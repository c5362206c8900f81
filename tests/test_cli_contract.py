"""The CLI contract on random small argv, argparse misuse included: exit
0, 1 or 2; exit 1 only with a witness on stdout; exit 2 with JSON on
stderr; never a traceback.  With an explicit zone and schedule, a larger
window changes no answer.  With the zone explicit or left to its default
R // 5, at a radius ZoneError's ``need`` no radius check with a need
fails."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from dlscape import checks, gh
from dlscape.cli import main

SPACES = ["line", "halfline", "tree:b=2", "grid2d", "h_graph",
          "stick:m=3,h=1", "pendant_line", "cylinder:m=5"]

# Mostly valid sizes, with 0, negative and oversized values mixed in.
small = st.one_of(st.integers(1, 24), st.integers(-3, 30))
garbage = st.sampled_from(["", "x", "1,2,3", "root.7", "apex:1", "-"])


def _axis(kind, n):
    """A vertex n steps out along a ray from the base (n >= 0)."""
    if kind in ("line", "halfline"):
        return str(n)
    if kind == "tree":
        return ".".join(["0"] * n) or "root"
    if kind == "stick":
        return f"ray:0:{n}" if n else "apex"
    return f"{n},0"


@st.composite
def labels(draw, space):
    """Vertex labels of ``space``, in and out of any zone, or garbage."""
    kind = space.partition(":")[0]
    n = draw(st.one_of(st.integers(-6, 6), st.integers(-30, 30)))
    k = draw(st.integers(-1, 5))
    if kind in ("line", "halfline"):
        good = str(n)
    elif kind == "tree":
        digits = draw(st.lists(st.integers(0, 2), max_size=6))
        good = ".".join(map(str, digits)) or "root"
    elif kind == "stick":
        good = draw(st.sampled_from(
            ["apex", f"spoke:{k}:1", f"cycle:{k}", f"ray:{k}:{abs(n)}"]))
    else:
        good = f"{n},{k}"
    return draw(st.one_of(st.just(good), st.just(good), garbage))


# Entries a finite-space file may hold in place of an integer.
NOT_INTS = st.sampled_from([1.5, 2.0, 0.9, True, False, None, "1",
                            float("nan"), float("inf"), -float("inf"),
                            "1e400"])


@st.composite
def finite_space_json(draw):
    """Finite-space JSON text, n <= 12: a metric (weights closed under
    shortest paths) that is then often broken by a float, bool, NaN or
    infinity entry, a ragged row, or a wrong n, base or scale."""
    n = draw(st.integers(1, 12))
    d = [[0 if i == j else draw(st.integers(1, 4)) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    data = {"n": n, "base": draw(st.integers(0, n - 1)),
            "scale": {"num": draw(st.integers(1, 3)), "den": 1},
            "dist": d}
    flaw = draw(st.sampled_from(["none", "none", "entry", "ragged", "n",
                                 "base", "scale", "shape"]))
    if flaw == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(NOT_INTS)
    elif flaw == "ragged":
        d[draw(st.integers(0, n - 1))].pop()
    elif flaw in ("n", "base"):
        data[flaw] = draw(st.one_of(NOT_INTS, st.integers(-1, 9)))
    elif flaw == "scale":
        data["scale"][draw(st.sampled_from(["num", "den"]))] = \
            draw(st.one_of(NOT_INTS, st.integers(-1, 0)))
    elif flaw == "shape":
        data = draw(st.sampled_from([[], d, None, 3, {"n": n}]))
    # "1e400" goes in as a number token, which JSON reads as infinity.
    return json.dumps(data).replace('"1e400"', "1e400")


@st.composite
def space_spec_json(draw, space):
    """Space-spec JSON text for the shorthand ``space``: its spec, often
    broken by a spec that is not an object, a generator that is not a
    string, params that are not an object or hold a non-integer, or a bad
    scale."""
    name, _, tail = space.partition(":")
    params = {k: int(v) for k, v in
              (item.split("=") for item in tail.split(",") if item)}
    spec = {"generator": name, "params": params,
            "scale": {"num": 1, "den": 1}}
    flaw = draw(st.sampled_from(["none", "none", "shape", "generator",
                                 "params", "value", "scale"]))
    if flaw == "shape":
        spec = draw(st.sampled_from([["generator"], "generator", None, 3,
                                     [spec]]))
    elif flaw == "generator":
        spec["generator"] = draw(st.sampled_from([[name], None, 3,
                                                  {"name": name}, "mobius"]))
    elif flaw == "params":
        spec["params"] = draw(st.sampled_from(
            [[1], [list(p) for p in params.items()], [], "m=5", 5, None]))
    elif flaw == "value" and params:
        params[draw(st.sampled_from(sorted(params)))] = draw(NOT_INTS)
    elif flaw == "scale":
        spec["scale"] = draw(st.sampled_from([[1, 1], 3, {"num": 1},
                                              {"num": 1, "den": 0}]))
    return json.dumps(spec).replace('"1e400"', "1e400")


# (space-x, space-y, map): the spaces each map is made for, then the same
# pairs in the other order, then any two spaces with any map or one that
# does not exist.
MADE_FOR = [("pendant_line", "line", "nearest_spine"),
            ("line", "pendant_line", "spine"), ("line", "line", "identity"),
            ("h_graph", "h_graph", "identity")]
PLANS = st.one_of(
    st.sampled_from(MADE_FOR),
    st.sampled_from(MADE_FOR).map(lambda p: (p[1], p[0], p[2])),
    st.tuples(st.sampled_from(SPACES), st.sampled_from(SPACES),
              st.sampled_from([*gh.MAPPINGS, "fold"])))


@st.composite
def experiment_argv(draw, radius, zone, r_max, plans=PLANS,
                    eps=("1", "0", "1/2", "-1", "e")):
    """``experiment pa-gh`` argv; the radius comes third, as in the other
    commands' argv."""
    x, y, fmap = draw(plans)
    return ["experiment", "pa-gh", f"--radius={radius}", f"--space-x={x}",
            f"--space-y={y}", f"--map={fmap}",
            f"--eps={draw(st.sampled_from(eps))}", f"--zone={zone}",
            f"--r-max={r_max}"]


@st.composite
def misuse(draw, argv):
    """``argv`` broken the ways argparse refuses: an unknown command or
    choice, a missing required flag, a non-integer radius, a stray flag."""
    how = draw(st.sampled_from(["command", "choice", "drop", "radius",
                                "stray"]))
    if how == "command":
        return ["bogus"] + argv[1:]
    if how == "choice":
        return ["zoo", draw(st.sampled_from(["show", "", "List"]))]
    if how == "drop":
        return [a for a in argv if not a.startswith(("--space", "--x="))]
    if how == "radius":     # the last --radius counts
        return argv + [f"--radius={draw(st.sampled_from(['1.5', 'x']))}"]
    return argv + ["--no-such-flag"]


@st.composite
def argvs(draw):
    argv = draw(valid_argvs())
    return draw(misuse(argv)) if draw(st.integers(0, 9)) == 5 else argv


@st.composite
def valid_argvs(draw):
    command = draw(st.sampled_from(
        ["field", "level-set", "coray", "busemann", "horo", "rho", "check",
         "gh", "zoo", "experiment"]))
    if command == "zoo":
        return ["zoo", "list"]
    if command == "gh":
        return ["gh", f"--x={draw(finite_space_json())}",
                f"--y={draw(finite_space_json())}"]
    if command == "experiment":
        zone = draw(st.one_of(st.integers(1, 8), small))
        return draw(experiment_argv(draw(small), zone, draw(small)))
    space = draw(st.sampled_from(SPACES))
    spec = draw(st.one_of(st.just(space), st.just(space),
                          space_spec_json(space)))
    radius = draw(small)
    if command == "check":
        suite = draw(st.sampled_from(sorted(checks.SUITES)))
        return ["check", f"--suite={suite}", f"--space={spec}",
                f"--radius={radius}",
                f"--trials={draw(st.integers(-2, 4))}",
                f"--seed={draw(st.integers(0, 3))}"]
    argv = [command, f"--space={spec}", f"--radius={radius}"]
    zone = draw(st.one_of(st.none(), st.integers(1, 8), small))
    if zone is not None:
        argv.append(f"--zone={zone}")
    label = labels(space)
    kind = space.partition(":")[0]
    if command in ("field", "level-set", "coray", "rho"):
        argv.append(f"--r-max={draw(small)}")
        step = draw(st.one_of(st.none(), st.integers(-1, 8)))
        if step is not None:
            argv.append(f"--r-step={step}")
    if command == "level-set":
        argv.append(f"--level={draw(st.integers(-30, 4))}")
    elif command == "coray":
        if draw(st.booleans()):
            argv.append(f"--start={draw(label)}")
        paths = draw(st.one_of(st.none(), st.integers(-3, 4)))
        if paths is not None:
            argv.append(f"--max-paths={paths}")
    elif command == "busemann":
        if draw(st.booleans()):
            argv.append(f"--ray-target={draw(label)}")
        else:
            lo, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
            ray = draw(st.one_of(
                st.lists(label, min_size=1, max_size=4),
                st.just([_axis(kind, t) for t in range(lo, lo + n + 1)])))
            argv.append(f"--ray={';'.join(ray)}")
        T = draw(st.one_of(st.none(), st.none(), st.integers(-1, 6)))
        if T is not None:
            argv.append(f"--T={T}")
    elif command == "horo":
        steps = st.lists(st.integers(0, 20), min_size=1, max_size=4)
        points = draw(st.one_of(
            st.lists(label, min_size=1, max_size=4),
            steps.map(lambda ns: [_axis(kind, n) for n in sorted(ns)])))
        argv.append(f"--points={';'.join(points)}")
    elif command == "rho":
        sample = draw(st.lists(label, min_size=1, max_size=3))
        argv.append(f"--sample={';'.join(sample)}")
    return argv


def _has_witness(command, payload):
    if command == "coray":
        return any(not p["gradient_ok"] for p in payload["paths"])
    if command == "rho":
        return bool(payload["axiom_violations"])
    if command == "check":
        return not payload["ok"] and bool(payload["violations"])
    if command == "experiment":
        return payload["conclusive"] and payload["witness_abs"] is not None
    return False


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    # A small vertex budget turns exponential windows into exit 2 quickly.
    with mock.patch.dict(os.environ, {"DLSCAPE_MAX_VERTICES": "20000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _with_files(argv, tmp):
    """gh argv carry each space's JSON text in --x and --y, and the window
    commands may carry a space spec's JSON text in --space; write the text
    to a file under ``tmp`` and pass its path instead."""
    out = []
    for arg in argv:
        flag, _, text = arg.partition("=")
        if flag in ("--x", "--y") or flag == "--space" and \
                text not in SPACES:
            path = os.path.join(tmp, flag[2:] + ".json")
            with open(path, "w") as fh:
                fh.write(text)
            arg = f"{flag}={path}"
        out.append(arg)
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run(_with_files(argv, tmp))
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert _has_witness(argv[0], json.loads(out)), (argv, out)
    if code == 2:
        assert "error" in json.loads(err), (argv, err)
    else:
        json.loads(out)


@st.composite
def explicit_argvs(draw, zones=st.integers(1, 8)):
    """argv of field, level-set, coray, busemann, horo, rho or experiment
    with --r-max set, and --zone drawn from ``zones``, None for its
    default (experiment always sets it); most vertices lie on a ray from
    the base, near enough to pass."""
    command = draw(st.sampled_from(["field", "level-set", "coray",
                                    "busemann", "horo", "rho",
                                    "experiment"]))
    if command == "experiment":
        return draw(experiment_argv(
            draw(st.integers(1, 28)), draw(st.integers(1, 8)),
            draw(st.integers(1, 24)), st.sampled_from(MADE_FOR), ("1", "2")))
    space = draw(st.sampled_from(SPACES))
    kind = space.partition(":")[0]
    near = st.integers(0, 8).map(lambda n: _axis(kind, n))
    label = st.one_of(near, near, labels(space))
    argv = [command, f"--space={space}",
            f"--radius={draw(st.integers(1, 28))}"]
    zone = draw(zones)
    if zone is not None:
        argv.append(f"--zone={zone}")
    if command in ("field", "level-set", "coray", "rho"):
        argv.append(f"--r-max={draw(st.integers(1, 24))}")
    if command == "level-set":
        argv.append(f"--level={draw(st.integers(-8, 2))}")
    elif command == "coray" and draw(st.booleans()):
        argv.append(f"--start={draw(label)}")
    elif command == "busemann":
        argv.append(f"--ray-target={draw(label)}")
    elif command == "horo":
        steps = st.lists(st.integers(0, 12), min_size=2, max_size=4,
                         unique=True)
        points = draw(st.one_of(
            steps.map(lambda ns: [_axis(kind, n) for n in sorted(ns)]),
            st.lists(label, min_size=1, max_size=3)))
        argv.append(f"--points={';'.join(points)}")
    elif command == "rho":
        sample = draw(st.lists(label, min_size=1, max_size=3))
        argv.append(f"--sample={';'.join(sample)}")
    return argv


def _at(argv, radius):
    return argv[:2] + [f"--radius={radius}"] + argv[3:]


def _over_budget(code, err):
    return code == 2 and json.loads(err)["error"] == "ResourceLimitError"


def _answer(out):
    payload = json.loads(out)
    payload.pop("radius", None)
    return payload


def _need_holds(argv, err):
    """At a radius ZoneError's need no radius check with a need fails;
    one without (a vertex outside the window, whose distance it cannot
    know) may."""
    payload = json.loads(err)
    if (payload["error"], payload.get("parameter")) != \
            ("ZoneError", "radius") or "need" not in payload:
        return
    need = payload["need"]
    assert need > int(argv[2].partition("=")[2]), (argv, payload)
    code_n, _, err_n = _run(_at(argv, need))
    if code_n == 2 and not _over_budget(code_n, err_n):
        again = json.loads(err_n)
        assert (again["error"], again.get("parameter")) != \
            ("ZoneError", "radius") or "need" not in again, \
            (argv, payload, again)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(explicit_argvs())
def test_a_larger_window_changes_no_answer(argv):
    radius = int(argv[2].partition("=")[2])
    code, out, err = _run(argv)
    if code == 0:
        for k in range(1, 5):
            code_k, out_k, err_k = _run(_at(argv, radius + k))
            if _over_budget(code_k, err_k):
                break
            assert code_k == 0, (argv, k, err_k)
            assert _answer(out_k) == _answer(out), (argv, k)
    elif code == 2:
        _need_holds(argv, err)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(explicit_argvs(st.none()))
def test_a_need_with_the_default_zone_holds(argv):
    """The default zone R // 5 grows with the radius, and so may the
    answer; the need still holds at itself."""
    code, _, err = _run(argv)
    if code == 2:
        _need_holds(argv, err)
