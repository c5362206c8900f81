"""The CLI contract on random small argv: exit 0, 1 or 2; exit 1 only with
a witness on stdout; exit 2 with JSON on stderr; never a traceback."""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from dlscape import checks
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


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["field", "coray", "busemann", "horo", "rho", "check"]))
    space = draw(st.sampled_from(SPACES))
    radius = draw(small)
    if command == "check":
        suite = draw(st.sampled_from(sorted(checks.SUITES)))
        return ["check", f"--suite={suite}", f"--space={space}",
                f"--radius={radius}",
                f"--trials={draw(st.integers(-2, 4))}",
                f"--seed={draw(st.integers(0, 3))}"]
    argv = [command, f"--space={space}", f"--radius={radius}"]
    zone = draw(st.one_of(st.none(), st.integers(1, 8), small))
    if zone is not None:
        argv.append(f"--zone={zone}")
    label = labels(space)
    kind = space.partition(":")[0]
    if command in ("field", "coray", "rho"):
        argv.append(f"--r-max={draw(small)}")
        step = draw(st.one_of(st.none(), st.integers(-1, 8)))
        if step is not None:
            argv.append(f"--r-step={step}")
    if command == "coray":
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
    return False


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    # A small vertex budget turns exponential windows into exit 2 quickly.
    with mock.patch.dict(os.environ, {"DLSCAPE_MAX_VERTICES": "20000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert _has_witness(argv[0], json.loads(out)), (argv, out)
    if code == 2:
        assert "error" in json.loads(err), (argv, err)
    else:
        json.loads(out)
