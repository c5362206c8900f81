"""Each command grows its windows only to the balls its proofs name: the
``grown`` state of every window a CLI run makes, after the run."""

import contextlib
import io

import pytest

from dlscape import checks, cli, pseudometric, space

RAY = ";".join(f"{x},0" for x in range(11))

# (argv, the largest ``grown`` allowed, or per window in order of making)
RUNS = [
    (["busemann", "--space", "grid2d", "--radius", "600", "--ray-target",
      "10,0", "--zone", "8"], 17),
    (["busemann", "--space", "grid2d", "--radius", "60", "--ray", RAY,
      "--zone", "8"], 17),
    (["horo", "--space", "grid2d", "--radius", "60", "--points",
      "2,0;4,0;6,0", "--zone", "8"], 13),
    (["check", "--suite", "gromov", "--space", "h_graph"], 36),
    (["experiment", "pa-gh", "--space-x", "pendant_line", "--space-y",
      "line", "--map", "nearest_spine", "--eps", "1", "--radius", "40",
      "--r-max", "32", "--zone", "8", "--tail", "16"], 32),
]

# README examples whose answers read the whole schedule: exact states.
# The rho family on the line (zone 8, 17 zone vertices, spheres of two
# points) takes the closed form from r = 18 on, and every value is dated
# with no pass, so no pass runs and the base window holds only B_11, the
# zone around the sample point 3.
EXACT = [
    (["field", "--space", "h_graph", "--radius", "120", "--r-max", "96",
      "--zone", "20"], [96]),
    (["coray", "--space", "h_graph", "--radius", "60", "--r-max", "48",
      "--zone", "10", "--start", "2,2"], [48]),
    (["rho", "--space", "line", "--radius", "40", "--r-max", "32", "--zone",
      "8", "--sample=-2;0;3"], [11, 8, 8]),
]


def _grown(monkeypatch, argv):
    made = []
    real = space.materialize_window

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    for module in (checks, cli, pseudometric):
        monkeypatch.setattr(module, "materialize_window", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return [w.grown for w in made]


@pytest.mark.parametrize("argv,most", RUNS, ids=[r[0][0] for r in RUNS])
def test_windows_stop_at_the_balls_their_proofs_name(monkeypatch, argv,
                                                     most):
    grown = _grown(monkeypatch, argv)
    assert grown and max(grown) <= most, grown


@pytest.mark.parametrize("argv,want", EXACT, ids=[r[0][0] for r in EXACT])
def test_schedule_reads_grow_to_the_schedule(monkeypatch, argv, want):
    assert _grown(monkeypatch, argv) == want


@pytest.mark.parametrize("argv", [
    ["busemann", "--space", "grid2d", "--radius", "600", "--ray-target",
     "33,0", "--zone", "1"],
    ["horo", "--space", "grid2d", "--radius", "600", "--points",
     "31,0;33,0", "--zone", "1"]], ids=["busemann", "horo"])
def test_find_grows_straight_to_the_closed_form_distance(monkeypatch, argv):
    """A lookup of (33, 0) grows the window to B_33, which the path and
    the sweep need, not to the next power of two, B_64."""
    assert _grown(monkeypatch, argv) == [33]


def test_lipschitz_family_windows_stay_at_the_zone(monkeypatch):
    """The suite's zone at R = 48 is 9: each pool field's own window holds
    B_9, and the base window the schedule's passes (max 36, from bases
    within 4 of the base: at most 40)."""
    grown = _grown(monkeypatch, ["check", "--suite", "lipschitz",
                                 "--space", "grid2d"])
    assert grown[0] <= 40 and set(grown[1:]) == {9}, grown
