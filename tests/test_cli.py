"""CLI behavior: output determinism, exit codes, and error shape."""

import json
import pathlib
import random

import pytest
from test_gh import metric_from_weights

from dlscape import FiniteMetricSpace, cli
from dlscape.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    cat = json.loads(out)
    assert "h_graph" in cat and "params" in cat["tree"]


def test_field_deterministic(capsys):
    args = ["field", "--space", "h_graph", "--radius", "48", "--r-max",
            "36", "--r-step", "6", "--zone", "8"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    rows = {r["vertex"]: r for r in data["values"]}
    assert rows["3,0"]["value"] == -3 and rows["3,0"]["stable"]


def test_field_csv(capsys):
    code, out, _ = run(capsys, "field", "--space", "line", "--radius",
                       "30", "--r-max", "20", "--zone", "6", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,dist_from_base,value,stable,last_change"
    assert len(lines) == 14     # header + 13 zone vertices


def test_field_output_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    code, out, _ = run(capsys, "field", "--space", "line", "--radius",
                       "30", "--r-max", "20", "--zone", "6",
                       "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["kind"] == "point_assigned"


def test_space_spec_file_and_shorthand(tmp_path, capsys):
    spec = {"generator": "tree", "params": {"b": 2},
            "scale": {"num": 1, "den": 1}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    code1, out1, _ = run(capsys, "field", "--space", str(path), "--radius",
                         "12", "--r-max", "8", "--zone", "3")
    code2, out2, _ = run(capsys, "field", "--space", "tree:b=2", "--radius",
                         "12", "--r-max", "8", "--zone", "3")
    assert code1 == code2 == 0 and out1 == out2


def test_a_file_named_like_a_shorthand_does_not_shadow_it(
        tmp_path, capsys, monkeypatch):
    """In a directory holding a file named ``line``, ``--space line`` is
    the line; the file is read as ``./line``, a path."""
    args = ["--radius", "4", "--r-max", "2", "--zone", "1"]
    want = run(capsys, "field", "--space", "line", *args)
    assert want[0] == 0
    (tmp_path / "line").write_text("not json")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "field", "--space", "line", *args) == want
    payload = _usage_error(capsys, "field", "--space", "./line", *args)
    assert "not valid JSON" in payload["message"]
    assert run(capsys, "field", "--space", "line:scale=1/2", *args)[0] == 0


def test_level_set(capsys):
    code, out, _ = run(capsys, "level-set", "--space", "h_graph",
                       "--radius", "48", "--r-max", "36", "--zone", "8",
                       "--level", "0")
    assert code == 0
    verts = json.loads(out)["vertices"]
    assert "2,2" in verts and "-3,3" in verts


def test_busemann_and_horo(capsys):
    code, out, _ = run(capsys, "busemann", "--space", "line", "--radius",
                       "40", "--ray-target", "30", "--zone", "8")
    assert code == 0 and json.loads(out)["kind"] == "busemann"
    code, out, _ = run(capsys, "horo", "--space", "line", "--radius", "40",
                       "--points", "10;20;30", "--zone", "8")
    assert code == 0 and json.loads(out)["kind"] == "horo"


def test_coray(capsys):
    code, out, _ = run(capsys, "coray", "--space", "h_graph", "--radius",
                       "48", "--r-max", "36", "--r-step", "6", "--zone",
                       "8", "--start", "2,2")
    assert code == 0
    data = json.loads(out)
    assert data["descending_neighbors"] == 1
    assert all(p["gradient_ok"] for p in data["paths"])


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "--space", "halfline", "--radius",
                       "40", "--r-max", "30", "--r-step", "5", "--zone",
                       "8", "--sample=0;2;5")
    assert code == 0
    data = json.loads(out)
    assert data["partition"]["blocks"] == [["0", "2", "5"]]
    assert data["axiom_violations"] == []


def test_rho_classes_compare_fields_on_the_sample(capsys):
    # u_-3 - u_0 is -3 on the evaluation ball [1, 9] around base 5 but 3
    # at -3, so the constant-difference route keeps -3 and 0 apart, as
    # rho(-3, 0) = 3 does
    code, out, err = run(capsys, "rho", "--space", "line", "--radius", "60",
                         "--r-max", "40", "--zone", "12", "--base", "5",
                         "--sample", "0;5;9;-3")
    assert code == 0, err
    blocks = json.loads(out)["partition"]["blocks"]
    assert blocks == [["-3"], ["0"], ["5"], ["9"]]


def test_rho_unstable_entries_exit_0(capsys):
    # a tail shorter than the schedule step leaves every entry unstable;
    # neither class route may then join a pair
    code, out, err = run(capsys, "rho", "--space", "halfline", "--radius",
                         "1200", "--r-max", "960", "--zone", "16",
                         "--sample", "0;3;7;10")
    assert code == 0, err
    data = json.loads(out)
    assert not any(map(any, data["rho"]["stable"]))
    assert data["partition"]["blocks"] == [["0"], ["3"], ["7"], ["10"]]


@pytest.mark.parametrize("flag,value", [("--r-max", "0"),
                                        ("--r-step", "-5")])
def test_schedule_values_below_one(capsys, flag, value):
    args = {"--r-max": "20", "--r-step": "5", flag: value}
    code, out, err = run(capsys, "field", "--space", "line", "--radius",
                         "60", *[t for kv in args.items() for t in kv])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError" and flag in payload["message"]


@pytest.mark.parametrize("argv,message", [
    (["field", "--space", "line", "--radius", "40", "--r-max", "30",
      "--zone", "0"], "zone must be >= 1"),
    (["busemann", "--space", "line", "--radius", "40", "--ray-target", "30",
      "--zone", "8", "--T", "0"], "need 1 <= T < len(ray)"),
    (["experiment", "pa-gh", "--space-x", "line", "--space-y", "line",
      "--eps", "1", "--radius", "40", "--r-max", "32", "--zone", "0"],
     "zone must be >= 1"),
], ids=["field-zone", "busemann-T", "experiment-zone"])
def test_zero_is_refused_not_read_as_the_default(capsys, argv, message):
    """--zone 0 and --T 0 are values below 1, not requests for the
    default (R // 5, the ray length)."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DomainError", "message": message}


def test_gh_command(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"n": 2, "base": 0,
                             "scale": {"num": 1, "den": 1},
                             "dist": [[0, 1], [1, 0]]}))
    y.write_text(json.dumps({"n": 2, "base": 0,
                             "scale": {"num": 1, "den": 1},
                             "dist": [[0, 2], [2, 0]]}))
    code, out, _ = run(capsys, "gh", "--x", str(x), "--y", str(y))
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == "1/2" and data["upper"] == "1"


GOOD_SPACE = {"n": 3, "base": 0, "scale": {"num": 1, "den": 1},
              "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}


@pytest.mark.parametrize("text", [
    # a distance of 1.5 was read as 1, and the search proved a wrong space
    json.dumps(dict(GOOD_SPACE, dist=[[0, 1.5, 2], [1.5, 0, 1],
                                      [2, 1, 0]])),
    json.dumps(dict(GOOD_SPACE, n=2.7)),
    json.dumps(dict(GOOD_SPACE, base=True)),
    json.dumps(dict(GOOD_SPACE, scale={"num": 1, "den": True})),
    # JSON reads 1e400 as infinity, which int() refused with a traceback
    json.dumps(GOOD_SPACE).replace("[0, 1, 2]", "[0, 1, 1e400]"),
], ids=["float-distance", "float-n", "bool-base", "bool-den",
        "infinite-distance"])
def test_gh_refuses_a_space_it_was_not_given(tmp_path, capsys, text):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(GOOD_SPACE))
    bad.write_text(text)
    code, out, _ = run(capsys, "gh", "--x", str(good), "--y", str(good))
    assert code == 0 and json.loads(out)["correspondence"]["proved_optimal"]
    payload = _usage_error(capsys, "gh", "--x", str(good), "--y", str(bad))
    assert payload["error"] == "DomainError"
    assert "expected an integer" in payload["message"]


def test_gh_proves_a_twelve_point_pair(capsys):
    """The pair in data/gh_12pt_{x,y}.json is random.Random(12)'s first
    draw: X then Y, each 66 weights in 1..20 closed under shortest paths,
    base 0.  Past 8 points the search's proof still stands, so ``gh``
    reports it proved."""
    rng = random.Random(12)
    want = [metric_from_weights(12, [rng.randint(1, 20) for _ in range(66)])
            for _ in "xy"]
    x, y = (DATA / f"gh_12pt_{side}.json" for side in "xy")
    assert [FiniteMetricSpace.from_json(json.loads(p.read_text()))
            for p in (x, y)] == want
    code, out, _ = run(capsys, "gh", "--x", str(x), "--y", str(y))
    assert code == 0 and '"proved_optimal":true' in out
    assert json.loads(out)["upper"] == "4"


def test_experiment_pass_and_fail(capsys):
    base = ["experiment", "pa-gh", "--space-x", "pendant_line", "--space-y",
            "line", "--map", "nearest_spine", "--radius", "40", "--r-max",
            "32", "--r-step", "4", "--zone", "8", "--tail", "16"]
    code, out, _ = run(capsys, *base, "--eps", "1")
    assert code == 0 and json.loads(out)["abs_bound_8eps_ok"]
    # eps = 0 makes the 8*eps bound unattainable for the leaf vertices
    code, out, _ = run(capsys, *base, "--eps", "0")
    assert code == 1 and not json.loads(out)["abs_bound_8eps_ok"]


@pytest.mark.parametrize("space_y", ["line", "pendant_line"])
def test_experiment_map_that_cannot_take_a_source_vertex(capsys, space_y):
    """nearest_spine reads a pendant-line vertex (n, k); a line vertex n
    is refused with exit 2, not a traceback."""
    payload = _usage_error(capsys, "experiment", "pa-gh", "--space-x",
                           "line", "--space-y", space_y, "--map",
                           "nearest_spine", "--eps", "1", "--radius", "40",
                           "--r-max", "32", "--zone", "8")
    assert payload["error"] == "DomainError"
    assert "map cannot take vertex" in payload["message"]


def test_experiment_unknown_map_is_refused_before_any_window(capsys):
    """--map is a parser choice: an unknown map exits 2 as a UsageError,
    reported ahead of a zone past the radius."""
    payload = _usage_error(capsys, "experiment", "pa-gh", "--space-x",
                           "line", "--space-y", "line", "--map", "fold",
                           "--eps", "1", "--radius", "40", "--r-max", "32",
                           "--zone", "41")
    assert payload["error"] == "UsageError" and "fold" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["zoo", "show"], ["bogus"], [], ["rho", "--space", "line"],
    ["field", "--space", "line", "--radius", "x", "--r-max", "3"],
    ["field", "--space", "line", "--radius", "9", "--r-max", "3", "--bad"]])
def test_argparse_misuse_gives_json(capsys, argv):
    payload = _usage_error(capsys, *argv)
    assert payload["error"] == "UsageError" and payload["message"]


def test_help_still_exits_0(capsys):
    code, out, _ = run(capsys, "busemann", "--help")
    assert code == 0 and "--ray-target" in out


def test_check_suite(capsys):
    args = ["check", "--suite", "monotone", "--space", "h_graph",
            "--radius", "36", "--trials", "50", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["ok"]


def test_lipschitz_suite_reads_stable_values_only(capsys):
    """At R = 14 the fields at (-1,0) and (-1,1) differ by 3 at vertices
    where they have not settled; where both are stable the gap is 1."""
    code, out, _ = run(capsys, "check", "--suite", "lipschitz", "--space",
                       "h_graph", "--radius", "14", "--trials", "4",
                       "--seed", "2")
    result = json.loads(out)
    assert code == 0 and result["ok"] and result["checked"] == 4
    assert result["stats"]["skipped"] > 0


@pytest.mark.parametrize("suite", ["lipschitz", "anti-triangle"])
def test_field_suites_refuse_a_radius_that_settles_nothing(capsys, suite):
    """At R = 10 the suite schedule is 2..6 with zone 4, so its cutoff
    6 - 2 * 4 lies below every entry and no value can be stable; R = 14
    is the smallest radius whose schedule can mark one."""
    payload = _usage_error(capsys, "check", "--suite", suite, "--space",
                           "grid2d", "--radius", "10", "--trials", "20",
                           "--seed", "3")
    assert payload["error"] == "ZoneError"
    assert payload["parameter"] == "radius" and payload["need"] == 14
    code, out, _ = run(capsys, "check", "--suite", suite, "--space",
                       "grid2d", "--radius", "14", "--trials", "20",
                       "--seed", "3")
    assert code == 0 and json.loads(out)["checked"] > 0


def test_usage_errors(capsys):
    # unknown generator
    code, _, err = run(capsys, "field", "--space", "moebius", "--radius",
                       "20", "--r-max", "10", "--zone", "4")
    assert code == 2 and "UnknownGeneratorError" in err
    # zone violation names the parameter to increase
    code, _, err = run(capsys, "field", "--space", "line", "--radius",
                       "10", "--r-max", "20", "--zone", "5")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ZoneError"
    assert payload["parameter"] == "radius" and payload["need"] == 20
    # argparse-level misuse
    assert main(["bogus"]) == 2
    assert main(["rho", "--space", "line"]) == 2
    # missing file
    code, _, err = run(capsys, "gh", "--x", "/no/such.json", "--y",
                       "/no/such.json")
    assert code == 2


def _usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    return json.loads(err)


def test_non_integer_space_parameter(capsys):
    payload = _usage_error(capsys, "field", "--space", "tree:b=x",
                           "--radius", "5", "--r-max", "3")
    assert payload["error"] == "GeneratorParamError"
    assert "'x'" in payload["message"]


@pytest.mark.parametrize("generator,params", [
    ("tree", {"b": True}), ("stick", {"m": 3, "h": True}),
    ("stick", {"m": True, "h": 1}), ("cylinder", {"m": True}),
    ("tree", {"b": 2.0})])
def test_space_file_parameters_are_integers(tmp_path, capsys, generator,
                                            params):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"generator": generator, "params": params}))
    payload = _usage_error(capsys, "field", "--space", str(path),
                           "--radius", "5", "--r-max", "3")
    assert payload["error"] == "GeneratorParamError"
    assert "integer" in payload["message"]


def test_boolean_shorthand_parameter(capsys):
    payload = _usage_error(capsys, "field", "--space", "tree:b=true",
                           "--radius", "5", "--r-max", "3")
    assert payload["error"] == "GeneratorParamError"
    assert "'true'" in payload["message"]


def test_zero_denominator_scale(capsys):
    payload = _usage_error(capsys, "field", "--space", "line:scale=1/0",
                           "--radius", "5", "--r-max", "3")
    assert payload["error"] == "DomainError"
    assert "'1/0'" in payload["message"]


def test_sphere_suite_radius_zero(capsys):
    payload = _usage_error(capsys, "check", "--suite", "sphere", "--space",
                           "line", "--radius", "0")
    assert payload == {"error": "ZoneError", "parameter": "radius",
                       "message": "the suite schedule at radius 0 is empty",
                       "need": 1}


@pytest.mark.parametrize("argv", [
    ["rho", "--space", "line", "--radius", "40", "--r-max", "32", "--zone",
     "8", "--tail", "-1", "--sample=0;3"],
    ["experiment", "pa-gh", "--space-x", "line", "--space-y", "line",
     "--map", "identity", "--eps", "1", "--radius", "40", "--r-max", "32",
     "--zone", "8", "--tail", "-5"],
    ["busemann", "--space", "line", "--radius", "40", "--ray-target", "30",
     "--zone", "8", "--tail", "-1"],
])
def test_a_negative_tail_exits_2(capsys, argv):
    payload = _usage_error(capsys, *argv)
    assert payload["error"] == "DomainError"
    assert payload["message"].startswith("tail must be >= 0")


def test_non_integer_vertex_label(capsys):
    payload = _usage_error(capsys, "rho", "--space", "line", "--radius",
                           "40", "--r-max", "30", "--sample", "a;1")
    assert payload["error"] == "DomainError" and "'a'" in payload["message"]


def test_malformed_json_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generator": ')
    payload = _usage_error(capsys, "field", "--space", str(bad), "--radius",
                           "5", "--r-max", "3")
    assert "not valid JSON" in payload["message"]
    payload = _usage_error(capsys, "gh", "--x", str(bad), "--y", str(bad))
    assert "not valid JSON" in payload["message"]
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"generator": "line",
                                "scale": {"num": 1, "den": 0}}))
    payload = _usage_error(capsys, "field", "--space", str(zero),
                           "--radius", "5", "--r-max", "3")
    assert payload["error"] == "DomainError"
    zero.write_text(json.dumps({"n": 1, "base": 0, "dist": [[0]],
                                "scale": {"num": 1, "den": 0}}))
    payload = _usage_error(capsys, "gh", "--x", str(zero), "--y", str(zero))
    assert payload["error"] == "DomainError"


def test_rho_sample_beyond_zone(capsys):
    payload = _usage_error(capsys, "rho", "--space", "line", "--radius",
                           "60", "--r-max", "40", "--sample", "0;19")
    assert payload["error"] == "ZoneError"
    assert "are 19 apart" in payload["message"]
    assert payload["need"] == 19


@pytest.mark.parametrize("space,sample,need", [
    ("line", "0;-4;3", 18), ("halfline", "0;9", 27),
    ("grid2d", "0,0;3,-4", 21), ("h_graph", "0,0;2,5", 39)])
def test_rho_sample_outside_the_window_names_its_need(capsys, space, sample,
                                                       need):
    """A sample point outside the window: its closed-form distance names
    the radius, max(3 d(base, s), the schedule's need 18)."""
    payload = _usage_error(capsys, "rho", "--space", space, "--radius", "2",
                           "--zone", "5", "--r-max", "18", "--sample", sample)
    assert payload["error"] == "ZoneError"
    assert payload["parameter"] == "radius" and payload["need"] == need


@pytest.mark.parametrize("argv,need", [
    (["busemann", "--space", "grid2d", "--ray", "0,0;1,0;2,0", "--zone",
      "1"], 3),
    (["horo", "--space", "line", "--points", "2;5", "--zone", "2"], 7),
    (["horo", "--space", "h_graph", "--base", "3,3", "--points",
      "3,3;9,9", "--zone", "2"], None)])
def test_anchor_outside_the_window_names_its_need(capsys, argv, need):
    """An anchor outside the window needs max(d(base, v), d(base, H_n) +
    zone) where the generator gives each d(base, v) in closed form."""
    payload = _usage_error(capsys, *argv, "--radius", "1")
    assert payload["error"] == "ZoneError" and "not in window" in \
        payload["message"] and payload.get("need") == need


@pytest.mark.parametrize("r_max,need", [(2, 3), (5, 5)])
def test_coray_start_outside_the_window_names_its_need(capsys, r_max, need):
    """A co-ray start outside the window is looked up before the field,
    and the command's need also covers the field's, max(d(base, start),
    zone, r-max): at the need no radius check fails, and the start, 3
    from the base, lies outside zone 1."""
    argv = ["coray", "--space", "line", "--zone", "1", "--r-max",
            str(r_max), "--start", "3"]
    payload = _usage_error(capsys, *argv, "--radius", "1")
    assert payload["error"] == "ZoneError" and "not in window" in \
        payload["message"]
    assert payload["parameter"] == "radius" and payload["need"] == need
    payload = _usage_error(capsys, *argv, "--radius", str(need))
    assert payload["parameter"] == "zone" and payload["need"] == 3


@pytest.mark.parametrize("space,target,radius,zone,need", [
    ("line", "11", 10, 2, 13), ("grid2d", "10,0", 8, 8, 18)])
def test_ray_target_outside_the_window_names_its_need(
        capsys, space, target, radius, zone, need):
    """A ray target outside the window raises the window's radius
    ZoneError, and the command's need, d(base, target) + zone, also
    passes the sweep's margin check: at the need the field is swept."""
    argv = ["busemann", "--space", space, "--ray-target", target,
            "--zone", str(zone)]
    payload = _usage_error(capsys, *argv, "--radius", str(radius))
    assert payload["error"] == "ZoneError" and "not in window" in \
        payload["message"]
    assert payload["parameter"] == "radius" and payload["need"] == need
    for r, code in ((need - 1, 2), (need, 0)):
        assert main([*argv, "--radius", str(r)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["busemann", "--space", "line", "--ray-target", "60"],
    ["horo", "--space", "line", "--points", "55;60"]])
def test_a_need_with_the_default_zone_holds_at_itself(capsys, argv):
    """With --zone omitted the zone is R // 5, so the margin check's need
    grows with the radius: the command's need is 74 = 60 + 74 // 5, where
    it runs, and at 73 (zone 14) the margin check still fails."""
    payload = _usage_error(capsys, *argv, "--radius", "50")
    assert payload["error"] == "ZoneError" and "not in window" in \
        payload["message"]
    assert payload["parameter"] == "radius" and payload["need"] == 74
    for r, code in ((73, 2), (74, 0)):
        assert main([*argv, "--radius", str(r)]) == code
    capsys.readouterr()


_STEPS = ";".join(map(str, range(201)))


@pytest.mark.parametrize("command,argv,radii", [
    ("busemann", ["--ray", _STEPS], [1, 200, 240, 248, 249]),
    ("horo", ["--points", _STEPS], [1, 200, 240, 248, 249]),
    ("rho", ["--r-max", "2", "--sample", _STEPS], [1, 200, 600])])
def test_a_long_list_outside_the_window_reruns_once_per_check(
        capsys, monkeypatch, command, argv, radii):
    """A list lookup names one need for its whole list, d(base, 200), so
    200 vertices outside the window cost one run, not one each.  Then
    busemann and horo re-run at the margin 200 + R // 5 until it holds,
    and rho at the sample zone's need 3 * 200."""
    seen, real = [], getattr(cli, f"cmd_{command}")

    def counted(args):
        seen.append(args.radius)
        return real(args)

    monkeypatch.setattr(cli, f"cmd_{command}", counted)
    payload = _usage_error(capsys, command, "--space", "line", "--radius",
                           "1", *argv)
    assert "not in window" in payload["message"]
    assert payload["need"] == radii[-1] and seen == radii


_ROW = ";".join(f"{x},0" for x in range(21))


@pytest.mark.parametrize("argv,need", [
    (["rho", "--radius", "1", "--r-max", "2", "--sample", _ROW], 60),
    (["horo", "--radius", "1", "--points", _ROW], 24),
    (["coray", "--radius", "10", "--r-max", "8", "--start", "30,0"], 30)])
def test_a_rerun_runs_no_pass(capsys, monkeypatch, argv, need):
    """A need re-run stops at the command's first sweep, after its radius
    checks, so finding the need runs no BFS pass: not the field's, the
    family's, the sample distances' or the co-ray checks'."""
    from dlscape import fields, space
    passes = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        passes.append(limit)
        return bfs(window, seeds, limit, settled)

    for module in (fields, space):
        monkeypatch.setattr(module, "_bfs_from_indices", counted)
    payload = _usage_error(capsys, argv[0], "--space", "grid2d", *argv[1:])
    assert payload["parameter"] == "radius" and payload["need"] == need
    assert passes == []


def test_an_unexpected_error_in_a_rerun_ends_the_loop(capsys, monkeypatch):
    """A re-run runs past the asked radius; an error there that is not
    the library's (here MemoryError) ends the loop at the need reached so
    far, and the first error still prints as JSON."""
    real = cli.cmd_horo

    def horo(args):
        if args.radius > 50:
            raise MemoryError
        return real(args)

    monkeypatch.setattr(cli, "cmd_horo", horo)
    payload = _usage_error(capsys, "horo", "--space", "line", "--radius",
                           "50", "--points", "55;60")
    assert (payload["witness"], payload["need"]) == ("55", 60)


def test_ray_target_outside_the_window_without_a_closed_form(capsys):
    payload = _usage_error(capsys, "busemann", "--space", "h_graph",
                           "--base", "3,3", "--radius", "5",
                           "--ray-target", "20,0", "--zone", "2")
    assert payload["error"] == "ZoneError" and "need" not in payload


def test_rho_sample_outside_the_window_without_a_closed_form(capsys):
    payload = _usage_error(capsys, "rho", "--space", "tree:b=2", "--radius",
                           "2", "--r-max", "2", "--sample", "root;0.0.0")
    assert payload["error"] == "ZoneError" and "need" not in payload


@pytest.mark.parametrize("scale", [{"num": True, "den": 1},
                                   {"num": 1, "den": False}])
def test_space_file_scale_is_integers(tmp_path, capsys, scale):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"generator": "line", "scale": scale}))
    payload = _usage_error(capsys, "field", "--space", str(path),
                           "--radius", "4", "--r-max", "2", "--zone", "1")
    assert payload["error"] == "DomainError"
    assert "integers" in payload["message"]


def test_field_schedule_up_to_the_radius(capsys):
    # max(schedule) = 55 and zone 10 on R = 60: exact, though 55 + 10 > R
    code, out, err = run(capsys, "field", "--space", "line", "--radius",
                         "60", "--r-max", "55", "--zone", "10")
    assert code == 0, err
    rows = json.loads(out)["values"]
    assert [r["value"] for r in rows] == [-abs(int(r["vertex"]))
                                          for r in rows]


def test_coray_shares_the_start_bfs(capsys, monkeypatch):
    """All traced co-rays start at --start, so verifying them takes one
    BFS however many there are, confined to a ball around the base."""
    from dlscape import fields, space
    calls = []
    bfs = space._bfs_from_indices

    def counted(window, seeds, limit=None, settled=()):
        calls.append((tuple(seeds), len(window), limit))
        return bfs(window, seeds, limit, settled)

    for module in (fields, space):
        monkeypatch.setattr(module, "_bfs_from_indices", counted)
    code, out, _ = run(capsys, "coray", "--space", "h_graph", "--radius",
                       "60", "--r-max", "48", "--zone", "10", "--start",
                       "0,0")
    assert code == 0
    paths = json.loads(out)["paths"]
    assert len(paths) > 1 and all(p["gradient_ok"] for p in paths)
    # every pass is confined, the sweep's (from spheres S_r, r >= 1) too
    assert all(limit is not None for _, _, limit in calls)
    from_start = [(n, limit) for seeds, n, limit in calls if seeds == (0,)]
    assert len(from_start) == 1
    n, limit = from_start[0]
    assert limit < n


def test_zone_error_names_the_need(capsys):
    payload = _usage_error(capsys, "coray", "--space", "grid2d", "--radius",
                           "20", "--r-max", "16", "--zone", "4", "--start",
                           "3,3")
    assert payload["error"] == "ZoneError"
    assert payload["parameter"] == "zone" and payload["need"] == 6


@pytest.mark.parametrize("value", ["0", "-3"])
def test_coray_max_paths_below_one(capsys, value):
    payload = _usage_error(capsys, "coray", "--space", "line", "--radius",
                           "30", "--r-max", "20", "--zone", "6",
                           "--max-paths", value)
    assert payload["error"] == "DomainError"
    assert "max_paths" in payload["message"]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_check_trials_below_one(capsys, value):
    payload = _usage_error(capsys, "check", "--suite", "coray", "--space",
                           "line", "--radius", "12", "--trials", value)
    assert payload["error"] == "DomainError" and "trials" in payload["message"]


def test_r_step_above_r_max(capsys):
    code, out, _ = run(capsys, "field", "--space", "line", "--radius", "30",
                       "--r-max", "4", "--r-step", "10", "--zone", "3")
    assert code == 0 and json.loads(out)["schedule"] == [4]
