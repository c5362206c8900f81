"""Golden gate: the README's CLI examples give byte-identical stdout.

The digests were captured from the code before the field sweeps were
merged into one kernel; a refactor that changes any byte of these outputs,
or an exit code, fails here.  ``gh`` runs on the two finite spaces below
instead of the README's placeholder files.  Two suites whose passes run in
the balls of ``Window.geodesic_ball`` are gated too, with digests captured
before ``gromov_check`` was confined and the BFS memo made to grow, and
the family runs below, with digests captured before a family field read
its spheres from the closed-form distance.  The ``field --csv`` digest
was captured before the CSV rows were read from the JSON export, and the
ray-target runs below while ``shortest_path`` still ran a BFS.  The
certificate runs were captured while a sweep's deferred passes lived in a
class of their own beside ``ConvergenceReport``.
"""

import hashlib
import json

import pytest

from dlscape.cli import main

GH_X = {"n": 3, "base": 0, "scale": {"num": 1, "den": 1},
        "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
GH_Y = {"n": 3, "base": 0, "scale": {"num": 1, "den": 2},
        "dist": [[0, 2, 3], [2, 0, 2], [3, 2, 0]]}

# (argv, exit code, sha256 of stdout); "{x}" and "{y}" name GH_X and GH_Y.
GOLDEN = [
    (["zoo", "list"], 0,
     "8eebeeee62e2b6aaef4a9f112f8449af7061a00ae1c826ba355503276465449a"),
    (["field", "--space", "h_graph", "--radius", "120", "--r-max", "96",
      "--zone", "20"], 0,
     "66bb4af91be9046ac0c68274b772d1493f2dce5d620eedd75ef4a02119484e79"),
    (["field", "--space", "h_graph", "--radius", "120", "--r-max", "96",
      "--zone", "20", "--csv"], 0,
     "f24960f22b86b4e5b1de4c6c5b1d7f137856fbfbe72e3bc4136f4e88230b5117"),
    (["level-set", "--space", "h_graph", "--radius", "60", "--r-max", "48",
      "--zone", "10", "--level", "0"], 0,
     "e2d8be172e0b8e9d475e004dc3290abd7a3e42e763d8015b15d576fce252688d"),
    (["busemann", "--space", "line", "--radius", "40", "--ray-target", "30",
      "--zone", "8"], 0,
     "a79b76306822d6a992db4230d3baee15121f29be014d157d0d0e3bad0a9cab91"),
    (["horo", "--space", "line", "--radius", "40", "--points", "10;20;30",
      "--zone", "8"], 0,
     "68446d2f6a589a7dea0bbd8bd90d5cfdfccb1809e42e30ed0084b6a4421f72ca"),
    (["coray", "--space", "h_graph", "--radius", "60", "--r-max", "48",
      "--zone", "10", "--start", "2,2"], 0,
     "a1ee24bd9b02b08f8ef4857a931320feef7e5cbf59b77ea9d5f1ed5302b7ac12"),
    (["rho", "--space", "line", "--radius", "40", "--r-max", "32", "--zone",
      "8", "--sample=-2;0;3"], 0,
     "4210121c370966f1c6fb3f48827225a2befb18bde45368c66181d7efb19bffc0"),
    (["gh", "--x", "{x}", "--y", "{y}"], 0,
     "91a29e56d8cc4acdc689ccfd3b2e6a07e7a4c8e9547508e9cf5f5f378ac3abcf"),
    (["experiment", "pa-gh", "--space-x", "pendant_line", "--space-y",
      "line", "--map", "nearest_spine", "--eps", "1", "--radius", "40",
      "--r-max", "32", "--zone", "8", "--tail", "16"], 0,
     "c475693134343ee4778d4db4380f218635471fee55747cf81f44835c61c0fc34"),
    (["check", "--suite", "anti-triangle", "--space", "h_graph", "--trials",
      "500", "--seed", "7"], 0,
     "523bf9a69b9e8e915e0496339d3ea8fdedd33026db9e56e648641653633fb897"),
]


# (argv, exit code, sha256 of stdout) of check suites that confine passes.
SUITES = [
    (["check", "--suite", "gromov", "--space", "h_graph"], 0,
     "17ab1392d1552202437f5e799da3b04d1fe009b0a3a4e2d00bc4ba52c3aa11d1"),
    (["check", "--suite", "coray", "--space", "grid2d"], 0,
     "f6e0c8bb8c50fc9c5582a26fe215670e007399cc948c401be73607900cea8062"),
]


# (argv, exit code, sha256 of stdout) of runs whose point-assigned family
# reads S_r(b) and S_{r+1}(b) from the closed-form ``sphere_at(b, r)``
# (grid2d, halfline, and the h_graph's (0, 0)) or from one BFS from b (the
# other h_graph bases).
FAMILY = [
    (["rho", "--space", "grid2d", "--radius", "60", "--r-max", "48",
      "--zone", "20", "--sample", "0,0;3,-2;-4,1"], 0,
     "b595b7be429b151ee3c1d39c34743425153b98e364a19c845cd8f9c3a6fb22f9"),
    (["rho", "--space", "halfline", "--radius", "60", "--r-max", "48",
      "--zone", "20", "--sample", "0;7;12"], 0,
     "380a88612d2e718f6e3b6254dd51002ec2c08f2fa749c3897f4fe4b4a5afe853"),
    (["rho", "--space", "h_graph", "--base", "3,3", "--radius", "30",
      "--r-max", "20", "--zone", "10", "--sample", "3,3;0,0;3,0"], 0,
     "3ab94873c687e258c02dc3287261a7a2aa9aaba06cb5538e3b6f13b37dc99f4f"),
    (["check", "--suite", "lipschitz", "--space", "grid2d"], 0,
     "63e4d627cdeea380c0c25cbe47f9889c41817692535a0a98360ced7c4b12c8d8"),
]


# (argv, exit code, sha256 of stdout) of rho runs on the generators whose
# windows hold their vertices as keys, with the space as the codec, captured
# while those windows held the vertices with no codec.
VERTEX_KEYED = [
    (["rho", "--space", "cylinder:m=5", "--radius", "30", "--r-max", "24",
      "--zone", "10", "--sample", "0,0;2,1;-3,4"], 0,
     "157bd6c19d786e98cd46c6560d7c964949d5e2172b8ba269157feaaa60ab4258"),
    (["rho", "--space", "pendant_line", "--radius", "30", "--r-max", "24",
      "--zone", "10", "--sample", "0,0;0,1;3,1;-2,0"], 0,
     "01cb37a03cf7360d58cfd63c055b0140bb2cf3f799d1d672453f8cef2515d027"),
    (["rho", "--space", "tree:b=2", "--radius", "10", "--r-max", "8",
      "--zone", "4", "--sample", "root;0;1.0;0.1"], 0,
     "0d4a75f102a199c9542d218690a5c8b13e6b0953ce972762b0ae495d0f596f0d"),
    (["rho", "--space", "stick:m=4,h=2", "--base", "cycle:1", "--radius",
      "24", "--r-max", "20", "--zone", "8", "--sample",
      "cycle:1;cycle:3;apex;ray:2:3"], 0,
     "aba52dc93470de75b1a889456293b5e7dfa34205ba4af48c25333dd93c0343a6"),
]


# (argv, exit code, sha256 of stdout) of ``busemann --ray-target`` runs
# with more than one geodesic from the base to the target (grid2d, and the
# h_graph row at height 4, reached through either corner), so the output
# pins which one the ray takes.
RAY_TARGET = [
    (["busemann", "--space", "grid2d", "--radius", "40", "--ray-target",
      "7,5", "--zone", "8"], 0,
     "8a7efd50cd86f65794644ec4ec5962f95e829dbfd6c16308105591728e507cbe"),
    (["busemann", "--space", "h_graph", "--radius", "40", "--ray-target",
      "0,4", "--zone", "8"], 0,
     "3bccfaac9dd7889757b5ede925f971c2e4ed9b2f1bbcad7d052eceaea772ae97"),
]


# (argv, exit code, sha256 of stdout) of suites on the truncation
# certificate: lipschitz's ``skipped`` count reads ``report.stable``, and
# monotone is the one CLI route to ``u_r``.  With sphere, every suite has
# a golden run.
CERTIFICATE = [
    (["check", "--suite", "lipschitz", "--space", "h_graph"], 0,
     "b9e68aca6218ed1f170b6baca1a94d87c6a5636790885b36f47cc8d6b8453ac1"),
    (["check", "--suite", "monotone", "--space", "h_graph"], 0,
     "256cae9b105f6661de069f1a1ce992e884d0f538c68f023cb3b1885cd1391708"),
    (["check", "--suite", "sphere", "--space", "grid2d"], 0,
     "32fb04680452c8c4d247a9fb80ebec75ea9ae2503bc6f5a128aa739fd0230264"),
]


def _run(capsys, tmp_path, argv):
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(json.dumps(GH_X))
    y.write_text(json.dumps(GH_Y))
    argv = [a.format(x=x, y=y) for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[g[0][0] + "-csv" * ("--csv" in g[0])
                              for g in GOLDEN])
def test_readme_example_output_is_unchanged(capsys, tmp_path, argv, code,
                                            digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", SUITES,
                         ids=[f"{g[0][2]}-{g[0][4]}" for g in SUITES])
def test_confined_suite_output_is_unchanged(capsys, tmp_path, argv, code,
                                            digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", FAMILY,
                         ids=[f"{g[0][0]}-{g[0][2]}" for g in FAMILY])
def test_family_route_output_is_unchanged(capsys, tmp_path, argv, code,
                                          digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", VERTEX_KEYED,
                         ids=[g[0][2].split(":")[0] for g in VERTEX_KEYED])
def test_vertex_keyed_output_is_unchanged(capsys, tmp_path, argv, code,
                                          digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", RAY_TARGET,
                         ids=[g[0][2] for g in RAY_TARGET])
def test_ray_target_output_is_unchanged(capsys, tmp_path, argv, code,
                                        digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", CERTIFICATE,
                         ids=[f"{g[0][2]}-{g[0][4]}" for g in CERTIFICATE])
def test_certificate_output_is_unchanged(capsys, tmp_path, argv, code,
                                         digest):
    assert _run(capsys, tmp_path, argv) == (code, digest)
