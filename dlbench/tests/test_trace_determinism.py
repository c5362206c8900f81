"""The traced run is reproducible: two runs of one seed give the same
output digests and the same count and ratio metrics on every workload."""

import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "run.py")
SEED = 5
TIMEOUT_S = 170

# Layers each workload must exercise (the layer -> workload map).
EXERCISED = {
    "coray": ("space.bfs.passes", "corays.trace.paths",
              "corays.verify.bfs_passes", "corays.repr.bfs_passes"),
    "gh": ("gh.search.calls", "gh.search.proved_ratio"),
    "rho": ("space.materialize.vertices", "fields.sweep.steps",
            "cli.export.bytes", "pseudometric.family.windows",
            "pseudometric.rho.entries"),
}


def _traced_runs(n):
    cmd = [sys.executable, RUN, "--workload", "all", "--seed", str(SEED),
           "--seconds", "0", "--trace", "1"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
             for _ in range(n)]
    outs = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        outs.append(out)
    return outs


def _parse(out):
    lines = out.strip().splitlines()
    digests = dict(re.findall(r"^\[(\w+)\] digest = ([0-9a-f]{64})$",
                              out, re.MULTILINE))
    result = json.loads(lines[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if not name.endswith("_s")}
    return digests, result, counts


def test_traced_run_counts_and_digests_repeat():
    first, second = (_parse(out) for out in _traced_runs(2))
    digests, result, counts = first
    assert result["correct"] and result["failed"] == 0
    assert sorted(digests) == sorted(EXERCISED)
    for workload, names in EXERCISED.items():
        for name in names:
            assert counts[f"{workload}.{name}"] > 0, (workload, name)
    assert first[0] == second[0]
    assert counts == second[2]
