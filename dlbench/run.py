"""dlscape benchmark: three CLI-shaped workloads, measured end to end.

Usage, from the root of a checkout:

    python3 dlbench/run.py --workload coray --seed 1 --seconds 30 --trace 0
    python3 dlbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own child process (``worker.py``), so its peak
RSS is its own.  Set-up time is the median, over ``SETUP_REPEATS``
set-up-only children plus the measured one, of the time from spawning
the child to its ``ready`` line: interpreter start, imports and input
generation.  Job times enter the end-to-end metrics in calibration units
(``calib.py``), which cancel the drift of a shared machine's speed; the
raw wall times are printed in the report.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run, whose untraced passes give the
tracing overhead.  The lines before it are a readable report and the
output digest.

Exit status is 0 when every job passed its check, 1 when a job failed,
and 2 when the benchmark could not run (no ``src/dlscape`` beside it, a
worker crash or time-out).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("coray", "gh", "rho")
SETUP_REPEATS = 4      # set-up-only children per untraced run
SETUP_TIMEOUT_S = 30
DEADLINE_S = 170       # the whole run, all workloads included

# End-to-end metrics (the result line) and raw wall times (report only).
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "job_cal_p50": "cal",
         "job_cal_p90": "cal", "jobs_per_kcal": "1/kcal",
         "job_s_p50": "s", "job_s_p90": "s", "jobs_per_s": "1/s",
         "cal_s_p50": "s"}


class BenchError(Exception):
    pass


def _spawn(workload, seed, seconds, trace, setup_only):
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)


def _run_worker(workload, seed, seconds, trace, setup_only, deadline):
    """(spawn-to-ready seconds, last stdout line) of one worker."""
    t0 = perf_counter()
    proc = _spawn(workload, seed, seconds, trace, setup_only)
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not get ready")
        timeout = max(1.0, deadline - perf_counter())
        if setup_only:
            timeout = min(timeout, SETUP_TIMEOUT_S)
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def p90(times):
    """The 90th percentile.  It lies inside the slowest tenth of the jobs,
    not at an order statistic with a handful of jobs beyond it, so a run's
    sample of a workload reproduces it."""
    return statistics.quantiles(times, n=10)[-1]


def measure(workload, seed, seconds, trace, deadline):
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS):
        setups.append(_run_worker(workload, seed, seconds, trace, True,
                                  deadline)[0])
    setup, line = _run_worker(workload, seed, seconds, trace, False,
                              deadline)
    setups.append(setup)
    report = json.loads(line)
    times = report["job_s"]
    res = {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "digest": report["digest"],
        "e2e": {"setup_s": statistics.median(setups),
                "peak_rss_mb": report["peak_rss_kb"] / 1024},
        "raw": {"job_s_p50": statistics.median(times),
                "job_s_p90": p90(times),
                "jobs_per_s": len(times) / sum(times)},
    }
    if trace:
        layers = report["layers"]
        layers["trace.overhead_s"] = (statistics.median(report["traced_job_s"])
                                      - statistics.median(times))
        res["layers"] = layers
    else:
        rel = report["job_cal"]
        res["e2e"].update({
            "job_cal_p50": statistics.median(rel),
            "job_cal_p90": p90(rel),
            "jobs_per_kcal": 1000 * len(rel) / sum(rel),
        })
        res["raw"]["cal_s_p50"] = statistics.median(report["cal_s"])
    return res


def _print_report(workload, res):
    n, failed = res["attempted"], res["failed"]
    print(f"[{workload}] digest = {res['digest']}")
    print(f"[{workload}] failed_ratio = {failed / n:.6g} ratio  "
          f"({failed} of {n} jobs)")
    for name, value in list(res["e2e"].items()) + list(res["raw"].items()):
        print(f"[{workload}] {name} = {value:.6g} {UNITS[name]}")
    for name, value in sorted(res.get("layers", {}).items()):
        print(f"[{workload}] {name} = {value:.6g}")


def _result_line(results, trace, prefix):
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for workload, res in results.items():
        key = f"{workload}." if prefix else ""
        if trace:
            for name, value in res["layers"].items():
                metrics[key + name] = {"value": value,
                                       "unit": _layer_unit(name)}
        else:
            for name, value in res["e2e"].items():
                metrics[key + name] = {"value": value,
                                       "unit": UNITS[name]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_s") or name.endswith("overhead_s"):
        return "s"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith(".bytes"):
        return "bytes/job"
    return "count/job"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dlscape",
                                       "__init__.py")):
        sys.stderr.write("dlbench: no src/dlscape beside the benchmark; "
                         "run it from a dlscape checkout\n")
        return 2
    deadline = perf_counter() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = measure(workload, args.seed, args.seconds,
                                        args.trace, deadline)
            _print_report(workload, results[workload])
    except (BenchError, ValueError, KeyError) as exc:
        sys.stderr.write(f"dlbench: {exc}\n")
        return 2
    out = _result_line(results, args.trace, prefix=len(names) > 1)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
