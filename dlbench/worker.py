"""One workload in its own process: set up, signal, run, report.

Started by ``run.py``.  It imports ``dlscape`` from the ``src`` directory
of the checkout it sits in, builds the seeded job list, prints ``ready``
and then runs a closed loop with one client: each job starts when the
previous one has finished.  With ``--setup-only`` it exits after
``ready``, so the parent can time set-up on its own.

The loop runs the job list in order (from the start again if it runs
out) and stops at the first round boundary (one job of every space)
after ``--seconds``, once it has at least ``MIN_JOBS`` samples and has
run the digested prefix.  With ``--trace 1`` it alternates untraced and
traced runs of the prefix, so both halves time the same jobs and the
counters cover whole prefixes.  Untraced, it times the calibration kernel
of ``calib.py`` between jobs and scales each job's time by it.  The last
stdout line is one JSON object with the job times and either their
calibrated values or, when traced, the layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 11      # enough samples for a 90th percentile


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "dlscape", "__init__.py")):
        sys.stderr.write(f"worker: no dlscape package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


class Runner:
    """Runs and times jobs, and checks each one outside the timer.

    The first run of a job is checked against its independent route; a
    repeat must reproduce that checked output byte for byte.
    """

    def __init__(self, jobs, prefix, workloads):
        self.jobs = jobs
        self.prefix = prefix
        self.w = workloads
        self.failed = 0
        self.checked = {}        # job index -> sha256 of its checked output
        self.digest = hashlib.sha256()

    def run(self, k):
        """Run job k; return its wall time."""
        job = self.jobs[k]
        t0 = perf_counter()
        try:
            text, result = self.w.run_job(job)
        except Exception as exc:          # a failed job is data, not a crash
            elapsed = perf_counter() - t0
            self._fail(job, exc)
            return elapsed
        elapsed = perf_counter() - t0
        sha = hashlib.sha256(text.encode()).digest()
        if k not in self.checked:
            try:
                self.w.check_job(job, result)
                self.checked[k] = sha
                if k < self.prefix:
                    self.digest.update(sha)
            except Exception as exc:
                self._fail(job, exc)
        elif self.checked[k] != sha:
            self._fail(job, ValueError("output differs from its checked "
                                       "first run"))
        del result
        return elapsed

    def _fail(self, job, exc):
        self.failed += 1
        sys.stderr.write(f"worker: job {job[:2]} failed: "
                         f"{type(exc).__name__}: {exc}\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import calib
    import tracing
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    prefix = workloads.TRACE_JOBS[args.workload]
    runner = Runner(jobs, prefix, workloads)
    round_size = workloads.ROUND[args.workload]
    times, traced = [], []
    t_start = perf_counter()
    if not args.trace:
        cal = calib.Calibrator()
        starts = []
        k = 0
        while True:
            starts.append(cal.before_job())
            times.append(runner.run(k % len(jobs)))
            k += 1
            if k % round_size == 0 and k >= max(prefix, MIN_JOBS) \
                    and perf_counter() - t_start >= args.seconds:
                break
        cal.close()
        report = {"job_cal": cal.scale(starts, times), "cal_s": cal.times}
    else:
        tracer = tracing.Tracer()
        while True:
            times += [runner.run(k) for k in range(prefix)]
            with tracer:
                traced += [runner.run(k) for k in range(prefix)]
            if perf_counter() - t_start >= args.seconds:
                break
        report = {"traced_job_s": traced,
                  "layers": tracing.layer_metrics(tracer, len(traced))}
    report.update({
        "job_s": times,
        "attempted": len(times) + len(traced),
        "failed": runner.failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": runner.digest.hexdigest(),
    })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
