"""Layer spans and counters, recorded from outside the program.

The tracer rebinds each layer entry point in every ``dlscape`` module that
holds it (``fields`` and ``corays`` import ``_bfs_from_indices`` by name,
so rebinding ``space`` alone would miss their passes), and restores the
originals on exit.  A span's self time is its duration minus the time its
child spans cover.  Every open span also counts the BFS passes made while
it was open, so ``corays.verify.bfs_passes`` includes passes made through
``fields`` and ``space`` helpers.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _count_materialize(c, args, result):
    c["space.materialize.vertices"] += len(result)


def _count_bfs(c, args, result):
    c["space.bfs.vertices"] += len(args[0].vertices)


def _count_sweep(c, args, result):
    c["fields.sweep.steps"] += len(result[1].schedule)


def _count_trace(c, args, result):
    c["corays.trace.paths"] += len(result.paths)


def _count_repr(c, args, result):
    c["corays.repr.corays"] += len(args[2])
    c["corays.repr.stable"] += len(result.entries)


def _count_family(c, args, result):
    c["pseudometric.family.windows"] += len(result)


def _count_rho(c, args, result):
    c["pseudometric.rho.entries"] += len(result.sample) ** 2
    c["pseudometric.rho.stable"] += sum(map(sum, result.stable))


def _count_search(c, args, result):
    c["gh.search.proved"] += result.proved_optimal


def _count_export(c, args, result):
    c["cli.export.bytes"] += len(result)     # canonical JSON is ASCII


# (module, attribute, span name, counter).  Field export rows are built by
# ``fields.field_to_json`` and serialized by ``cli._canonical``; both are
# the CLI's export step.
ENTRY_POINTS = (
    ("space", "materialize_window", "space.materialize", _count_materialize),
    ("space", "_bfs_from_indices", "space.bfs", _count_bfs),
    ("fields", "u_point_assigned", "fields.sweep", _count_sweep),
    ("fields", "busemann", "fields.sweep", _count_sweep),
    ("corays", "trace_corays", "corays.trace", _count_trace),
    ("corays", "verify_gradient", "corays.verify", None),
    ("corays", "representation_check", "corays.repr", _count_repr),
    ("pseudometric", "point_assigned_family", "pseudometric.family",
     _count_family),
    ("pseudometric", "rho_matrix", "pseudometric.rho", _count_rho),
    ("pseudometric", "equivalence_classes", "pseudometric.classes", None),
    ("gh", "min_distortion_correspondence", "gh.search", _count_search),
    ("gh", "build_eps_isometry", "gh.certify", None),
    ("gh", "corr_from_isometry", "gh.certify", None),
    ("fields", "field_to_json", "cli.export", None),
    ("cli", "_canonical", "cli.export", _count_export),
)


class _Frame:
    __slots__ = ("child_s", "bfs")

    def __init__(self):
        self.child_s = 0.0
        self.bfs = 0


class Tracer:
    """Accumulates span self time, longest span and counters.

    Use as a context manager around the traced jobs; entry points are
    rebound on entry and restored on exit, so untraced jobs run the
    program unchanged.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count):
        stack = self._stack
        self_s, max_s, counts = self.self_s, self.max_s, self.counts
        calls, passes = name + ".calls", name + ".bfs_passes"
        is_bfs = name == "space.bfs"

        def traced(*args, **kwargs):
            if is_bfs:
                for f in stack:
                    f.bfs += 1
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[name] += dur - frame.child_s
                if dur > max_s[name]:
                    max_s[name] = dur
                if stack:
                    stack[-1].child_s += dur
                counts[calls] += 1
                counts[passes] += frame.bfs
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dlscape" or n.startswith("dlscape.")]
        for mod_name, attr, name, count in ENTRY_POINTS:
            original = getattr(sys.modules["dlscape." + mod_name], attr)
            traced = self._wrap(original, name, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, jobs):
    """Per-layer metrics per traced job (ratios and the longest search are
    not divided)."""
    c, s = tracer.counts, tracer.self_s
    per = {
        "space.materialize.calls": c["space.materialize.calls"],
        "space.materialize.vertices": c["space.materialize.vertices"],
        "space.materialize.self_s": s["space.materialize"],
        "space.bfs.passes": c["space.bfs.calls"],
        "space.bfs.vertices": c["space.bfs.vertices"],
        "space.bfs.self_s": s["space.bfs"],
        "fields.sweep.calls": c["fields.sweep.calls"],
        "fields.sweep.steps": c["fields.sweep.steps"],
        "fields.sweep.self_s": s["fields.sweep"],
        "corays.trace.paths": c["corays.trace.paths"],
        "corays.trace.self_s": s["corays.trace"],
        "corays.verify.calls": c["corays.verify.calls"],
        "corays.verify.bfs_passes": c["corays.verify.bfs_passes"],
        "corays.verify.self_s": s["corays.verify"],
        "corays.repr.calls": c["corays.repr.calls"],
        "corays.repr.bfs_passes": c["corays.repr.bfs_passes"],
        "corays.repr.corays": c["corays.repr.corays"],
        "corays.repr.self_s": s["corays.repr"],
        "pseudometric.family.windows": c["pseudometric.family.windows"],
        "pseudometric.family.self_s": s["pseudometric.family"],
        "pseudometric.rho.entries": c["pseudometric.rho.entries"],
        "pseudometric.rho.self_s": s["pseudometric.rho"],
        "pseudometric.classes.self_s": s["pseudometric.classes"],
        "gh.search.calls": c["gh.search.calls"],
        "gh.search.self_s": s["gh.search"],
        "gh.certify.self_s": s["gh.certify"],
        "cli.export.bytes": c["cli.export.bytes"],
        "cli.export.self_s": s["cli.export"],
    }
    out = {k: v / jobs for k, v in per.items()}
    out["corays.repr.stable_ratio"] = _ratio(c["corays.repr.stable"],
                                             c["corays.repr.corays"])
    out["pseudometric.rho.stable_ratio"] = _ratio(
        c["pseudometric.rho.stable"], c["pseudometric.rho.entries"])
    out["gh.search.proved_ratio"] = _ratio(c["gh.search.proved"],
                                           c["gh.search.calls"])
    out["gh.search.max_s"] = tracer.max_s["gh.search"]
    return out
