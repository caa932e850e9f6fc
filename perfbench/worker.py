"""One benchmark process: set up a workload, run its passes, report JSON.

Run by ``run.py`` in a fresh interpreter, with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --mode measure --workload towers --seed 1 \
        --seconds 20

Modes:

* ``setup``: import the package and build the workload's one-time state,
  and report how long that took, as measured and at reference speed;
* ``measure``: set up, then run whole passes over the job list until the
  time is up (at least three), tracing off, checking every verdict;
* ``trace``: set up with tracing on, then alternate an untraced and a
  traced pass (at least one of each); per-layer metrics come from the set
  up and the first traced pass, and the spans are written to ``--spans``.

The load comes from this one thread in a closed loop: each job starts when
the previous one has returned.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import oracle
import tracing
import workloads

MIN_PASSES = 3

# Seconds the reference loop takes on the machine these numbers were first
# taken on, when it is quiet; see speed_factor.
REFERENCE_S = 0.0047


@dataclass(frozen=True, order=True)
class _Arc:
    """An arc of a 40-cycle, for the reference loop."""

    start: int
    length: int

    def cells(self) -> frozenset:
        return frozenset((self.start + i) % 40 for i in range(self.length))

    def within(self, other) -> bool:
        return isinstance(other, _Arc) and self.cells() <= other.cells()


def reference() -> int:
    """Fixed work that shares no code with the package.

    The mix the package's kernels run: containment tests between frozen
    dataclasses that build frozensets from generators, frozenset unions
    cached in a dict, and small numpy distance matrices.  Timed before every
    job, it tracks how fast this machine runs right now.  (numpy is
    imported here, not at the top, so that set-up time includes its
    import.)
    """
    import numpy as np
    arcs = [_Arc(s, n) for n in range(1, 9) for s in range(0, 40, 5)]
    pairs = sum(1 for a in arcs for b in arcs[::4]
                if a.within(b) or b.within(a))
    sizes = {}
    sets = [frozenset(range(i, i + 6)) for i in range(60)]
    for a in sets:
        for b in sets[:20]:
            u = a | b
            sizes[u] = sizes.get(u, 0) + len(u)
    pts = np.arange(40.0).reshape(20, 2)
    for k in range(40):
        d = pts[:, None, :] - pts[None, k % 20:k % 20 + 3, :]
        float(np.sqrt((d ** 2).sum(axis=2)).min())
    return pairs + len(sizes)


def speed_factor(reference_times) -> float:
    """How much slower than REFERENCE_S the machine ran during a pass."""
    return statistics.median(reference_times) / REFERENCE_S


def run_pass(job_list, state, tracer=None):
    """Run every job once, each after a timed reference loop.

    Returns per-job seconds, reference seconds, summaries and failures.
    """
    times, refs, summaries, failures = [], [], [], []
    for job in job_list:
        gc.collect()
        t0 = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - t0)
        span = (tracer.span(f"job.{job['id']}") if tracer is not None
                else contextlib.nullcontext())
        raw = error = None
        t0 = time.perf_counter()
        try:
            with span:
                raw = workloads.run(job, state)
        except Exception as exc:  # a crash is a failed job, not a halt
            error = f"{job['id']}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        summary = None
        if error is None:
            try:
                summary = oracle.summarise(job, raw, state)
                reason = oracle.check(job, summary)
            except Exception as exc:  # malformed output fails the job
                reason = f"unreadable outcome: {type(exc).__name__}: {exc}"
            if reason is not None:
                error = f"{job['id']}: {reason}"
        if tracer is not None:
            tracer.active = True
        summaries.append(summary)
        if error is not None:
            failures.append(error)
    return times, refs, summaries, failures


def _another_pass(start: float, done: int, least: int,
                  seconds: float) -> bool:
    """Start another pass if it is likely to end within the time."""
    elapsed = time.perf_counter() - start
    return done < least or elapsed + elapsed / done <= seconds


def _env() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload: str):
    """Set up, and time it as measured and at reference speed.

    The speed factor comes from twenty reference loops run right after.
    """
    t0 = time.perf_counter()
    state = workloads.setup(workload)
    seconds = time.perf_counter() - t0
    refs = []
    for _ in range(20):
        t0 = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - t0)
    factor = speed_factor(refs)
    return state, {"setup_s": seconds / factor, "setup_raw_s": seconds,
                   "setup_speed_factor": factor,
                   "setup_breakdown": state["breakdown"]}


def measure(args) -> dict:
    state, setup = timed_setup(args.workload)
    gc.freeze()
    job_list = workloads.jobs(args.workload, args.seed)
    raw = {job["id"]: [] for job in job_list}
    scaled = {job["id"]: [] for job in job_list}
    walls, factors, failures = [], [], []
    start = time.perf_counter()
    while _another_pass(start, len(walls), MIN_PASSES, args.seconds):
        times, refs, _, bad = run_pass(job_list, state)
        factor = speed_factor(refs)
        for job, t in zip(job_list, times):
            raw[job["id"]].append(t)
            scaled[job["id"]].append(t / factor)
        walls.append(sum(times))
        factors.append(factor)
        failures += bad
    medians = {k: statistics.median(v) for k, v in scaled.items()}
    raw_medians = {k: statistics.median(v) for k, v in raw.items()}
    attempted = len(walls) * len(job_list)
    return {"mode": "measure", **setup,
            "jobs": len(job_list), "passes": len(walls),
            "samples": attempted, "pass_walls_s": walls,
            "speed_factors": factors,
            "wall_s": sum(medians.values()),
            "job_p50_s": statistics.median(medians.values()),
            "wall_raw_s": sum(raw_medians.values()),
            "job_p50_raw_s": statistics.median(raw_medians.values()),
            "job_medians_s": medians,
            "peak_rss_mb": _peak_rss_mb(),
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "env": _env()}


def trace(args) -> dict:
    workloads.import_package()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    with tracer.span("setup"):
        state = workloads.setup(args.workload)
    tracer.active = False
    gc.freeze()
    job_list = workloads.jobs(args.workload, args.seed)
    plain_walls, traced_walls, failures = [], [], []
    layer = None
    start = time.perf_counter()
    while _another_pass(start, len(traced_walls), 1, args.seconds):
        times, _, plain, bad = run_pass(job_list, state)
        plain_walls.append(sum(times))
        failures += bad
        tracer.active = True
        with tracer.span("pass"):
            times, _, traced, bad = run_pass(job_list, state, tracer)
        tracer.active = False
        traced_walls.append(sum(times))
        failures += bad
        failures += [f"{job['id']}: traced verdict differs from untraced"
                     for job, a, b in zip(job_list, plain, traced) if a != b]
        if layer is None:
            report_bytes = sum(s["bytes"] for s in traced
                               if s is not None and "bytes" in s)
            layer = tracing.layer_metrics(tracer.spans, tracer.mu_calls,
                                          tracer.mu_distinct, report_bytes)
            tracer.write(args.spans)
            spans = len(tracer.spans)
            tracer.reset()
    tracer.uninstall()
    layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                 - statistics.median(plain_walls))
    attempted = 2 * len(traced_walls) * len(job_list)
    return {"mode": "trace", "layers": layer, "spans": spans,
            "spans_file": args.spans, "plain_walls_s": plain_walls,
            "traced_walls_s": traced_walls, "jobs": len(job_list),
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "peak_rss_mb": _peak_rss_mb(),
            "env": _env()}


def setup_only(args) -> dict:
    return {"mode": "setup", **timed_setup(args.workload)[1]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["setup", "measure", "trace"],
                   required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--spans", default=None,
                   help="file for the spans of a traced run")
    args = p.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        p.error("--mode trace needs --spans")
    result = {"setup": setup_only, "measure": measure,
              "trace": trace}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
