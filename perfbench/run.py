"""Benchmark of continuum-lab: end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload towers --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the workload with tracing off and reports the
end-to-end metrics (set-up time, time to all verdicts of a pass, median
job latency, peak memory); ``--trace 1`` runs it traced and reports the
per-layer metrics, writing the spans to ``perfbench/out/``.  ``--workload
all`` does this for every workload and prints one table.  Every job's
verdict is checked by the oracle in ``oracle.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md``
for the workloads, what each metric should move, and the inputs left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (these two import no continuum_lab)
import workloads  # noqa: E402

# Set-up is measured in fresh interpreters (the measuring one included)
# and reported as the median: at least three, and up to five while the
# samples so far add up to less than SETUP_BUDGET_S.
SETUP_SAMPLES = (3, 5)
SETUP_BUDGET_S = 4.0
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MB"))
IMPORT_GROUPS = (("setup.import_numpy_s", "numpy"),
                 ("setup.import_scipy_s", "scipy"),
                 ("setup.import_self_s", "continuum_lab"))


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _python(args, timeout=WORKER_TIMEOUT_S):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def _worker(mode, workload, seed, seconds, *extra):
    proc = _python([str(HERE / "worker.py"), "--mode", mode, "--workload",
                    workload, "--seed", str(seed), "--seconds",
                    str(seconds), *extra])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Self time of the numpy, scipy and package modules at import."""
    proc = _python(["-X", "importtime", "-c", "import continuum_lab.cli"])
    total = {key: 0.0 for key, _ in IMPORT_GROUPS}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue  # the header line
        module = parts[2]
        for key, top in IMPORT_GROUPS:
            if module == top or module.startswith(top + "."):
                total[key] += int(parts[0]) / 1e6
    return total


def measure(workload, seed, seconds) -> dict:
    main = _worker("measure", workload, seed, seconds)
    setups = [main]
    while len(setups) < SETUP_SAMPLES[0] or (
            len(setups) < SETUP_SAMPLES[1]
            and sum(s["setup_raw_s"] for s in setups) < SETUP_BUDGET_S):
        setups.append(_worker("setup", workload, seed, seconds))
    main["setup_samples_s"] = [s["setup_s"] for s in setups]
    main["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
    main["metrics"] = {"setup_s": statistics.median(main["setup_samples_s"]),
                       "wall_s": main["wall_s"],
                       "job_p50_s": main["job_p50_s"],
                       "peak_rss_mb": main["peak_rss_mb"]}
    return main


def trace(workload, seed, seconds) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    result = _worker("trace", workload, seed, seconds, "--spans", str(spans))
    result["metrics"] = dict(result["layers"], **import_times())
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _print_measure(workload, seed, res) -> None:
    fail_ratio = res["failed"] / res["attempted"]
    print(f"== {workload} (seed {seed}, tracing off): {res['jobs']} jobs "
          f"x {res['passes']} passes = {res['samples']} samples")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {res['metrics'][name]:12.6g} {unit}")
    print(f"  (times at reference speed; as timed here: setup "
          f"{statistics.median(res['setup_raw_samples_s']):.6g} s, wall "
          f"{res['wall_raw_s']:.6g} s, job p50 {res['job_p50_raw_s']:.6g} s;"
          f" speed factor {statistics.median(res['speed_factors']):.4g})")
    print(f"  {'fail_ratio':<14} {fail_ratio:12.6g} ratio "
          f"(base: {res['attempted']} jobs attempted)")
    samples = ", ".join(f"{v:.4g}" for v in res["setup_samples_s"])
    breakdown = ", ".join(f"{k} {v:.4g}"
                          for k, v in res["setup_breakdown"].items())
    print(f"  setup samples  {samples} s; breakdown {breakdown}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def _print_trace(workload, seed, res) -> None:
    print(f"== {workload} (seed {seed}, traced): {res['spans']} spans in "
          f"{res['spans_file']}")
    ratio_bases = tracing.bases(res["metrics"])
    for name in sorted(res["metrics"]):
        value = res["metrics"][name]
        base = f" (base: {ratio_bases[name]})" if name in ratio_bases else ""
        print(f"  {name:<28} {value:14.6g} {_unit(name)}{base}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def run_one(workload, seed, seconds, traced) -> dict:
    if traced:
        res = trace(workload, seed, seconds)
        _print_trace(workload, seed, res)
    else:
        res = measure(workload, seed, seconds)
        _print_measure(workload, seed, res)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    res["seed"] = seed
    path.write_text(json.dumps(res, indent=1, default=str) + "\n")
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "continuum_lab" / "cli.py").is_file():
        print(f"error: no continuum_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    traces = (False, True) if args.workload == "all" and args.trace else (
        bool(args.trace),)
    attempted = failed = 0
    metrics = {}
    env = None
    for name in names:
        for traced in traces:
            try:
                res = run_one(name, args.seed, args.seconds, traced)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            env = res["env"]
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            for key, value in res["metrics"].items():
                unit = dict(END_TO_END).get(key) or _unit(key)
                metrics[prefix + key] = {"value": value, "unit": unit}
    print("env: " + json.dumps(dict(env, seed=args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
