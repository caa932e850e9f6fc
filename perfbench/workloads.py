"""The four benchmark workloads: job lists, one-time state and job runners.

A job is a plain JSON-able dict, so a job list can be compared, written
out and replayed.  ``jobs(workload, seed)`` is a pure function of its
arguments: every seeded choice comes from one ``random.Random`` seeded
with the workload name and the seed.  Seeds change parameters (endpoints,
level values, Whitney orderings, tower distances and angles), never the
set of model sizes or the job order, so the work in a pass stays about the
same from seed to seed (the time of a job depends on what ran before it).

This module imports nothing from ``continuum_lab`` at import time; the
package is imported by :func:`setup`, whose time is the workload's set-up
time.  Runners reach the package through module attributes
(``psi.build_psi_model``, not a bound name), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from typing import Dict, List

WORKLOADS = ("cli-verbs", "psi-session", "hyperspace", "towers")

# psi-session keeps one model per ladder point: (m, fiber_level).
PSI_LADDER = ((6, 2), (12, 2), (6, 3))
# Links per fiber at fiber levels 2 and 3 (crooked pattern lengths 6, 30).
FIBER_LINKS = {2: 6, 3: 30}
# Below the smallest full-fiber size l of the level-2 models used here
# (l = 0.033546 at m = 12), so `psi levels --t frac * L_FLOOR` with
# frac < 1 always asks for a level strictly below l.
L_FLOOR = 0.0335

HYPERSPACE_INPUTS = (("path", 10), ("path", 13), ("path", 16),
                     ("cycle", 8), ("cycle", 10), ("cycle", 12))

# Largest endpoint distance at which build_tower(n, levels) meets its mesh
# bounds.  Meshes scale linearly with the endpoint distance, so the
# threshold is 2^-k / mesh_k at unit distance, minimised over levels k.
# Measured once on the program as it stands; the job list uses it only to
# aim about 40% of the requests past the threshold, and the oracle never
# relies on it.
TOWER_THRESHOLD = {
    (1, 1): 0.1313, (1, 2): 0.0980, (1, 3): 0.0790,
    (2, 1): 0.4743, (2, 2): 0.2942, (2, 3): 0.1794,
    (3, 1): 0.7016, (3, 2): 0.3742, (3, 3): 0.2300,
    (4, 1): 1.0086, (4, 2): 0.6113, (4, 3): 0.3547,
    (5, 1): 1.3155, (5, 2): 0.5915,
}
# A dense |K| x |L| Hausdorff matrix is computed only up to this many
# entries (about 480 MB peak with the difference tensor).  Levels 1 -> 2
# of the n = 4, 3-level tower (25,724 x 12,775 points) stay out.
DENSE_HAUSDORFF_LIMIT = 20_000_000


def element_count(m: int, k: int) -> int:
    """Distinct elements of a psi model: proper pieces, base arcs, whole."""
    return m * (k * (k + 1) // 2 - 1) + m * (m - 1) + 1


# ---------------------------------------------------------------------------
# job lists


def jobs(workload: str, seed: int) -> List[dict]:
    """The job list of one pass; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"cli-verbs": _cli_jobs, "psi-session": _psi_jobs,
            "hyperspace": _hyperspace_jobs, "towers": _tower_jobs}
    if workload not in make:
        raise ValueError(f"unknown workload {workload!r}")
    return make[workload](rng)


def _endpoint_pair(rng: random.Random, distance: float):
    x = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    y = (x[0] + distance * math.cos(angle), x[1] + distance * math.sin(angle))
    return list(x), list(y)


def _tower_distance(rng: random.Random, n: int, levels: int,
                    far: bool) -> float:
    if (n, levels) == (5, 3):
        # Always refused: the level-3 pattern over 13 links is too large.
        # The refusal reports achievable = 2 whatever the distance, so
        # these requests stay within the level-2 threshold, where that is
        # true (the open defect is in NOTES.md).
        return TOWER_THRESHOLD[(5, 2)] * rng.uniform(0.3, 0.9)
    thr = TOWER_THRESHOLD[(n, levels)]
    return thr * (rng.uniform(1.1, 2.0) if far else rng.uniform(0.3, 0.9))


def _interval_arcs(rng: random.Random, n: int, grow: int, cyclic: bool):
    """Seeded endpoints a <= b of an order-arc query and its split."""
    left = rng.randint(0, grow)
    width = rng.randint(1, 2)
    lo = rng.randint(0, n - width - grow) if not cyclic else rng.randrange(n)
    start = lo + left
    a = [(start + i) % n for i in range(width)]
    b = [(lo + i) % n for i in range(width + grow)]
    return a, b, left


def _cli_jobs(rng: random.Random) -> List[dict]:
    out = []
    nt = ["--no-timings"]
    for m in (6, 8, 10, 12):
        argv = ["psi", "report", "--m", str(m)]
        if rng.random() < 0.5:
            argv.append("--normalize")
        out.append({"kind": "cli", "id": f"psi-report-m{m}", "m": m,
                    "argv": argv + nt})
    for m in (6, 8, 12):
        # below l the nerve costs more the lower t is: keep t in one band
        below = ["--t", repr(rng.uniform(0.45, 0.55) * L_FLOOR)]
        for where, extra in (("below", below), ("at", [])):
            out.append({"kind": "cli", "id": f"psi-levels-{where}-m{m}",
                        "m": m, "below_l": where == "below",
                        "argv": ["psi", "levels", "--m", str(m)] + extra + nt})
    for m, level in ((6, 2), (8, 2), (12, 2), (6, 3)):
        a, b = rng.sample(range(element_count(m, FIBER_LINKS[level])), 2)
        out.append({"kind": "cli", "id": f"psi-path-m{m}-l{level}",
                    "argv": ["psi", "path", "--m", str(m), "--level",
                             str(level), "--from", str(a), "--to", str(b)]
                    + nt})
    for m in (6, 8, 12):
        out.append({"kind": "cli", "id": f"psi-curvature-m{m}",
                    "argv": ["psi", "curvature", "--m", str(m), "--trials",
                             "40", "--seed", str(rng.randrange(10**6))]
                    + nt})
    for model, n in (("path", 10), ("path", 13), ("path", 16),
                     ("cycle", 8), ("cycle", 10)):
        out.append({"kind": "cli", "id": f"whitney-check-{model}{n}",
                    "model": model, "n": n,
                    "argv": ["whitney", "check", "--model", model, "--size",
                             str(n), "--seed", str(rng.randrange(10**6))]
                    + nt})
    model = rng.choice(["path", "cycle"])
    n = rng.randint(8, 12)
    out.append({"kind": "cli", "id": "continuum-enumerate", "model": model,
                "n": n, "argv": ["continuum", "enumerate", "--model", model,
                                 "--size", str(n)] + nt})
    for model, size in (("path", rng.randint(10, 12)),
                        ("cycle", rng.randint(8, 10)), ("cantor_fan", 2)):
        out.append({"kind": "cli", "id": f"continuum-triod-{model}",
                    "model": model,
                    "argv": ["continuum", "triod", "--model", model,
                             "--size", str(size)] + nt})
    a, b, left = _interval_arcs(rng, 10, 6, cyclic=False)
    out.append({"kind": "cli", "id": "continuum-orderarcs", "grow": 6,
                "left": left, "limit": 5,
                "argv": ["continuum", "orderarcs", "--model", "path",
                         "--size", "10", "--from", ",".join(map(str, a)),
                         "--to", ",".join(map(str, b)), "--limit", "5"] + nt})
    out.append({"kind": "cli", "id": "chains-generate",
                "argv": ["chains", "generate", "--n",
                         str(rng.randint(4, 7))] + nt})
    n = rng.randint(4, 7)
    if rng.random() < 0.5:
        verify = ["--n", str(n)]
    else:  # a straight run, which is not crooked from four links on
        verify = ["--pattern", ",".join(str(v) for v in range(1, n + 1))]
    out.append({"kind": "cli", "id": "chains-verify",
                "argv": ["chains", "verify"] + verify + nt})
    for far in (False, True):  # one tower built, one refused
        x, y = _endpoint_pair(rng, _tower_distance(rng, 4, 3, far))
        out.append({"kind": "cli", "n": 4, "levels": 3,
                    "id": "chains-tower-" + ("far" if far else "near"),
                    "argv": ["chains", "tower", "--n", "4", "--levels", "3",
                             f"--x={x[0]!r},{x[1]!r}",
                             f"--y={y[0]!r},{y[1]!r}"] + nt})
    out.append({"kind": "cli", "id": "suite-all",
                "argv": ["suite", "all"] + nt})
    return out


def _psi_jobs(rng: random.Random) -> List[dict]:
    out = []
    for m, level in PSI_LADDER:
        point = [m, level]
        count = element_count(m, FIBER_LINKS[level])
        tag = f"m{m}-l{level}"
        for q in range(15):
            a, b = rng.sample(range(count), 2)
            out.append({"kind": "psi-path", "id": f"path-{tag}-{q}",
                        "point": point, "a": a, "b": b})
        for q in range(12):
            pairs = [rng.sample(range(count), 2) for _ in range(100)]
            out.append({"kind": "psi-distance", "id": f"distance-{tag}-{q}",
                        "point": point, "pairs": pairs})
        # one t in each band below l: lower t costs more
        levels = [("below", rng.uniform(lo, lo + 0.2))
                  for lo in (0.3, 0.5, 0.7)] + [("at", 1.0), ("above", None)]
        for q, (where, frac) in enumerate(levels):
            out.append({"kind": "psi-levels", "id": f"levels-{tag}-{q}",
                        "point": point, "where": where, "frac": frac})
        if level == 2:  # each curvature run builds its own path space
            for q in range(3):
                out.append({"kind": "psi-curvature",
                            "id": f"curvature-{tag}-{q}", "point": point,
                            "trials": 20, "seed": rng.randrange(10**6)})
    return out


def _hyperspace_jobs(rng: random.Random) -> List[dict]:
    out = []
    for model, n in HYPERSPACE_INPUTS:
        tag = f"{model}{n}"
        base = {"model": model, "n": n}
        for op in ("enumerate", "axioms", "distances", "triod"):
            out.append({"kind": "hyperspace", "op": op, "id": f"{op}-{tag}",
                        "ordering_seed": rng.randrange(10**6), **base})
        family = n * (n + 1) // 2 if model == "path" else n * (n - 1) + 1
        out.append({"kind": "hyperspace", "op": "level", "id": f"level-{tag}",
                    "ordering_seed": rng.randrange(10**6),
                    "member": rng.randrange(family), **base})
        grow = 6 if model == "path" else 5
        a, b, left = _interval_arcs(rng, n, grow, cyclic=model == "cycle")
        out.append({"kind": "hyperspace", "op": "order_arcs",
                    "id": f"order_arcs-{tag}", "a": a, "b": b, "grow": grow,
                    "left": left, **base})
    return out


def _tower_jobs(rng: random.Random) -> List[dict]:
    out = []
    slots = [(n, levels) for n in range(1, 6) for levels in (1, 2, 3)]
    # The second request of every slot but five aims past the mesh
    # threshold; with the two (5, 3) requests, 12 of 30 are refused.  The
    # (4, 3) tower is always built: its levels 2 -> 3 Hausdorff step sets
    # peak memory.  The same slots are refused on every seed, so the work
    # stays the same.
    near_slots = {(1, 1), (2, 1), (3, 1), (4, 3), (5, 3)}
    for n, levels in slots:
        for q in range(2):
            far = q == 1 and (n, levels) not in near_slots
            x, y = _endpoint_pair(rng, _tower_distance(rng, n, levels, far))
            out.append({"kind": "tower", "id": f"tower-n{n}-l{levels}-{q}",
                        "n": n, "levels": levels, "x": x, "y": y})
    for n in range(1, 11):
        out.append({"kind": "crooked", "id": f"crooked-{n}", "n": n})
    for n in range(1, 6):
        out.append({"kind": "min-spanning", "id": f"min-spanning-{n}",
                    "n": n})
    return out


# ---------------------------------------------------------------------------
# one-time state


def import_package() -> None:
    """Import every module a workload calls (the CLI imports them all)."""
    import continuum_lab.cli  # noqa: F401


def setup(workload: str) -> Dict[str, object]:
    """Import the package and build the workload's one-time state.

    Returns the state and a breakdown of where set-up time went.
    """
    t0 = time.perf_counter()
    import_package()
    breakdown: Dict[str, float] = {"import_s": time.perf_counter() - t0}
    state: Dict[str, object] = {"breakdown": breakdown}
    if workload == "psi-session":
        from continuum_lab import psi
        for m, level in PSI_LADDER:
            tag = f"m{m}-l{level}"
            t = time.perf_counter()
            model = psi.build_psi_model(m=m, fiber_level=level)
            t1 = time.perf_counter()
            pv = psi.normalize_to_psi0(model)
            t2 = time.perf_counter()
            space = psi.PsiPathspace(pv)
            t3 = time.perf_counter()
            breakdown[f"{tag}.build_s"] = t1 - t
            breakdown[f"{tag}.normalize_s"] = t2 - t1
            breakdown[f"{tag}.pathspace_s"] = t3 - t2
            state[(m, level)] = (model, pv, space)
    breakdown["total_s"] = time.perf_counter() - t0
    return state


# ---------------------------------------------------------------------------
# runners: the timed part of a job.  A ResourceError is an outcome (the
# oracle judges it); any other exception propagates and counts as failed.


def run(job: dict, state: Dict[str, object]):
    return _RUNNERS[job["kind"]](job, state)


def _run_cli(job, state):
    from continuum_lab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.dispatch(list(job["argv"]))
    return rc, buf.getvalue()


def _point(job, state):
    return state[tuple(job["point"])]


def _run_psi_path(job, state):
    model, _, space = _point(job, state)
    return space.path_between(model.elements[job["a"]],
                              model.elements[job["b"]])


def _run_psi_distance(job, state):
    model, pv, _ = _point(job, state)
    el = model.elements
    return [pv.distance(el[a], el[b]) for a, b in job["pairs"]]


def _level_t(job, model, pv):
    from continuum_lab import psi
    if job["where"] == "above":
        return pv.values[psi.Arc(start=0, length=2)]
    return job["frac"] * pv.l


def _run_psi_levels(job, state):
    from continuum_lab import psi
    model, pv, _ = _point(job, state)
    return psi.level_structure_report(pv, _level_t(job, model, pv))


def _run_psi_curvature(job, state):
    from continuum_lab import psi
    _, pv, _ = _point(job, state)
    return psi.curvature_check(pv, trials=job["trials"], seed=job["seed"])


def _run_hyperspace(job, state):
    from continuum_lab import continua, whitney
    g = continua.build_continuum(job["model"], n=job["n"])
    if job["op"] == "order_arcs":
        return continua.order_arcs_between(g, frozenset(job["a"]),
                                           frozenset(job["b"]))
    family = continua.enumerate_subcontinua(g)
    op = job["op"]
    if op == "enumerate":
        return family
    if op == "triod":
        return continua.detect_triod(g, family)
    mu = whitney.build_whitney_map(g, ordering_seed=job["ordering_seed"])
    if op == "axioms":
        return whitney.check_whitney_axioms(mu, family)
    if op == "distances":
        return whitney.hyperspace_distance_matrices(g, mu, family)
    member = family[job["member"]]
    return member, whitney.whitney_level(mu, family, mu(member))


def _hausdorff_steps(tower):
    """Dense Hausdorff distance between consecutive levels where it fits."""
    import numpy as np
    from continuum_lab import metric_core, realize
    levels = realize.realize_planar(tower)
    sets = [metric_core.FinitePointSet(
        points=np.vstack([link.points for link in links]))
        for links in levels]
    steps = []
    for k in range(len(sets) - 1):
        if len(sets[k]) * len(sets[k + 1]) > DENSE_HAUSDORFF_LIMIT:
            steps.append(None)
            continue
        steps.append(metric_core.hausdorff_distance(sets[k], sets[k + 1]))
    return sets, steps


def _run_tower(job, state):
    from continuum_lab import realize
    from continuum_lab.errors import ResourceError
    try:
        tower = realize.build_tower(job["n"], job["levels"],
                                    tuple(job["x"]), tuple(job["y"]))
    except ResourceError as err:
        return err
    sets, steps = _hausdorff_steps(tower)
    return tower, sets, steps


def _run_crooked(job, state):
    from continuum_lab import chains
    pattern = chains.generate_crooked_pattern(job["n"])
    return pattern, chains.is_crooked(pattern)


def _run_min_spanning(job, state):
    from continuum_lab import chains
    return chains.minimal_spanning_crooked_length(job["n"])


_RUNNERS = {"cli": _run_cli, "psi-path": _run_psi_path,
            "psi-distance": _run_psi_distance, "psi-levels": _run_psi_levels,
            "psi-curvature": _run_psi_curvature,
            "hyperspace": _run_hyperspace, "tower": _run_tower,
            "crooked": _run_crooked, "min-spanning": _run_min_spanning}
