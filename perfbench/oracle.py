"""Verdict oracle: what each job's outcome must satisfy.

``summarise`` distils a job's raw outcome into plain facts; it runs
outside the timed region and with tracing paused, and may call the
program again (a refused tower's achievable level is rebuilt there).
``check`` compares those facts with properties that hold whatever the
platform: exit codes, the Planck boundary being the full fibers, Whitney
axioms, tower diagnostics, curvature additivity, counts with closed forms,
and crookedness decided by an implementation of its own.  It never compares
the curvature ``degenerate`` count or a bit-exact size such as ``l``: both
differ between machines.

Expected outcomes are not failures: ``suite all`` exits 1 naming only the
census check ``psi_model`` (151 elements against the stated 157), a
straight chain pattern is not crooked, and a refused tower is correct when
its ``achievable`` level builds and one level more is refused.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from types import SimpleNamespace
from typing import List, Optional, Sequence

TOL = 1e-12
MIN_SPANNING_LENGTH = {1: 1, 2: 2, 3: 3, 4: 6, 5: 13}


# ---------------------------------------------------------------------------
# independent references


@lru_cache(maxsize=None)
def crooked(p: tuple, n_coarse: int) -> bool:
    """Zigzag condition, decided from next-occurrence tables.

    For every i < j with p[j] >= p[i] + 3 there must be i < a < b < j with
    p[a] = p[j] - 1 and p[b] = p[i] + 1 (the condition ``is_crooked``
    documents).
    """
    n = len(p)
    nxt = {v: [n] * (n + 1) for v in range(1, n_coarse + 1)}
    for idx in range(n - 1, -1, -1):
        for v in nxt:
            nxt[v][idx] = idx if p[idx] == v else nxt[v][idx + 1]
    for i in range(n):
        k = p[i]
        for j in range(i + 1, n):
            m = p[j]
            if m < k + 3:
                continue
            a = nxt[m - 1][i + 1]
            if not (a < j and nxt[k + 1][a + 1] < j):
                return False
    return True


def spanning_walk(p: Sequence[int], n_coarse: int) -> bool:
    return (len(p) > 0 and p[0] == 1 and p[-1] == n_coarse
            and set(p) == set(range(1, n_coarse + 1))
            and all(abs(a - b) <= 1 for a, b in zip(p, p[1:])))


def family_size(model: str, n: int) -> int:
    return n * (n + 1) // 2 if model == "path" else n * (n - 1) + 1


def is_arc(vertices: Sequence[int], model: str, n: int) -> bool:
    """A connected vertex set of a path (an interval) or a cycle (an arc)."""
    s = set(vertices)
    if not s or len(s) != len(vertices):
        return False
    if model == "path":
        return max(s) - min(s) == len(s) - 1
    return len(s) == n or sum((v - 1) % n not in s for v in s) == 1


# ---------------------------------------------------------------------------
# summaries


def summarise(job: dict, raw, state) -> dict:
    return _SUMMARISERS[job["kind"]](job, raw, state)


def _cli_summary(job, raw, state):
    rc, text = raw
    report = json.loads(text)
    out = {"rc": rc, "status": report["status"],
           "violations": report["violations"], "result": report["result"],
           "bytes": len(text)}
    result = report["result"]
    argv = job["argv"]
    if argv[:2] == ["chains", "tower"] and "achievable" in result:
        x, y = (tuple(float(v) for v in a.split("=", 1)[1].split(","))
                for a in argv if a.startswith(("--x=", "--y=")))
        out["followup"] = _tower_followup(job["n"], job["levels"], x, y,
                                          result["achievable"])
    return out


def _tower_followup(n, levels, x, y, achievable):
    """Does the achievable level build, and is one level more refused?"""
    from continuum_lab import realize
    from continuum_lab.errors import ResourceError
    builds = True
    if achievable >= 1:
        try:
            realize.build_tower(n, achievable, x, y)
        except ResourceError:
            builds = False
    refused = achievable < levels
    if refused:
        try:
            realize.build_tower(n, achievable + 1, x, y)
            refused = False
        except ResourceError:
            pass
    return {"achievable": achievable, "achievable_builds": builds,
            "next_refused": refused}


def _psi_path_summary(job, raw, state):
    model, pv, _ = state[tuple(job["point"])]
    dist, path = raw
    a, b = model.elements[job["a"]], model.elements[job["b"]]
    steps = list(zip(path, path[1:]))
    return {
        "finite": math.isfinite(dist),
        "ends_ok": bool(path) and path[0] == a and path[-1] == b,
        "steps_comparable": all(model.leq(u, v) or model.leq(v, u)
                                for u, v in steps),
        "length_ok": abs(sum(abs(pv.values[u] - pv.values[v])
                             for u, v in steps) - dist) <= 1e-9,
    }


def _psi_distance_summary(job, raw, state):
    model, pv, _ = state[tuple(job["point"])]
    el = model.elements
    nonneg = all(d >= 0 and math.isfinite(d) for d in raw)
    positive = all(d > 0 for d in raw)  # pairs are distinct elements
    exact = True
    for (ia, ib), d in zip(job["pairs"], raw):
        a, b = el[ia], el[ib]
        if model.leq(a, b) or model.leq(b, a):
            exact = exact and abs(d - abs(pv.values[a] - pv.values[b])) <= TOL
    return {"count": len(raw), "nonneg": nonneg, "positive": positive,
            "comparable_exact": exact}


def _psi_levels_summary(job, raw, state):
    from continuum_lab import psi
    model = state[tuple(job["point"])][0]
    fibers = {psi.Arc(start=s, length=1) for s in range(model.m)}
    return {"m": model.m, "components": len(raw.components),
            "is_cycle": raw.is_cycle,
            "elements_are_fibers": set(raw.elements) == fibers}


def _psi_curvature_summary(job, raw, state):
    return {"trials": raw.trials, "all_additive": raw.all_additive}


def _hyperspace_summary(job, raw, state):
    import numpy as np
    op = job["op"]
    if op == "enumerate":
        return {"count": len(raw),
                "distinct": len(set(raw)) == len(raw),
                "all_arcs": all(is_arc(sorted(s), job["model"], job["n"])
                                for s in raw)}
    if op == "axioms":
        return {"all_ok": raw.all_ok}
    if op == "triod":
        return {"triod": raw is not None}
    if op == "level":
        member, level = raw
        return {"member_in_level": member in level}
    if op == "order_arcs":
        a, b = frozenset(job["a"]), frozenset(job["b"])
        return {"count": len(raw),
                "chains_ok": all(arc[0] == a and arc[-1] == b
                                 and len(arc) == len(b) - len(a) + 1
                                 and all(len(v - u) == 1 and u < v
                                         for u, v in zip(arc, arc[1:]))
                                 for arc in raw)}
    dh, dm = raw
    k = dm.shape[0]
    off = ~np.eye(k, dtype=bool)
    tri = (dm[:, :, None] + dm[None, :, :] - dm[:, None, :]).min()
    return {"size": k,
            "symmetric": bool((dh == dh.T).all() and (dm == dm.T).all()),
            "zero_diagonal": bool((np.diag(dh) == 0).all()
                                  and (np.diag(dm) == 0).all()),
            "positive": bool((dh[off] > 0).all() and (dm[off] > 0).all()),
            "triangle": bool(tri >= -TOL)}


def _tower_summary(job, raw, state):
    from continuum_lab.errors import ResourceError
    if isinstance(raw, ResourceError):
        return {"built": False, "error": str(raw),
                "followup": _tower_followup(job["n"], job["levels"],
                                            tuple(job["x"]), tuple(job["y"]),
                                            raw.achievable)}
    from scipy.spatial.distance import directed_hausdorff
    tower, sets, steps = raw
    hausdorff = []
    for k, rep in enumerate(steps):
        if rep is None:
            continue
        a, b = sets[k].points, sets[k + 1].points
        ref = max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])
        hausdorff.append({"matches_reference": abs(rep.value - ref) <= 1e-9,
                          "within_mesh": rep.value
                          <= tower.diagnostics[k].mesh + 1e-9})
    return {"built": True, "levels": len(tower.levels),
            "diagnostics": [_diag_facts(d) for d in tower.diagnostics],
            "hausdorff": hausdorff}


def _diag_facts(d) -> dict:
    facts = {"mesh_below_eps": d.mesh < d.eps, "chain_ok": d.chain_ok}
    if d.level > 1:
        facts["nested"] = d.nested_in_previous is True
        facts["hausdorff_within_bound"] = (d.hausdorff_to_previous
                                           <= d.hausdorff_bound)
    return facts


def _crooked_summary(job, raw, state):
    pattern, report = raw
    return {"pattern": list(pattern.assignment),
            "n_coarse": pattern.n_coarse, "ok": report.ok}


def _min_spanning_summary(job, raw, state):
    length, pattern = raw
    return {"length": length, "pattern": list(pattern.assignment),
            "n_coarse": pattern.n_coarse}


_SUMMARISERS = {"cli": _cli_summary, "psi-path": _psi_path_summary,
                "psi-distance": _psi_distance_summary,
                "psi-levels": _psi_levels_summary,
                "psi-curvature": _psi_curvature_summary,
                "hyperspace": _hyperspace_summary, "tower": _tower_summary,
                "crooked": _crooked_summary,
                "min-spanning": _min_spanning_summary}


# ---------------------------------------------------------------------------
# checks: None when the outcome is right, else the reason it is not


def check(job: dict, summary: dict) -> Optional[str]:
    problems = _CHECKS[job["kind"]](job, summary)
    return "; ".join(problems) if problems else None


def _falsy(summary: dict, keys: Sequence[str]) -> List[str]:
    return [f"{k} is false" for k in keys if not summary.get(k)]


def _check_tower_facts(s: dict, levels: int) -> List[str]:
    if not s["built"] and "followup" not in s:
        return ["tower neither built nor refused"]
    if "followup" in s:
        f = s["followup"]
        out = []
        if not f["achievable_builds"]:
            out.append(f"achievable level {f['achievable']} does not build")
        if f["achievable"] >= levels:
            out.append(f"refused at achievable {f['achievable']} >= "
                       f"requested {levels}")
        elif not f["next_refused"]:
            out.append(f"level {f['achievable'] + 1} builds but was refused")
        return out
    out = []
    if len(s["diagnostics"]) != levels:
        out.append(f"{len(s['diagnostics'])} levels built, {levels} asked")
    for d in s["diagnostics"]:
        out += [f"{k} fails" for k, v in d.items() if not v]
    for h in s.get("hausdorff", []):
        out += [f"hausdorff {k} fails" for k, v in h.items() if not v]
    return out


def _check_cli(job, s):
    verb = job["argv"][:2]
    r = s["result"]
    want_rc = 0
    if verb == ["suite", "all"]:
        want_rc = 1
    elif verb == ["chains", "verify"]:
        want_rc = 0 if crooked(tuple(r["pattern"]), r["n_coarse"]) else 1
    elif verb == ["chains", "tower"] and "achievable" in r:
        want_rc = 2
    if s["rc"] != want_rc:
        return [f"exit code {s['rc']}, expected {want_rc}"]
    if verb == ["psi", "report"]:
        fibers = [{"kind": "arc", "start": f, "length": 1}
                  for f in range(job["m"])]
        out = [] if r["boundary"] == fibers else ["boundary is not the fibers"]
        if r["normalized"] and abs(r["L"] - r["l"]) > TOL:
            out.append("normalized fibers differ in size")
        return out
    if verb == ["psi", "levels"]:
        if job["below_l"]:
            ok = r["component_count"] == job["m"] and not r["is_cycle"]
        else:
            ok = (r["component_count"] == 1 and r["is_cycle"] and
                  sorted(e["start"] for e in r["elements"])
                  == list(range(job["m"]))
                  and all(e == {"kind": "arc", "start": e["start"],
                                "length": 1} for e in r["elements"]))
        return [] if ok else ["level structure is wrong"]
    if verb == ["psi", "path"]:
        ok = (r["distance"] is not None and r["distance"] > 0
              and r["path"][0] == r["from"] and r["path"][-1] == r["to"])
        return [] if ok else ["path does not join the endpoints"]
    if verb == ["psi", "curvature"]:
        return [] if r["additive"] == r["degenerate"] else ["not additive"]
    if verb == ["whitney", "check"]:
        out = _falsy(r, ("singleton_ok", "monotone_ok", "subadd_ok",
                         "diff_ok"))
        if r["family_size"] != family_size(job["model"], job["n"]):
            out.append(f"family size {r['family_size']}")
        return out
    if verb == ["continuum", "enumerate"]:
        ok = (r["count"] == family_size(job["model"], job["n"])
              and all(is_arc(v, job["model"], job["n"])
                      for v in r["subcontinua"]))
        return [] if ok else ["subcontinua are wrong"]
    if verb == ["continuum", "triod"]:
        want = job["model"] == "cantor_fan"
        if r["triod"] != want:
            return [f"triod {r['triod']}, expected {want}"]
        if want:
            w = {k: set(v) for k, v in r["witness"].items()}
            core = w["core"]
            ok = (core and w["a"] & w["b"] == core and w["b"] & w["c"] == core
                  and w["a"] & w["c"] == core
                  and all(core < w[k] for k in "abc"))
            return [] if ok else ["triod witness is wrong"]
        return []
    if verb == ["continuum", "orderarcs"]:
        count = math.comb(job["grow"], job["left"])
        ok = (r["count"] == count and r["truncated"] == (count > job["limit"])
              and len(r["arcs"]) == min(count, job["limit"]))
        return [] if ok else [f"order arcs {r['count']}, expected {count}"]
    if verb == ["chains", "generate"]:
        p, n = r["pattern"]["pattern"], r["pattern"]["n_coarse"]
        ok = (spanning_walk(p, n) and crooked(tuple(p), n)
              and r["length"] == len(p))
        return [] if ok else ["generated pattern is not spanning and crooked"]
    if verb == ["chains", "verify"]:
        want = crooked(tuple(r["pattern"]), r["n_coarse"])
        return [] if r["crooked"] == want else ["crookedness verdict wrong"]
    if verb == ["chains", "tower"]:
        if "achievable" in r:
            return _check_tower_facts({"built": False,
                                       "followup": s["followup"]},
                                      job["levels"])
        diags = [_diag_facts(SimpleNamespace(**d)) for d in r["diagnostics"]]
        return _check_tower_facts({"built": True, "diagnostics": diags},
                                  job["levels"])
    if verb == ["suite", "all"]:
        failed = [c["name"] for c in r["checks"] if not c["ok"]]
        census = s["violations"][0] if len(s["violations"]) == 1 else ""
        ok = (failed == ["psi_model"] and "'elements': 151" in census
              and "'closed_form': 157" in census)
        return [] if ok else [f"suite failures {failed}, expected the "
                              f"census check alone"]
    return [f"no oracle for {verb}"]


def _check_psi_path(job, s):
    return _falsy(s, ("finite", "ends_ok", "steps_comparable", "length_ok"))


def _check_psi_distance(job, s):
    out = _falsy(s, ("nonneg", "positive", "comparable_exact"))
    if s["count"] != len(job["pairs"]):
        out.append("missing distances")
    return out


def _check_psi_levels(job, s):
    if job["where"] == "below":
        ok = s["components"] == s["m"] and not s["is_cycle"]
    else:
        ok = s["components"] == 1 and s["is_cycle"]
        if job["where"] == "at":
            ok = ok and s["elements_are_fibers"]
    return [] if ok else [f"level {job['where']} l has {s['components']} "
                          f"components, cycle {s['is_cycle']}"]


def _check_psi_curvature(job, s):
    out = _falsy(s, ("all_additive",))
    if s["trials"] != job["trials"]:
        out.append("trial count changed")
    return out


def _check_hyperspace(job, s):
    op = job["op"]
    if op == "enumerate":
        out = _falsy(s, ("distinct", "all_arcs"))
        if s["count"] != family_size(job["model"], job["n"]):
            out.append(f"{s['count']} subcontinua")
        return out
    if op == "axioms":
        return _falsy(s, ("all_ok",))
    if op == "triod":
        return ["a path or cycle has a triod"] if s["triod"] else []
    if op == "level":
        return _falsy(s, ("member_in_level",))
    if op == "order_arcs":
        count = math.comb(job["grow"], job["left"])
        out = _falsy(s, ("chains_ok",))
        if s["count"] != count:
            out.append(f"{s['count']} order arcs, expected {count}")
        return out
    out = _falsy(s, ("symmetric", "zero_diagonal", "positive", "triangle"))
    if s["size"] != family_size(job["model"], job["n"]):
        out.append("distance matrix has the wrong size")
    return out


def _check_tower(job, s):
    return _check_tower_facts(s, job["levels"])


def _check_crooked(job, s):
    p, n = tuple(s["pattern"]), s["n_coarse"]
    out = []
    if n != job["n"] or not spanning_walk(p, n):
        out.append("pattern does not span")
    if s["ok"] != crooked(p, n):
        out.append(f"is_crooked says {s['ok']}")
    return out


def _check_min_spanning(job, s):
    p, n = tuple(s["pattern"]), s["n_coarse"]
    want = MIN_SPANNING_LENGTH[job["n"]]
    ok = (s["length"] == want == len(p) and n == job["n"]
          and spanning_walk(p, n) and crooked(p, n))
    return [] if ok else [f"minimal length {s['length']}, expected {want}"]


_CHECKS = {"cli": _check_cli, "psi-path": _check_psi_path,
           "psi-distance": _check_psi_distance,
           "psi-levels": _check_psi_levels,
           "psi-curvature": _check_psi_curvature,
           "hyperspace": _check_hyperspace, "tower": _check_tower,
           "crooked": _check_crooked, "min-spanning": _check_min_spanning}
