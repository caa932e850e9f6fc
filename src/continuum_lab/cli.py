"""Command-line front end: build models, run checks, emit JSON and SVG.

Every invocation prints one JSON report.  Exit codes: 0 when the requested
properties hold, 1 when a property check names a violation, 2 for bad
usage or domain/resource errors.  Output is deterministic for a fixed
argv and seed; timings are dropped with ``--no-timings``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List, Optional

from .chains import (RefinementPattern, generate_crooked_pattern,
                     is_crooked, pattern_from_json, pattern_to_json)
from .continua import (build_continuum, detect_triod, enumerate_subcontinua,
                       order_arcs_between)
from .errors import DomainError, ResourceError
from .metric_core import DEFAULT_TOL
from .psi import (Arc, Piece, build_psi_model, closed_form_element_count,
                  curvature_check, level_structure_report, normalize_to_psi0,
                  order_arc_path, planck_report, raw_values)
from .realize import build_tower, realize_pattern, tower_to_json
from .suite import run_all
from .svg import (chains_svg, hyperspace_svg, psi_svg, tower_svg,
                  write_svg)
from .whitney import (build_whitney_map, check_whitney_axioms,
                      equal_level_refinement, whitney_level)


# ---------------------------------------------------------------------------
# helpers


def _continuum_from_args(args) -> "GraphContinuum":
    kind = args.model
    if kind in ("path", "cycle"):
        return build_continuum(kind, n=args.size)
    if kind == "star":
        return build_continuum("star", legs=args.legs,
                               leg_length=max(args.size // args.legs, 1))
    if kind == "cantor_fan":
        return build_continuum("cantor_fan", depth=args.size)
    raise DomainError(f"unknown model {kind!r}")


def _vertex_set(text: str) -> frozenset:
    try:
        return frozenset(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise DomainError(f"bad vertex list {text!r}")


def _point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"bad point {text!r}; expected 'x,y'")
    return (float(parts[0]), float(parts[1]))


def _element_json(e) -> Dict[str, int]:
    if isinstance(e, Piece):
        return {"kind": "piece", "fiber": e.fiber, "i": e.i, "j": e.j}
    return {"kind": "arc", "start": e.start, "length": e.length}


def _element_from_text(model, text: str):
    parts = text.split(":")
    if parts[0] == "piece" and len(parts) == 4:
        e = Piece(fiber=int(parts[1]), i=int(parts[2]), j=int(parts[3]))
    elif parts[0] == "arc" and len(parts) == 3:
        e = Arc(start=int(parts[1]), length=int(parts[2]))
    elif len(parts) == 1:
        try:
            return model.elements[int(parts[0])]
        except (ValueError, IndexError):
            raise DomainError(f"bad element index {text!r}")
    else:
        raise DomainError(
            f"bad element {text!r}; use piece:F:I:J, arc:S:L, or an index")
    if e not in model.index:
        raise DomainError(f"{text!r} is not an element of this model")
    return e


def _pattern_from_args(args) -> RefinementPattern:
    if args.pattern:
        vals = tuple(int(v) for v in args.pattern.split(","))
        return RefinementPattern(assignment=vals,
                                 n_coarse=args.n or max(vals))
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return pattern_from_json(fh.read())
    return generate_crooked_pattern(args.n or 4)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result_dict, violations)


def _cmd_chains_generate(args):
    pat = generate_crooked_pattern(args.n)
    return {"pattern": json.loads(pattern_to_json(pat)),
            "length": len(pat)}, [], None


def _cmd_chains_verify(args):
    pat = _pattern_from_args(args)
    rep = is_crooked(pat)
    result = {"pattern": list(pat.assignment), "n_coarse": pat.n_coarse,
              "crooked": rep.ok}
    violations = []
    if not rep.ok:
        result["counterexample"] = list(rep.counterexample)
        violations.append(
            f"pattern is not crooked; witness {rep.counterexample}")
    return result, violations, None


def _cmd_chains_tower(args):
    tower = build_tower(args.n, args.levels, _point(args.x), _point(args.y))
    result = tower_to_json(tower)
    violations = []
    for diag in tower.diagnostics:
        if diag.mesh > diag.eps:
            violations.append(f"level {diag.level} mesh {diag.mesh} "
                              f"exceeds {diag.eps}")
    svg = tower_svg(tower) if args.svg else None
    return result, violations, svg


def _cmd_continuum_build(args):
    g = _continuum_from_args(args)
    return {"kind": g.kind, "n": g.n, "edges": [list(e) for e in g.edges],
            "pos": [list(p) for p in g.pos]}, [], None


def _cmd_continuum_enumerate(args):
    g = _continuum_from_args(args)
    subs = enumerate_subcontinua(g)
    return {"count": len(subs),
            "subcontinua": sorted(sorted(s) for s in subs)}, [], None


def _cmd_continuum_orderarcs(args):
    g = _continuum_from_args(args)
    a = _vertex_set(args.frm) if args.frm else frozenset([0])
    b = _vertex_set(args.to) if args.to else frozenset(range(g.n))
    arcs = order_arcs_between(g, a, b)
    return {"count": len(arcs),
            "arcs": [[sorted(s) for s in arc] for arc in arcs[:args.limit]],
            "truncated": len(arcs) > args.limit}, [], None


def _cmd_continuum_triod(args):
    g = _continuum_from_args(args)
    w = detect_triod(g)
    if w is None:
        return {"triod": False}, [], None
    return {"triod": True,
            "witness": {"a": sorted(w.a), "b": sorted(w.b),
                        "c": sorted(w.c), "core": sorted(w.core)}}, [], None


def _cmd_whitney_build(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    subs = sorted(enumerate_subcontinua(g), key=lambda s: (len(s), sorted(s)))
    return {"values": [{"set": sorted(s), "mu": mu(s)} for s in subs]}, [], None


def _cmd_whitney_eval(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    s = _vertex_set(args.set)
    if not g.is_connected(s):
        raise DomainError("the set is not a subcontinuum")
    return {"set": sorted(s), "mu": mu(s)}, [], None


def _cmd_whitney_check(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    subs = enumerate_subcontinua(g)
    rep = check_whitney_axioms(mu, subs, tol=args.tol)
    result = {"family_size": len(subs),
              "singleton_ok": rep.singleton_ok,
              "monotone_ok": rep.monotone_ok,
              "subadd_ok": rep.subadd_ok,
              "diff_ok": rep.diff_ok}
    violations = []
    for name, items in (("singleton", rep.singleton_violations),
                        ("monotone", rep.monotone_violations),
                        ("subadditivity", rep.subadd_violations),
                        ("difference", rep.diff_violations)):
        for item in items[:5]:
            violations.append(f"{name} axiom violated at {item}")
    return result, violations, None


def _cmd_whitney_level(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    subs = enumerate_subcontinua(g)
    members = whitney_level(mu, subs, args.t,
                            tol=args.tol if args.tol_given else None)
    return {"t": args.t,
            "members": sorted(sorted(s) for s in members)}, [], None


def _cmd_whitney_refine(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    decomposition = [frozenset(range(g.n))]
    out = equal_level_refinement(g, mu, decomposition, args.t)
    return {"pieces": [{"member": sorted(p.member), "tol": p.tol,
                        "refined": sorted(sorted(s) for s in p.pieces)}
                       for p in out]}, [], None


def _psi_from_args(args):
    return build_psi_model(m=args.m, fiber_level=args.level)


def _cmd_psi_build(args):
    model = _psi_from_args(args)
    return {"m": model.m, "k": model.k,
            "elements": [_element_json(e) for e in model.elements],
            "count": len(model.elements),
            "closed_form_count": closed_form_element_count(model.m, model.k),
            "l": model.l, "L": model.L,
            "mu_whole": model.mu[model.whole]}, [], None


def _cmd_psi_report(args):
    model = _psi_from_args(args)
    rep = planck_report(model)
    pv = normalize_to_psi0(model) if args.normalize else raw_values(model)
    fiber_values = {str(s): pv.values[Arc(start=s, length=1)]
                    for s in range(model.m)}
    lo = min(fiber_values.values())
    hi = max(fiber_values.values())
    result = {"normalized": bool(args.normalize),
              "l": lo, "L": hi,
              "boundary": sorted((_element_json(e) for e in rep.boundary),
                                 key=lambda d: sorted(d.items())),
              "boundary_size": len(rep.boundary),
              "fiber_values": fiber_values}
    violations = []
    if args.normalize and hi - lo > args.tol:
        violations.append(f"normalization left l={lo} < L={hi}")
    svg = psi_svg(model) if args.svg else None
    return result, violations, svg


def _cmd_psi_levels(args):
    model = _psi_from_args(args)
    pv = normalize_to_psi0(model)
    t = args.t if args.t is not None else pv.l
    rep = level_structure_report(pv, t)
    return {"t": t, "l": pv.l,
            "elements": [_element_json(e) for e in rep.elements],
            "components": [[_element_json(e) for e in comp]
                           for comp in rep.components],
            "component_count": len(rep.components),
            "is_cycle": rep.is_cycle,
            "epsilon": rep.epsilon, "tol": rep.tol}, [], None


def _cmd_psi_path(args):
    model = _psi_from_args(args)
    pv = normalize_to_psi0(model)
    a = _element_from_text(model, args.frm)
    b = _element_from_text(model, args.to)
    dist, path = order_arc_path(pv, a, b)
    result = {"from": _element_json(a), "to": _element_json(b),
              "distance": dist if math.isfinite(dist) else None,
              "path": [_element_json(e) for e in path]}
    violations = [] if math.isfinite(dist) else ["no path between elements"]
    return result, violations, None


def _cmd_psi_curvature(args):
    model = _psi_from_args(args)
    pv = normalize_to_psi0(model)
    rep = curvature_check(pv, trials=args.trials, seed=args.seed or 0,
                          tol=args.tol)
    result = {"trials": rep.trials, "degenerate": rep.degenerate,
              "additive": rep.additive, "worst_defect": rep.worst_defect}
    violations = []
    if not rep.all_additive:
        violations.append(
            f"{rep.degenerate - rep.additive} degenerate triples "
            f"broke additivity")
    return result, violations, None


def _cmd_plot_chain(args):
    coarse, fine, verified = realize_pattern(_pattern_from_args(args))
    svg = chains_svg([coarse, fine])
    return {"links": len(fine), "containment_ok": all(verified.containment)}, \
        [], svg


def _cmd_plot_hyperspace(args):
    g = _continuum_from_args(args)
    return {"model": args.model, "n": g.n}, [], hyperspace_svg(g)


def _cmd_plot_psi(args):
    model = _psi_from_args(args)
    return {"m": model.m, "k": model.k}, [], psi_svg(model)


def _cmd_suite_all(args):
    results = run_all()
    violations = []
    for r in results:
        if not r.ok:
            witness = {k: v for k, v in r.details.items()
                       if isinstance(v, (int, float, bool, str))}
            violations.append(f"check {r.name} failed: {witness}")
    result = {"checks": [{"name": r.name, "ok": r.ok,
                          **({} if args.no_timings
                             else {"seconds": r.seconds})}
                         for r in results],
              "passed": sum(r.ok for r in results),
              "total": len(results)}
    return result, violations, None


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="continuum-lab", description=__doc__)
    top = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write JSON report here")
        sp.add_argument("--svg", default=None, help="write SVG figure here")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--no-timings", action="store_true")

    def model_flags(sp, default_size=10):
        sp.add_argument("--model", default="path",
                        choices=["path", "cycle", "star", "cantor_fan"])
        sp.add_argument("--size", type=int, default=default_size)
        sp.add_argument("--legs", type=int, default=3)

    chains_p = top.add_parser("chains").add_subparsers(dest="sub",
                                                       required=True)
    sp = chains_p.add_parser("generate")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_chains_generate)
    sp = chains_p.add_parser("verify")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--pattern", default=None,
                    help="comma-separated coarse assignment")
    sp.add_argument("--infile", default=None, help="pattern JSON file")
    common(sp)
    sp.set_defaults(fn=_cmd_chains_verify)
    sp = chains_p.add_parser("tower")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--x", default="0,0")
    sp.add_argument("--y", default="0.25,0")
    common(sp)
    sp.set_defaults(fn=_cmd_chains_tower)

    cont_p = top.add_parser("continuum").add_subparsers(dest="sub",
                                                        required=True)
    for name, fn in (("build", _cmd_continuum_build),
                     ("enumerate", _cmd_continuum_enumerate),
                     ("orderarcs", _cmd_continuum_orderarcs),
                     ("triod", _cmd_continuum_triod)):
        sp = cont_p.add_parser(name)
        model_flags(sp)
        if name == "orderarcs":
            sp.add_argument("--from", dest="frm", default=None)
            sp.add_argument("--to", default=None)
            sp.add_argument("--limit", type=int, default=20)
        common(sp)
        sp.set_defaults(fn=fn)

    whit_p = top.add_parser("whitney").add_subparsers(dest="sub",
                                                      required=True)
    for name, fn in (("build", _cmd_whitney_build),
                     ("eval", _cmd_whitney_eval),
                     ("check", _cmd_whitney_check),
                     ("level", _cmd_whitney_level),
                     ("refine", _cmd_whitney_refine)):
        sp = whit_p.add_parser(name)
        model_flags(sp)
        if name == "eval":
            sp.add_argument("--set", required=True)
        if name == "level":
            sp.add_argument("--t", type=float, required=True)
        if name == "refine":
            sp.add_argument("--t", type=float, required=True)
        common(sp)
        sp.set_defaults(fn=fn)

    psi_p = top.add_parser("psi").add_subparsers(dest="sub", required=True)
    for name, fn in (("build", _cmd_psi_build),
                     ("report", _cmd_psi_report),
                     ("levels", _cmd_psi_levels),
                     ("path", _cmd_psi_path),
                     ("curvature", _cmd_psi_curvature)):
        sp = psi_p.add_parser(name)
        sp.add_argument("--m", type=int, default=6)
        sp.add_argument("--level", type=int, default=2)
        if name == "report":
            sp.add_argument("--normalize", action="store_true")
        if name == "levels":
            sp.add_argument("--t", type=float, default=None)
        if name == "path":
            sp.add_argument("--from", dest="frm", required=True)
            sp.add_argument("--to", required=True)
        if name == "curvature":
            sp.add_argument("--trials", type=int, default=1000)
        common(sp)
        sp.set_defaults(fn=fn)

    plot_p = top.add_parser("plot").add_subparsers(dest="sub", required=True)
    sp = plot_p.add_parser("chain")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--pattern", default=None)
    sp.add_argument("--infile", default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_plot_chain)
    sp = plot_p.add_parser("hyperspace")
    model_flags(sp)
    common(sp)
    sp.set_defaults(fn=_cmd_plot_hyperspace)
    sp = plot_p.add_parser("psi")
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--level", type=int, default=2)
    common(sp)
    sp.set_defaults(fn=_cmd_plot_psi)

    suite_p = top.add_parser("suite").add_subparsers(dest="sub",
                                                     required=True)
    sp = suite_p.add_parser("all")
    common(sp)
    sp.set_defaults(fn=_cmd_suite_all)
    return p


# ---------------------------------------------------------------------------
# dispatch


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    source = argv if argv is not None else sys.argv[1:]
    args.tol_given = "--tol" in source
    t0 = time.perf_counter()
    try:
        result, violations, svg = args.fn(args)
        status = "pass" if not violations else "fail"
    except (DomainError, ResourceError) as exc:
        result = {"error": str(exc)}
        if isinstance(exc, ResourceError) and exc.achievable is not None:
            result["achievable"] = exc.achievable
        violations = []
        status = "error"
        svg = None
    report = {"status": status, "command": " ".join(argv or sys.argv[1:]),
              "result": result, "violations": violations, "artifacts": []}
    if not args.no_timings:
        report["timings"] = {"seconds": time.perf_counter() - t0}
    if svg is not None and args.svg:
        write_svg(args.svg, svg)
        report["artifacts"].append(args.svg)
    if args.out:
        report["artifacts"].append(args.out)
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return {"pass": 0, "fail": 1, "error": 2}[status]


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
