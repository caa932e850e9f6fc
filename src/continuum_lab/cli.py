"""Command-line front end: build models, run checks, emit JSON and SVG.

Every invocation prints one JSON report.  Exit codes: 0 when the requested
properties hold, 1 when a property check names a violation, 2 for bad
usage, domain/resource errors or an unwritable ``--out``/``--svg``.  Output
is deterministic for a fixed argv and seed; timings are dropped with
``--no-timings``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
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
                  planck_report, raw_values)
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
        # the center and k vertices per leg; the builder refuses legs < 3
        k, rest = divmod(args.size - 1, max(args.legs, 1))
        if k < 1 or rest:
            raise DomainError(f"star size must be 1 + legs * k with k >= 1, "
                              f"got {args.size} with {args.legs} legs")
        return build_continuum("star", legs=args.legs, leg_length=k)
    if kind == "cantor_fan":
        return build_continuum("cantor_fan", depth=args.size)
    raise DomainError(f"unknown model {kind!r}")


def _vertex_set(text: str) -> frozenset:
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"bad vertex list {text!r}")


def _point(text: str):
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"bad point {text!r}; expected 'x,y'")
    return (x, y)


def _element_json(e) -> Dict[str, int]:
    if isinstance(e, Piece):
        return {"kind": "piece", "fiber": e.fiber, "i": e.i, "j": e.j}
    return {"kind": "arc", "start": e.start, "length": e.length}


def _element_from_text(model, text: str):
    parts = text.split(":")
    if len(parts) == 1:
        try:
            return model.element(int(parts[0]))
        except (ValueError, DomainError):
            raise DomainError(f"bad element index {text!r}") from None
    try:
        nums = [int(v) for v in parts[1:]]
    except ValueError:
        nums = None
    if nums is not None and parts[0] == "piece" and len(nums) == 3:
        e = Piece(*nums)
    elif nums is not None and parts[0] == "arc" and len(nums) == 2:
        e = Arc(*nums)
    else:
        raise DomainError(
            f"bad element {text!r}; use piece:F:I:J, arc:S:L, or an index")
    try:
        model.id_of(e)
    except DomainError:
        raise DomainError(
            f"{text!r} is not an element of this model") from None
    return e


def _pattern_from_args(args) -> RefinementPattern:
    """The pattern of ``--pattern`` or ``--infile`` (never both), else the
    generated crooked pattern on ``--n`` (default 4) coarse links."""
    if args.infile is not None:
        if args.n is not None:
            raise DomainError("--n does not apply to --infile; the file "
                              "gives n_coarse")
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                return pattern_from_json(fh.read())
        except DomainError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"cannot read a pattern from {args.infile!r}: "
                              f"{type(exc).__name__}: {exc}")
    if args.pattern is not None:
        try:
            vals = tuple(int(v) for v in args.pattern.split(","))
        except ValueError:
            raise DomainError(f"bad pattern {args.pattern!r}; expected "
                              f"comma-separated integers")
        return RefinementPattern(
            assignment=vals, n_coarse=max(vals) if args.n is None else args.n)
    return generate_crooked_pattern(4 if args.n is None else args.n)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result_dict, violations, figure or None)


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
    svg = tower_svg(tower) if args.svg else None
    return tower_to_json(tower), [], svg


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
    if args.limit < 0:
        raise DomainError(f"--limit must be >= 0, got {args.limit}")
    g = _continuum_from_args(args)
    a = frozenset([0]) if args.frm is None else _vertex_set(args.frm)
    b = frozenset(range(g.n)) if args.to is None else _vertex_set(args.to)
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
    subs = enumerate_subcontinua(g)
    sizes = mu.sizes(subs).tolist()
    return {"values": [{"set": sorted(s), "mu": v}
                       for s, v in zip(subs, sizes)]}, [], None


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
    members = whitney_level(mu, subs, args.t, tol=args.tol)
    return {"t": args.t,
            "members": sorted(sorted(s) for s in members)}, [], None


def _cmd_whitney_refine(args):
    g = _continuum_from_args(args)
    mu = build_whitney_map(g, ordering_seed=args.seed)
    pieces, tol = equal_level_refinement(g, mu, args.t)
    return {"pieces": [{"member": list(range(g.n)), "tol": tol,
                        "refined": sorted(sorted(s) for s in pieces)}]
            }, [], None


def _psi_from_args(args):
    return build_psi_model(m=args.m, fiber_level=args.level)


def _cmd_psi_build(args):
    model = _psi_from_args(args)
    return {"m": model.m, "k": model.k,
            "elements": [_element_json(e) for e in model.elements],
            "count": len(model.elements),
            "closed_form_count": closed_form_element_count(model.m, model.k),
            "l": model.l, "L": model.L,
            "mu_whole": model.sizes[-1]}, [], None


def _cmd_psi_report(args):
    model = _psi_from_args(args)
    rep = planck_report(model)
    pv = normalize_to_psi0(model) if args.normalize else raw_values(model)
    fiber_values = {str(s): float(pv.v[model.id_of(Arc(start=s, length=1))])
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
    rep = level_structure_report(pv, t, tol=args.tol)
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
    # the whole space lies above any two elements, so a path always exists
    dist, path = pv.space.path_between(a, b)
    return {"from": _element_json(a), "to": _element_json(b),
            "distance": dist,
            "path": [_element_json(e) for e in path]}, [], None


def _cmd_psi_curvature(args):
    model = _psi_from_args(args)
    pv = normalize_to_psi0(model)
    rep = curvature_check(pv, trials=args.trials, seed=args.seed,
                          tol=args.tol)
    result = {"trials": rep.trials, "degenerate": rep.degenerate,
              "additive": rep.additive, "worst_defect": rep.worst_defect}
    violations = []
    if rep.triangle_breaks:
        violations.append(
            f"{rep.triangle_breaks} sampled triples broke the triangle "
            f"inequality by more than {args.tol}")
    return result, violations, None


def _cmd_plot_chain(args):
    coarse, fine = realize_pattern(_pattern_from_args(args))
    # realize_pattern refused a pattern whose closure containment fails
    return {"links": len(fine), "containment_ok": True}, [], \
        chains_svg([coarse, fine])


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One subparser per verb, each with only the options its handler reads.

    ``--out`` and ``--no-timings`` are on every verb; ``--svg`` is on the
    verbs that draw a figure, ``--seed`` on those with a seeded choice and
    ``--tol`` on those that compare sizes.  A ``--tol`` of ``None`` means
    the automatic level tolerance.  The tree is built once per process, on
    the first dispatch; every parse fills a fresh namespace.
    """
    p = argparse.ArgumentParser(prog="continuum-lab", description=__doc__)
    top = p.add_subparsers(dest="verb", required=True)

    def verb(group, name, fn):
        sp = group.add_parser(name)
        # argparse's own matcher takes -1e-9 and -1,0 for options
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
        sp.add_argument("--out", default=None, help="write JSON report here")
        sp.add_argument("--no-timings", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    def svg_flag(sp):
        sp.add_argument("--svg", default=None, help="write SVG figure here")

    def model_flags(sp):
        sp.add_argument("--model", default="path",
                        choices=["path", "cycle", "star", "cantor_fan"])
        sp.add_argument("--size", type=int, default=10)
        sp.add_argument("--legs", type=int, default=3)

    def pattern_flags(sp):
        sp.add_argument("--n", type=int, default=None)
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--pattern", default=None,
                            help="comma-separated coarse assignment")
        source.add_argument("--infile", default=None,
                            help="pattern JSON file")

    chains_p = top.add_parser("chains").add_subparsers(dest="sub",
                                                       required=True)
    sp = verb(chains_p, "generate", _cmd_chains_generate)
    sp.add_argument("--n", type=int, required=True)
    pattern_flags(verb(chains_p, "verify", _cmd_chains_verify))
    sp = verb(chains_p, "tower", _cmd_chains_tower)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--x", default="0,0")
    sp.add_argument("--y", default="0.25,0")
    svg_flag(sp)

    cont_p = top.add_parser("continuum").add_subparsers(dest="sub",
                                                        required=True)
    for name, fn in (("build", _cmd_continuum_build),
                     ("enumerate", _cmd_continuum_enumerate),
                     ("orderarcs", _cmd_continuum_orderarcs),
                     ("triod", _cmd_continuum_triod)):
        sp = verb(cont_p, name, fn)
        model_flags(sp)
        if name == "orderarcs":
            sp.add_argument("--from", dest="frm", default=None)
            sp.add_argument("--to", default=None)
            sp.add_argument("--limit", type=int, default=20)

    whit_p = top.add_parser("whitney").add_subparsers(dest="sub",
                                                      required=True)
    for name, fn in (("build", _cmd_whitney_build),
                     ("eval", _cmd_whitney_eval),
                     ("check", _cmd_whitney_check),
                     ("level", _cmd_whitney_level),
                     ("refine", _cmd_whitney_refine)):
        sp = verb(whit_p, name, fn)
        model_flags(sp)
        sp.add_argument("--seed", type=int, default=None,
                        help="seeded enumeration order of the size map")
        if name == "eval":
            sp.add_argument("--set", required=True)
        if name in ("level", "refine"):
            sp.add_argument("--t", type=float, required=True)
        if name == "check":
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        if name == "level":
            sp.add_argument("--tol", type=float, default=None)

    psi_p = top.add_parser("psi").add_subparsers(dest="sub", required=True)
    for name, fn in (("build", _cmd_psi_build),
                     ("report", _cmd_psi_report),
                     ("levels", _cmd_psi_levels),
                     ("path", _cmd_psi_path),
                     ("curvature", _cmd_psi_curvature)):
        sp = verb(psi_p, name, fn)
        sp.add_argument("--m", type=int, default=6)
        sp.add_argument("--level", type=int, default=2)
        if name == "report":
            sp.add_argument("--normalize", action="store_true")
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
            svg_flag(sp)
        if name == "levels":
            sp.add_argument("--t", type=float, default=None)
            sp.add_argument("--tol", type=float, default=None)
        if name == "path":
            sp.add_argument("--from", dest="frm", required=True)
            sp.add_argument("--to", required=True)
        if name == "curvature":
            sp.add_argument("--trials", type=int, default=1000)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL)

    plot_p = top.add_parser("plot").add_subparsers(dest="sub", required=True)
    sp = verb(plot_p, "chain", _cmd_plot_chain)
    pattern_flags(sp)
    svg_flag(sp)
    sp = verb(plot_p, "hyperspace", _cmd_plot_hyperspace)
    model_flags(sp)
    svg_flag(sp)
    sp = verb(plot_p, "psi", _cmd_plot_psi)
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--level", type=int, default=2)
    svg_flag(sp)

    suite_p = top.add_parser("suite").add_subparsers(dest="sub",
                                                     required=True)
    verb(suite_p, "all", _cmd_suite_all)
    return p


# ---------------------------------------------------------------------------
# dispatch


_dumps = functools.partial(json.dumps, sort_keys=True, indent=2, default=str)


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        tol = getattr(args, "tol", None)
        if not (tol is None or 0 <= tol < math.inf):
            raise DomainError(f"--tol must be finite and >= 0, got {tol}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        result, violations, svg = args.fn(args)
        status = "pass" if not violations else "fail"
    except (DomainError, ResourceError, MemoryError) as exc:
        # running out of memory is an error (exit 2), not a failed check
        result = {"error": f"out of memory: {exc}"
                  if isinstance(exc, MemoryError) else str(exc)}
        if isinstance(exc, ResourceError) and exc.achievable is not None:
            result["achievable"] = exc.achievable
        violations = []
        status = "error"
        svg = None
    report = {"status": status, "command": " ".join(argv or sys.argv[1:]),
              "result": result, "violations": violations, "artifacts": []}
    if not args.no_timings:
        report["timings"] = {"seconds": time.perf_counter() - t0}
    try:
        if svg is not None and args.svg is not None:
            write_svg(args.svg, svg)
            report["artifacts"].append(args.svg)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                report["artifacts"].append(args.out)
                fh.write(_dumps(report) + "\n")
    except OSError as exc:
        report.update(status="error", violations=[], result={
            "error": f"cannot write {exc.filename}: {exc.strerror}"})
    print(_dumps(report))
    return {"pass": 0, "fail": 1, "error": 2}[report["status"]]


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
