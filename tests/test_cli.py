import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from continuum_lab import cli, suite
from continuum_lab.chains import generate_crooked_pattern, pattern_to_json
from continuum_lab.cli import _build_parser, dispatch
from continuum_lab.metric_core import DEFAULT_TOL


def run(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_chains_generate_example(capsys):
    code, rep = run(["chains", "generate", "--n", "4", "--no-timings"],
                    capsys)
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["result"]["length"] == 6
    assert rep["result"]["pattern"]["pattern"] == [1, 2, 3, 2, 3, 4]


def test_whitney_check_example(capsys):
    code, rep = run(["whitney", "check", "--model", "path", "--size", "10",
                     "--no-timings"], capsys)
    assert code == 0
    r = rep["result"]
    assert r["family_size"] == 55
    assert all(r[k] for k in ("singleton_ok", "monotone_ok", "subadd_ok",
                              "diff_ok"))


def test_psi_report_example(capsys):
    code, rep = run(["psi", "report", "--m", "6", "--level", "2",
                     "--normalize", "--no-timings"], capsys)
    assert code == 0
    r = rep["result"]
    assert r["boundary_size"] == 6
    assert r["l"] == r["L"]


def test_failing_check_exits_one_with_witness(capsys):
    code, rep = run(["chains", "verify", "--pattern", "1,2,3,4",
                     "--no-timings"], capsys)
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["violations"]
    assert rep["result"]["counterexample"] == [1, 4, 1, 4]


@pytest.mark.parametrize("pattern, witness", [
    ("4,3,2,1", [4, 1, 1, 4]),
    # spanning, but with a straight descent 4 -> 3 -> 2 -> 1 at links 6..9
    ("1,2,3,2,3,4,3,2,1,2,3,2,3,4", [4, 1, 6, 9]),
])
def test_downward_run_is_not_crooked(pattern, witness, capsys):
    code, rep = run(["chains", "verify", "--pattern", pattern,
                     "--no-timings"], capsys)
    assert code == 1
    assert rep["status"] == "fail" and rep["result"]["crooked"] is False
    assert rep["result"]["counterexample"] == witness


def test_domain_error_exits_two(capsys):
    code, rep = run(["whitney", "eval", "--model", "path", "--size", "5",
                     "--set", "0,2", "--no-timings"], capsys)
    assert code == 2
    assert rep["status"] == "error"


def test_resource_error_reports_achievable(capsys):
    code, rep = run(["chains", "tower", "--levels", "5", "--no-timings"],
                    capsys)
    assert code == 2
    assert rep["result"]["achievable"] == 3


def test_bad_flags_exit_two(capsys):
    assert dispatch(["chains", "generate", "--bogus"]) == 2
    assert dispatch(["nonsense"]) == 2


def test_deterministic_output(capsys):
    a = run(["psi", "build", "--no-timings"], capsys)
    b = run(["psi", "build", "--no-timings"], capsys)
    assert a == b


def test_out_and_svg_artifacts(tmp_path, capsys):
    out = tmp_path / "report.json"
    svg = tmp_path / "tower.svg"
    code, rep = run(["chains", "tower", "--n", "4", "--levels", "3",
                     "--out", str(out), "--svg", str(svg), "--no-timings"],
                    capsys)
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["status"] == "pass"
    assert svg.read_text().startswith("<svg")


def test_out_report_lists_itself(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = dispatch(["chains", "generate", "--n", "4", "--out", str(out),
                     "--no-timings"])
    printed = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == printed
    assert json.loads(printed)["artifacts"] == [str(out)]


def test_timings_present_unless_suppressed(capsys):
    _, with_t = run(["chains", "generate", "--n", "3"], capsys)
    _, without = run(["chains", "generate", "--n", "3", "--no-timings"],
                     capsys)
    assert "timings" in with_t and "timings" not in without


def test_psi_path_subcommand(capsys):
    code, rep = run(["psi", "path", "--from", "piece:0:1:2", "--to",
                     "piece:3:1:2", "--no-timings"], capsys)
    assert code == 0
    kinds = [e["kind"] for e in rep["result"]["path"]]
    assert "arc" in kinds  # crossing fibers forces an ample element


def test_tol_is_read_in_both_spellings(capsys):
    argv = ["whitney", "level", "--model", "path", "--size", "6", "--t",
            "0.3", "--no-timings"]
    members = [len(run(argv + extra, capsys)[1]["result"]["members"])
               for extra in ([], ["--tol", "0.1"], ["--tol=0.1"])]
    assert members == [0, 3, 3]


def test_psi_levels_honours_tol(capsys):
    _, auto = run(["psi", "levels", "--t", "0.01", "--no-timings"], capsys)
    _, given = run(["psi", "levels", "--t", "0.01", "--tol", "0.5",
                    "--no-timings"], capsys)
    assert auto["result"]["tol"] < 0.5
    assert given["result"]["tol"] == 0.5
    assert len(given["result"]["elements"]) > len(auto["result"]["elements"])


def test_suite_all_names_the_known_violation(capsys):
    # the element census clause is expected to fail; everything else passes
    code, rep = run(["suite", "all", "--no-timings"], capsys)
    assert code == 1
    assert rep["result"]["passed"] == rep["result"]["total"] - 1
    assert len(rep["violations"]) == 1
    assert "psi_model" in rep["violations"][0]


GOLDEN = Path(__file__).parent / "golden" / "whitney_check.json"


def test_whitney_check_matches_golden_output(capsys):
    # recorded from the nested-loop axiom checker; a large tolerance makes
    # the monotone list non-empty (the negative-tolerance runs are library
    # calls in test_whitney.py, since the CLI refuses a negative --tol).
    # The star, cantor_fan and cycle-12 runs, recorded from the per-pair
    # set tables, cover branching families and meets that are two arcs
    for case in json.loads(GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


REFINE_GOLDEN = Path(__file__).parent / "golden" / "whitney_refine.json"


def test_whitney_refine_matches_golden_output(capsys):
    # 22 runs recorded from the per-member refinement: path 6 and 16, cycle
    # 12, star 3x2 and cantor_fan 2, each unseeded and at seed 3, at t 0.05
    # and 0.3 (below every whole-continuum size), and the refusals of a t
    # above the whole's size and of a negative t
    for case in json.loads(REFINE_GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


TRIOD_GOLDEN = Path(__file__).parent / "golden" / "continuum_triod.json"


def test_continuum_triod_matches_golden_output(capsys):
    # 41 runs recorded from the per-row block search: path 1-16, cycle
    # 3-16, star 3-5 legs of length 1-3 and cantor_fan 1-2, so witnesses
    # near the front of the family and whole atriodic searches alike
    for case in json.loads(TRIOD_GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


PSI_LEVELS_GOLDEN = Path(__file__).parent / "golden" / "psi_levels.json"


def test_psi_levels_match_golden_output(capsys):
    # 84 `psi levels` runs recorded from the four-loop level section: m 3, 6
    # and 12 at levels 1 and 2 plus (6, 3), t at 0.2 .. 0.999 l and the
    # default l, automatic tolerance and 0.001
    for case in json.loads(PSI_LEVELS_GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


PSI_VERBS_GOLDEN = Path(__file__).parent / "golden" / "psi_verbs.json"


def test_psi_verbs_match_golden_output(capsys):
    # 23 runs recorded before the element layout moved into PsiModel: psi
    # build, report (raw and normalized), curvature, path by index and by
    # name (refusals included) and plot psi, at (3, 1) up to (12, 2)
    for case in json.loads(PSI_VERBS_GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


SUITE_ALL_GOLDEN = Path(__file__).parent / "golden" / "suite_all.json"


def test_suite_all_matches_golden_output(capsys, monkeypatch):
    # recorded before the psi metric moved to array passes; the report
    # names only a failing check's details, so each check's details (the
    # size metric's defect, the homeomorphism round trips, the geodesic
    # certificate's slack, the curvature sample) are pinned beside it
    seen = []
    monkeypatch.setattr(cli, "run_all",
                        lambda: seen.extend(suite.run_all()) or seen)
    for case in json.loads(SUITE_ALL_GOLDEN.read_text()):
        seen.clear()
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]
        details = json.loads(json.dumps({r.name: r.details for r in seen}))
        assert details == case["details"], case["argv"]


@pytest.mark.parametrize("argv, exit_code", [
    (["suite", "all"], 1),
    (["psi", "report", "--normalize", "--m", "8"], 0),
])
def test_reports_do_not_depend_on_the_hash_seed(argv, exit_code):
    # batched sizes compute their misses in set order, which must not leak
    src = str(Path(cli.__file__).resolve().parents[1])
    seen = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "continuum_lab.cli"]
                              + argv + ["--no-timings"], env=env,
                              capture_output=True, text=True, timeout=120)
        seen.append((proc.returncode, proc.stdout))
    assert seen[0] == seen[1]
    assert seen[0][0] == exit_code and json.loads(seen[0][1])["result"]


def test_plot_chain_pattern_spans_its_own_maximum(capsys):
    code, rep = run(["plot", "chain", "--pattern", "1,2,3", "--no-timings"],
                    capsys)
    assert code == 0
    assert rep["result"] == {"links": 3, "containment_ok": True}
    code, rep = run(["plot", "chain", "--no-timings"], capsys)
    assert code == 0
    assert rep["result"] == {"links": 6, "containment_ok": True}


def test_plot_chain_refuses_unrealizable_patterns(capsys):
    code, rep = run(["plot", "chain", "--pattern", "2,1", "--no-timings"],
                    capsys)
    assert code == 2
    assert rep["status"] == "error" and "coarse link 1" in rep["result"]["error"]
    # a stutter in the last coarse link: a JSON report either way
    code, rep = run(["plot", "chain", "--pattern", "1,2,2", "--n", "2",
                     "--no-timings"], capsys)
    assert (code, rep["status"]) in ((0, "pass"), (2, "error"))
    if code == 0:
        assert rep["result"]["containment_ok"] is True


def test_non_finite_endpoint_exits_two(capsys):
    for flag in ("--x=nan,0", "--y=0.25,inf"):
        code, rep = run(["chains", "tower", "--n", "2", "--levels", "1",
                         flag, "--no-timings"], capsys)
        assert code == 2
        assert rep["status"] == "error"
        assert "endpoints must be finite" in rep["result"]["error"]


def test_cli_import_and_light_verbs_load_no_scipy(loaded_modules):
    # importing the CLI and running its verbs loads numpy only, towers of 3
    # levels and the whole suite included; scipy.spatial comes only with
    # planar Hausdorff steps over 50,000 point pairs, which no verb takes.
    # Nor does any verb load numpy.ma (1.4 MB and 10-17 ms in a fresh
    # process), which np.unique imports unless asked for return_index
    def heavy_modules(code):
        return {m for m in loaded_modules(code) if m.split(".")[0] == "scipy"
                or m.split(".")[:2] == ["numpy", "ma"]}
    assert not heavy_modules("import continuum_lab.cli")
    for argv, code in ((["psi", "report"], 0), (["psi", "levels"], 0),
                       (["psi", "path", "--from", "piece:0:1:2", "--to",
                         "arc:3:2"], 0),
                       (["psi", "curvature"], 0), (["whitney", "check"], 0),
                       (["whitney", "build"], 0),
                       (["whitney", "level", "--t", "0.3"], 0),
                       (["whitney", "refine", "--t", "0.3"], 0),
                       (["continuum", "enumerate"], 0),
                       (["continuum", "triod"], 0),
                       (["plot", "hyperspace"], 0),
                       (["chains", "tower", "--levels", "1"], 0),
                       (["chains", "tower", "--levels", "2"], 0),
                       (["chains", "tower", "--n", "4", "--levels", "3"], 0),
                       (["suite", "all"], 1)):  # the census check fails
        run = ("from continuum_lab.cli import dispatch\n"
               f"assert dispatch({argv + ['--no-timings']!r}) == {code}\n")
        assert not heavy_modules(run), argv


# -- malformed input: exit 2 with a JSON error, never a traceback ------------


def _pattern_file(tmp_path, text):
    path = tmp_path / "pattern.json"
    path.write_text(text)
    return str(path)


MALFORMED = {
    "tower-point": lambda tmp: ["chains", "tower", "--x=a,0"],
    "pattern-letter": lambda tmp: ["chains", "verify", "--pattern", "1,x"],
    "pattern-empty-entry": lambda tmp: ["chains", "verify", "--pattern",
                                        "1,,2"],
    "pattern-empty": lambda tmp: ["chains", "verify", "--pattern", ""],
    "infile-missing": lambda tmp: ["chains", "verify", "--infile",
                                   str(tmp / "missing.json")],
    "infile-bad-json": lambda tmp: ["chains", "verify", "--infile",
                                    _pattern_file(tmp, "{not json")],
    "infile-no-pattern": lambda tmp: ["chains", "verify", "--infile",
                                      _pattern_file(tmp, '{"n_coarse": 4}')],
    "psi-piece-field": lambda tmp: ["psi", "path", "--from", "piece:a:1:2",
                                    "--to", "0"],
    "psi-arc-field": lambda tmp: ["psi", "path", "--from", "0", "--to",
                                  "arc:1:b"],
    "psi-index-negative": lambda tmp: ["psi", "path", "--from", "-1",
                                       "--to", "0"],
    "psi-index-negative-joined": lambda tmp: ["psi", "path", "--from=-2",
                                              "--to", "0"],
    "n-zero": lambda tmp: ["chains", "verify", "--n", "0"],
    "limit-negative": lambda tmp: ["continuum", "orderarcs", "--size", "4",
                                   "--from", "1", "--to", "0,1,2",
                                   "--limit", "-1"],
    "orderarcs-from-empty": lambda tmp: ["continuum", "orderarcs", "--from",
                                         "", "--to", ""],
    "orderarcs-to-empty": lambda tmp: ["continuum", "orderarcs", "--to", ""],
    "orderarcs-from-empty-entry": lambda tmp: ["continuum", "orderarcs",
                                               "--from", "1,,2"],
    "whitney-set-empty-entry": lambda tmp: ["whitney", "eval", "--set",
                                            "0,,1"],
    "tol-negative-psi-report": lambda tmp: ["psi", "report", "--normalize",
                                            "--tol", "-1"],
    "tol-negative-psi-curvature": lambda tmp: ["psi", "curvature",
                                               "--trials", "50",
                                               "--tol", "-1"],
    "tol-negative-psi-levels": lambda tmp: ["psi", "levels", "--tol", "-1"],
    "tol-negative-whitney-level": lambda tmp: ["whitney", "level",
                                               "--t", "0.1", "--tol", "-1"],
    "tol-negative-whitney-check": lambda tmp: ["whitney", "check",
                                               "--tol=-1e-9"],
    "tol-nan-psi-levels": lambda tmp: ["psi", "levels", "--tol", "nan"],
    "tol-inf-psi-curvature": lambda tmp: ["psi", "curvature",
                                          "--trials", "50", "--tol", "inf"],
    "tol-inf-whitney-check": lambda tmp: ["whitney", "check", "--tol", "inf"],
    "level-nan-psi-levels": lambda tmp: ["psi", "levels", "--t", "nan"],
    "level-inf-psi-levels": lambda tmp: ["psi", "levels", "--t", "inf"],
    "level-nan-whitney-level": lambda tmp: ["whitney", "level", "--t", "nan"],
    "level-inf-whitney-level": lambda tmp: ["whitney", "level", "--t", "inf"],
    "level-nan-whitney-refine": lambda tmp: ["whitney", "refine",
                                             "--t", "nan"],
    "trials-negative": lambda tmp: ["psi", "curvature", "--trials", "-5"],
    "trials-zero": lambda tmp: ["psi", "curvature", "--trials", "0"],
}


@pytest.mark.parametrize("argv, error", [
    (["psi", "levels", "--t", "nan"],
     "level parameter must be positive and finite, got nan"),
    (["whitney", "level", "--t", "nan"],
     "level parameter must be finite, got nan"),
    (["whitney", "refine", "--t", "nan"], "t0 must be positive, got nan"),
    (["psi", "curvature", "--tol", "inf"],
     "--tol must be finite and >= 0, got inf"),
])
def test_non_finite_levels_and_tolerances_are_named(argv, error, capsys):
    code = dispatch(argv + ["--no-timings"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["result"] == {"error": error}
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("verb, flag, value", [
    (["whitney", "check"], "--tol", "-1e-9"),
    (["psi", "levels"], "--t", "-1e-3"),
    (["chains", "tower"], "--x", "-1,0"),
])
def test_negative_value_after_a_space_reads_as_after_equals(verb, flag,
                                                            value, capsys):
    spaced = run(verb + [flag, value, "--no-timings"], capsys)
    joined = run(verb + [f"{flag}={value}", "--no-timings"], capsys)
    assert spaced[0] == joined[0] == 2
    assert spaced[1]["status"] == "error" and spaced[1]["result"]["error"]
    assert spaced[1]["result"] == joined[1]["result"]


def test_negative_tol_is_refused_before_any_model_is_built(capsys):
    code, rep = run(["psi", "levels", "--m", "24", "--level", "3", "--tol",
                     "-1", "--no-timings"], capsys)
    assert code == 2
    assert rep["result"]["error"] == "--tol must be finite and >= 0, got -1.0"


@pytest.mark.parametrize("verb", [["whitney", "check"], ["psi", "curvature"]])
@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"]])
def test_negative_seed_exits_two(verb, seed, capsys):
    code, rep = run(verb + seed + ["--no-timings"], capsys)
    assert code == 2
    assert rep["result"] == {"error": "--seed must be >= 0, got -1"}


@pytest.mark.parametrize("argv, flag", [(["psi", "build"], "--out"),
                                        (["plot", "psi"], "--svg")])
def test_unwritable_output_exits_two(argv, flag, tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    code, rep = run(argv + [flag, str(path), "--no-timings"], capsys)
    assert code == 2 and rep["status"] == "error"
    assert rep["result"]["error"].startswith(f"cannot write {path}: ")
    assert rep["artifacts"] == [] and not path.parent.exists()


@pytest.mark.parametrize("argv, error, achievable", [
    (["continuum", "build", "--model", "cantor_fan", "--size", "14"],
     "cantor_fan of depth 14 exceeds the vertex cap 200000", 13),
    (["continuum", "build", "--model", "path", "--size", "100000000"],
     "path with 100000000 vertices exceeds the vertex cap 200000", 200_000),
    (["psi", "curvature", "--m", "3", "--level", "1", "--trials",
      "100000000"], "100000000 curvature trials exceed cap 200000", 200_000)])
def test_oversized_graphs_and_samples_exit_two(argv, error, achievable,
                                               capsys, monkeypatch):
    monkeypatch.delenv("CONTINUUM_LAB_MAX_ELEMENTS", raising=False)
    code, rep = run(argv + ["--no-timings"], capsys)
    assert code == 2
    assert rep["result"] == {"error": error, "achievable": achievable}


@pytest.mark.parametrize("argv", [["chains", "generate"],
                                  ["chains", "verify"],
                                  ["plot", "chain"],
                                  ["chains", "tower", "--levels", "2"],
                                  ["chains", "tower", "--levels", "3"]])
def test_crooked_patterns_over_the_cap_exit_two(argv, monkeypatch, capsys):
    # under a cap of 100 links n = 7 (71 links) fits and n = 8 (170) does not
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "100")
    code, rep = run(argv + ["--n", "8", "--no-timings"], capsys)
    assert code == 2
    assert rep["result"]["error"] == \
        "crooked pattern on 8 coarse links has more than 100 links"
    if argv[0:2] == ["chains", "tower"]:
        # a tower names a level count it can build, never the generator's n
        assert rep["result"]["achievable"] == 1
    else:
        assert "achievable" not in rep["result"]
    if argv[1] != "tower" or argv[-1] == "2":
        code, rep = run(argv + ["--n", "7", "--no-timings"], capsys)
        assert code == 0, rep


def test_a_cap_lowered_after_a_kept_grid_still_exits_two(monkeypatch,
                                                        capsys):
    # the (8, 2) grid is built under the default cap and kept; the request
    # still reads the cap before it looks the grid up
    from continuum_lab import realize
    argv = ["chains", "tower", "--n", "8", "--levels", "2", "--no-timings"]
    code, _ = run(argv, capsys)
    assert code == 0
    hits = realize._grid_tower.cache_info().hits
    assert run(argv, capsys)[0] == 0
    assert realize._grid_tower.cache_info().hits == hits + 1
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "100")
    code, rep = run(argv, capsys)
    assert code == 2
    assert rep["result"] == {
        "error": "crooked pattern on 8 coarse links has more than 100 links",
        "achievable": 1}


@pytest.mark.parametrize("size", [2, 3, 5, 12])
def test_star_size_off_the_rule_exits_two(size, capsys):
    # 3 legs take sizes 1 + 3k with k >= 1; any other size is refused
    code, rep = run(["continuum", "build", "--model", "star", "--size",
                     str(size), "--no-timings"], capsys)
    assert code == 2 and rep["status"] == "error"
    assert "1 + legs * k" in rep["result"]["error"]


@pytest.mark.parametrize("size, legs", [(4, 3), (7, 3), (10, 3), (9, 4)])
def test_star_size_is_the_vertex_count(size, legs, capsys):
    code, rep = run(["continuum", "build", "--model", "star", "--size",
                     str(size), "--legs", str(legs), "--no-timings"], capsys)
    assert code == 0
    assert rep["result"]["n"] == size
    assert rep["result"]["kind"] == f"star-{legs}x{(size - 1) // legs}"


def test_star_with_too_few_legs_exits_two(capsys):
    # --legs 0 once divided by zero
    for legs, size in (("0", "10"), ("2", "5"), ("-3", "10")):
        code, rep = run(["continuum", "build", "--model", "star", "--legs",
                         legs, "--size", size, "--no-timings"], capsys)
        assert code == 2 and "legs >= 3" in rep["result"]["error"]


def test_whitney_eval_of_ids_outside_the_graph(capsys):
    code, rep = run(["whitney", "eval", "--set", "99", "--no-timings"],
                    capsys)
    assert code == 2
    assert rep["result"]["error"] == \
        "set contains vertices outside the ambient"
    code, rep = run(["whitney", "eval", "--set", "5,99", "--no-timings"],
                    capsys)
    assert code == 2
    assert rep["result"]["error"] == "the set is not a subcontinuum"


@pytest.mark.parametrize("ids, error", [
    # -1 is no vertex, not the last vertex (4, a neighbour of 3)
    ("-1,3", "the set is not a subcontinuum"),
    ("-1", "set contains vertices outside the ambient"),
    ("99", "set contains vertices outside the ambient")])
def test_whitney_eval_of_ids_below_and_past_the_path(ids, error, capsys):
    code, rep = run(["whitney", "eval", "--model", "path", "--size", "5",
                     f"--set={ids}", "--no-timings"], capsys)
    assert code == 2
    assert rep == {"artifacts": [], "command": "whitney eval --model path "
                   f"--size 5 --set={ids} --no-timings",
                   "result": {"error": error}, "status": "error",
                   "violations": []}


@pytest.mark.parametrize("argv", [
    ["continuum", "orderarcs", "--from", "", "--to", ""],
    ["continuum", "orderarcs", "--from", "1,,2"],
    ["whitney", "eval", "--set", ""],
])
def test_empty_vertex_entries_are_a_bad_vertex_list(argv, capsys):
    code, rep = run(argv + ["--no-timings"], capsys)
    assert code == 2
    assert rep["result"]["error"].startswith("bad vertex list")


@pytest.mark.parametrize("ids", ["99", "-1"])
def test_orderarcs_of_ids_outside_the_graph(ids, capsys):
    code, rep = run(["continuum", "orderarcs", "--model", "path", "--size",
                     "10", "--from", ids, "--to", ids, "--no-timings"],
                    capsys)
    assert code == 2
    assert rep["result"]["error"] == "endpoints must be subcontinua"


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_with_json_error(case, tmp_path, capsys):
    code, rep = run(MALFORMED[case](tmp_path) + ["--no-timings"], capsys)
    assert code == 2
    assert rep["status"] == "error" and rep["result"]["error"]


# -- pattern sources ----------------------------------------------------------


@pytest.mark.parametrize("verb", [["chains", "verify"], ["plot", "chain"]])
def test_pattern_and_infile_are_exclusive(verb, tmp_path, capsys):
    path = _pattern_file(tmp_path, pattern_to_json(
        generate_crooked_pattern(4)))
    # argparse refuses the pair before any file is opened
    assert dispatch(verb + ["--pattern", "1,2,3,4", "--infile",
                            str(tmp_path / "missing.json")]) == 2
    assert "not allowed with" in capsys.readouterr().err
    # --n cannot resize a pattern whose file fixes n_coarse
    code, rep = run(verb + ["--infile", path, "--n", "5", "--no-timings"],
                    capsys)
    assert code == 2 and "--infile" in rep["result"]["error"]
    code, rep = run(verb + ["--infile", path, "--no-timings"], capsys)
    assert code == 0


# -- every option is read ----------------------------------------------------
# A verb reads --tol: test_tol_is_read_in_both_spellings, and
# test_psi_levels_honours_tol; --svg and --seed: the tests below.

MODEL = {"--model", "--size", "--legs"}
EXPECTED_OPTIONS = {
    ("chains", "generate"): {"--n"},
    ("chains", "verify"): {"--n", "--pattern", "--infile"},
    ("chains", "tower"): {"--n", "--levels", "--x", "--y", "--svg"},
    ("continuum", "build"): MODEL,
    ("continuum", "enumerate"): MODEL,
    ("continuum", "orderarcs"): MODEL | {"--from", "--to", "--limit"},
    ("continuum", "triod"): MODEL,
    ("whitney", "build"): MODEL | {"--seed"},
    ("whitney", "eval"): MODEL | {"--seed", "--set"},
    ("whitney", "check"): MODEL | {"--seed", "--tol"},
    ("whitney", "level"): MODEL | {"--seed", "--t", "--tol"},
    ("whitney", "refine"): MODEL | {"--seed", "--t"},
    ("psi", "build"): {"--m", "--level"},
    ("psi", "report"): {"--m", "--level", "--normalize", "--tol", "--svg"},
    ("psi", "levels"): {"--m", "--level", "--t", "--tol"},
    ("psi", "path"): {"--m", "--level", "--from", "--to"},
    ("psi", "curvature"): {"--m", "--level", "--trials", "--seed", "--tol"},
    ("plot", "chain"): {"--n", "--pattern", "--infile", "--svg"},
    ("plot", "hyperspace"): MODEL | {"--svg"},
    ("plot", "psi"): {"--m", "--level", "--svg"},
    ("suite", "all"): set(),
}


def _subparsers(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


# None: the automatic level tolerance
TOL_DEFAULTS = {("whitney", "check"): DEFAULT_TOL, ("whitney", "level"): None,
                ("psi", "report"): DEFAULT_TOL, ("psi", "levels"): None,
                ("psi", "curvature"): DEFAULT_TOL}


def test_each_verb_registers_only_the_options_it_reads():
    found, tol = {}, {}
    for group, group_parser in _subparsers(_build_parser()).items():
        for name, sp in _subparsers(group_parser).items():
            found[(group, name)] = {s for a in sp._actions
                                    for s in a.option_strings} - {"-h",
                                                                  "--help"}
            tol.update({(group, name): a.default for a in sp._actions
                        if "--tol" in a.option_strings})
    assert found == {verb: opts | {"--out", "--no-timings"}
                     for verb, opts in EXPECTED_OPTIONS.items()}
    assert tol == TOL_DEFAULTS


@pytest.mark.parametrize("argv", [
    ["chains", "generate", "--n", "4", "--svg", "x.svg"],
    ["chains", "generate", "--n", "4", "--seed", "3"],
    ["chains", "generate", "--n", "4", "--tol", "9"],
    ["suite", "all", "--seed", "3"],
    ["suite", "all", "--tol", "5"],
    ["psi", "levels", "--svg", "x.svg"],
], ids=lambda argv: "-".join(argv[:2] + [argv[-2].lstrip("-")]))
def test_unread_option_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv + ["--no-timings"]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "x.svg").exists()


def test_svg_is_written_and_listed(tmp_path, capsys):
    svg = tmp_path / "psi.svg"
    _, plain = run(["plot", "psi", "--no-timings"], capsys)
    _, drawn = run(["plot", "psi", "--svg", str(svg), "--no-timings"],
                   capsys)
    assert plain["artifacts"] == [] and drawn["artifacts"] == [str(svg)]
    assert svg.read_text().startswith("<svg")


def test_seed_changes_the_size_map(capsys):
    argv = ["whitney", "build", "--size", "5", "--no-timings"]
    _, default = run(argv, capsys)
    _, seeded = run(argv + ["--seed", "3"], capsys)
    assert default["result"] != seeded["result"]


# -- one parser per process ---------------------------------------------------


def test_parser_is_built_once_and_survives_errors_and_help(capsys):
    assert _build_parser() is _build_parser()
    _, expected = run(["chains", "generate", "--n", "4", "--no-timings"],
                      capsys)
    for bad in (["chains", "generate", "--n", "x"], ["chains", "generate"],
                ["chains", "generate", "--n", "4", "--help"]):
        assert dispatch(bad) == (0 if "--help" in bad else 2)
        capsys.readouterr()
        assert run(["chains", "generate", "--n", "4", "--no-timings"],
                   capsys) == (0, expected)


def test_each_parse_gets_its_own_defaults(monkeypatch, capsys):
    from continuum_lab import cli

    seen = []

    def spy(real):
        def wrapped(*args, tol):
            seen.append(tol)
            return real(*args, tol=tol)
        return wrapped

    monkeypatch.setattr(cli, "whitney_level", spy(cli.whitney_level))
    monkeypatch.setattr(cli, "check_whitney_axioms",
                        spy(cli.check_whitney_axioms))
    for verb in ("level", "check", "level", "check"):
        extra = ["--t", "2"] if verb == "level" else []
        assert dispatch(["whitney", verb, "--size", "5", "--no-timings",
                         *extra]) == 0
    capsys.readouterr()
    assert seen == [None, DEFAULT_TOL, None, DEFAULT_TOL]


def test_curvature_fails_on_a_broken_metric(monkeypatch, capsys):
    from continuum_lab.psi import PsiPathspace

    def larger_join(self, a, b):
        # the larger of the two candidate base arcs: a wrong join, so some
        # distances come out longer than a path around a third element
        m, k, v = self.m, self.k, self.v

        def at(s, ln, lo, hi):  # a base arc of length m or more is the whole
            return self.id(s, ln, lo, hi) if ln < m else self.whole

        sa, la, loa, hia = self.shapes[a]
        sb, lb, lob, hib = self.shapes[b]
        if la == lb == 1 and sa == sb:
            return at(sa, 1, min(loa, lob), max(hia, hib))
        x = at(sa, max(la, (sb - sa) % m + lb), 1, k)
        y = at(sb, max(lb, (sa - sb) % m + la), 1, k)
        return y if v[x] < v[y] or (v[x] == v[y] and x < y) else x

    argv = ["psi", "curvature", "--no-timings"]
    code, good = run(argv, capsys)
    assert (code, good["violations"]) == (0, [])
    monkeypatch.setattr(PsiPathspace, "joins", lambda self, a, b: np.array(
        [larger_join(self, x, y) for x, y in zip(a.tolist(), b.tolist())]))
    code, bad = run(argv, capsys)
    assert (code, bad["status"]) == (1, "fail")
    assert any("triangle inequality" in v for v in bad["violations"])


@pytest.mark.parametrize("argv, target", [
    (["psi", "path", "--m", "6", "--level", "3", "--from", "0", "--to", "1"],
     "build_psi_model"),
    (["whitney", "eval", "--size", "5", "--set", "0,1"], "build_whitney_map"),
])
def test_running_out_of_memory_exits_two_with_json(argv, target, monkeypatch,
                                                   capsys):
    # a crash is an error (exit 2), never a failed check (exit 1)
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array")
    monkeypatch.setattr(cli, target, exhausted)
    code, report = run(argv + ["--no-timings"], capsys)
    assert code == 2
    assert report == {"artifacts": [], "command": " ".join(argv) +
                      " --no-timings", "result": {
                          "error": "out of memory: Unable to allocate 2.98 "
                                   "GiB for an array"},
                      "status": "error", "violations": []}
