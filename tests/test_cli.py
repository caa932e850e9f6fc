import argparse
import json
from pathlib import Path

import pytest

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
    # recorded from the nested-loop axiom checker; a negative or a large
    # tolerance makes every list of violations non-empty somewhere
    for case in json.loads(GOLDEN.read_text()):
        code = dispatch(case["argv"])
        assert code == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


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


def test_cli_import_leaves_scipy_spatial_unloaded():
    import os
    import subprocess
    import sys

    import continuum_lab
    src = str(Path(list(continuum_lab.__path__)[0]).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, continuum_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'spatial'] "
            "or m.split('.')[:3] == ['scipy', 'sparse', 'csgraph']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    "n-zero": lambda tmp: ["chains", "verify", "--n", "0"],
}


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
