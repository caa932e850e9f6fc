import json
from pathlib import Path


from continuum_lab.cli import dispatch


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
            "if m.split('.')[:2] == ['scipy', 'spatial']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
