import json
import os
import subprocess
import sys

import pytest

from ilpath import oracle
from ilpath.cli import _Report, main, verify_instance
from ilpath.solution_graph import from_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_check_feasible_exit_zero(capsys, instance_dir):
    code, report, _ = run_json(capsys, "check", str(instance_dir / "example.ilp"))
    assert code == 0
    assert report["verdict"] == "feasible"
    assert report["exit_code"] == 0
    assert report["witness"] == ["b"]
    assert report["instance"]["num_vars"] == 3


def test_check_reports_the_bound_rule(capsys, instance_dir):
    code, report, _ = run_json(capsys, "check", str(instance_dir / "example.ilp"))
    assert code == 0
    assert report["residue_bounds"] == [6, 4]
    assert report["bound_rule"].startswith("steinitz")
    assert report["bound_d"] == 2
    _code, out, _ = run(capsys, "check", str(instance_dir / "example.ilp"))
    assert f"bound_rule: {report['bound_rule']}" in out
    assert "residue_bounds: 6 4" in out


def test_check_infeasible_exit_one(capsys, instance_dir):
    code, report, _ = run_json(capsys, "check", str(instance_dir / "parity.ilp"))
    assert code == 1
    assert report["verdict"] == "infeasible"


def test_check_inconclusive_exit_three(capsys, instance_dir):
    code, report, _ = run_json(
        capsys, "check", str(instance_dir / "parity.ilp"), "--max-states", "2"
    )
    assert code == 3
    assert report["verdict"] == "inconclusive"


def test_solve_projects_slack(capsys, instance_dir):
    code, report, _ = run_json(capsys, "solve", str(instance_dir / "knapsack.ilp"))
    assert code == 0
    assert set(report["solution"]) == {"x1", "x2"}
    values = report["witness_parikh"]
    assert 2 * values[0] + values[1] == 5


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "no_such_file.ilp")
    assert code == 2
    assert "error:" in err


def test_malformed_document_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.ilp"
    bad.write_text("x1 = 0\n")
    code, _out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "integer coefficient" in err


def test_graph_writes_parseable_dot(capsys, instance_dir, tmp_path):
    out_file = tmp_path / "graph.dot"
    code, report, _ = run_json(
        capsys,
        "graph",
        str(instance_dir / "example.ilp"),
        "--solution",
        "5,3,1",
        "-o",
        str(out_file),
    )
    assert code == 0
    assert report["validated"] is True
    assert report["outputs"] == [str(out_file)]
    g = from_dot(out_file.read_text())
    assert g.num_vertices == 10


def test_graph_rejects_non_solution(capsys, instance_dir):
    code, _out, err = run(
        capsys, "graph", str(instance_dir / "example.ilp"), "--solution", "1,1,1"
    )
    assert code == 2
    assert "not a solution" in err


def test_decompose_reports_bags_and_trace(capsys, instance_dir, tmp_path):
    out_file = tmp_path / "bags.json"
    code, report, _ = run_json(
        capsys,
        "decompose",
        str(instance_dir / "example.ilp"),
        "--solution",
        "5 3 1",
        "-o",
        str(out_file),
    )
    assert code == 0
    assert report["valid"] is True
    assert report["width"] <= report["width_bound"]
    assert report["trace"]["c_after_reduce"][0] == [0, 2, 4]
    payload = json.loads(out_file.read_text())
    assert payload["width"] == report["width"]


def test_automaton_export_text(capsys, instance_dir):
    code, out, _ = run(
        capsys, "automaton", str(instance_dir / "parity.ilp"), "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("states ")


def test_automaton_export_budget_exit_three(capsys, instance_dir):
    code, _out, _err = run(
        capsys, "automaton", str(instance_dir / "example.ilp"), "--max-states", "3"
    )
    assert code == 3


def test_emit_bp_and_oracle_csv(capsys, instance_dir, tmp_path):
    bp_file = tmp_path / "prog.bp"
    code, _report, _ = run_json(
        capsys, "emit-bp", str(instance_dir / "parity.ilp"), "-o", str(bp_file)
    )
    assert code == 0
    assert bp_file.read_text().startswith("bp 1\n")

    csv_file = tmp_path / "sols.csv"
    code, report, _ = run_json(
        capsys,
        "oracle",
        str(instance_dir / "example.ilp"),
        "--box",
        "6",
        "--csv",
        str(csv_file),
    )
    assert code == 0
    assert report["verdict"] == "feasible"
    assert report["solutions_found"] == 2
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert "5,3,1" in lines


def test_json_mode_embeds_artifacts(capsys, instance_dir):
    # without -o, JSON mode folds the artifact into the report so stdout
    # stays machine-readable
    code, report, _ = run_json(capsys, "emit-bp", str(instance_dir / "parity.ilp"))
    assert code == 0
    assert report["program"].startswith("bp 1\n")
    # human mode sends the artifact to stdout and the report to stderr
    code, out, err = run(capsys, "emit-bp", str(instance_dir / "parity.ilp"))
    assert out.startswith("bp 1\n")
    assert "target:" in out and "exit_code" not in out
    assert "exit_code: 0" in err


def test_oracle_infeasible_within_box(capsys, instance_dir):
    code, report, _ = run_json(
        capsys, "oracle", str(instance_dir / "parity.ilp"), "--box", "20"
    )
    assert code == 1
    assert report["verdict"] == "infeasible-within-box"


def test_oracle_budget_exceeded_exit_three(capsys, instance_dir):
    code, report, _ = run_json(
        capsys, "oracle", str(instance_dir / "example.ilp"), "--max-nodes", "1"
    )
    assert code == 3
    assert report["verdict"] == "budget-exceeded"
    assert report["complete"] is False


def test_verify_shipped_instances(capsys, instance_dir):
    for name in ("example.ilp", "parity.ilp", "zero.ilp", "knapsack.ilp", "rhs.ilp"):
        code, report, _ = run_json(
            capsys, "verify", str(instance_dir / name), "--box", "6"
        )
        assert code == 0, f"{name}: {report}"
        assert report["total_breaches"] == 0


def test_verify_reports_the_work_of_both_searches(capsys, instance_dir):
    code, report, _ = run_json(
        capsys, "verify", str(instance_dir / "example.ilp"), "--random", "3", "--box", "4"
    )
    assert code == 0
    for summary in report["results"]:
        assert summary["automaton_states"] > 0, summary
        assert summary["program_states"] > 0, summary
        assert summary["program_engine"] in ("sparse", "dense"), summary


def test_verify_random_batch(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--random", "25", "--seed", "3", "--box", "5"
    )
    assert code == 0
    assert report["instances_checked"] == 25
    assert report["total_breaches"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--random", "-3"),
        ("check", "{example}", "--max-states", "-1"),
        ("oracle", "{example}", "--max-nodes", "-1"),
        ("oracle", "{example}", "--box", "-1"),
        ("verify", "{example}", "--box", "-1"),
    ],
    ids=[
        "verify-random", "check-max-states", "oracle-max-nodes", "oracle-box", "verify-box"
    ],
)
def test_negative_counts_are_usage_errors(capsys, instance_dir, argv):
    argv = [a.format(example=instance_dir / "example.ilp") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, flag",
    [
        ("automaton", ["--multiplier", "3"]),
        ("emit-bp", ["--multiplier", "3"]),
        ("verify", ["--multiplier", "3"]),
        ("automaton", ["--export"]),
    ],
    ids=["automaton", "emit-bp", "verify", "automaton-export"],
)
def test_multiplier_flag_is_gone(capsys, instance_dir, subcommand, flag):
    """Deleted flags (`--multiplier`, `automaton --export`) are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, str(instance_dir / "example.ilp"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_verify_needs_some_input(capsys):
    code, _out, err = run(capsys, "verify")
    assert code == 2
    assert "verify needs" in err


def test_human_and_json_reports_agree(capsys, instance_dir):
    code_j, report, _ = run_json(capsys, "check", str(instance_dir / "example.ilp"))
    code_h, out, _ = run(capsys, "check", str(instance_dir / "example.ilp"))
    assert code_j == code_h
    assert f"verdict: {report['verdict']}" in out
    assert f"states_explored: {report['states_explored']}" in out
    assert f"exit_code: {report['exit_code']}" in out


def test_human_report_prints_multi_word_items_one_per_line(capsys):
    report = _Report("verify")
    report.set(
        coeff_range=[-2, 3],
        results=[{"breaches": ["first breach", "second breach"], "witness": ["x1", "b"]}],
    )
    report.finish(1)
    lines = capsys.readouterr().out.splitlines()
    assert "coeff_range: -2 3" in lines
    breaches = lines.index("  breaches:")
    assert lines[breaches + 1 : breaches + 3] == ["    first breach", "    second breach"]
    assert "  witness: x1 b" in lines


def test_verify_names_the_checks_a_budget_skipped(example_instance, monkeypatch):
    summary = verify_instance(example_instance, 2, max_states=1)
    assert summary["breaches"] == []
    assert summary["automaton_verdict"] == "inconclusive"
    assert summary["program_verdict"] == "inconclusive"
    assert summary["unchecked"] == ["witness", "bound finding", "program agreement"]

    assert verify_instance(example_instance, 2)["unchecked"] == []
    enumerate_solutions = oracle.enumerate_solutions
    monkeypatch.setattr(
        oracle, "enumerate_solutions", lambda inst, box: enumerate_solutions(inst, box, 5)
    )
    starved = verify_instance(example_instance, 2)
    assert starved["breaches"] == []
    assert not starved["oracle_complete"]
    assert starved["unchecked"] == ["oracle box"]


_FRESH_PROCESS_RUNS = [
    (["check", "example.ilp"], 0, "verdict: feasible"),
    (["solve", "knapsack.ilp"], 0, "  x1: 2"),
    (["graph", "example.ilp", "--solution", "5,3,1"], 0, "validated: True"),
    (["decompose", "example.ilp", "--solution", "5,3,1"], 0, "valid: True"),
    (["automaton", "parity.ilp", "--format", "text"], 0, "trans q0 b q2"),
    (["emit-bp", "parity.ilp"], 0, "target: B == 1 && r1 == 0"),
    (["oracle", "example.ilp", "--box", "6"], 0, "solutions_found: 2"),
    (["verify", "--random", "2"], 0, "total_breaches: 0"),
]


@pytest.mark.parametrize(
    "argv, exit_code, line", _FRESH_PROCESS_RUNS, ids=[r[0][0] for r in _FRESH_PROCESS_RUNS]
)
def test_each_subcommand_runs_in_a_fresh_process(instance_dir, argv, exit_code, line):
    """Every subcommand imports what it runs: in a process that has loaded
    no library module before, it still exits as expected."""
    argv = [str(instance_dir / a) if a.endswith(".ilp") else a for a in argv]
    out = subprocess.run(
        [sys.executable, "-m", "ilpath", *argv],
        env={**os.environ, "PYTHONPATH": str(instance_dir.parent / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == exit_code, out.stderr
    assert line in (out.stdout + out.stderr).splitlines()
