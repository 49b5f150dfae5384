from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imchit import (BenchConfig, cli, load_model, model, random_model,
                    run_experiment, save_model, solve_policy, solve_value,
                    solvers, transition)
from imchit.cli import main
from modelzoo import (gambler_model, hitting_times, isolated_cycle_model,
                      line_model, precise_model)


@pytest.fixture
def gambler_path(tmp_path):
    path = tmp_path / "gambler.json"
    save_model(gambler_model(4), path)
    return str(path)


@pytest.fixture
def bad_path(tmp_path):
    """A model file whose row a has a vertex summing to 1.1."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "target": ["b"],
        "rows": {"a": {"vertices": [[0.5, 0.6]]},
                 "b": {"vertices": [[0.0, 1.0]]}}}))
    return str(path)


def _without_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "wall_time_s" not in line)


def test_validate_ok(gambler_path, capsys):
    assert main(["validate", "--model", gambler_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ok": True, "issues": []}


def test_validate_reports_issues(bad_path, capsys):
    assert main(["validate", "--model", bad_path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"]
    assert doc["issues"] == [{"code": "NonStochasticVertex", "state": "a",
                              "detail": "vertex 0 has min 0.5, sum 1.1"}]


def test_validate_reports_the_builds_check(gambler_path, bad_path, capsys,
                                           count_calls):
    for path, status in ((gambler_path, 0), (bad_path, 1)):
        checks = count_calls(model, "validate")
        scans = count_calls(model, "_issues")
        assert main(["validate", "--model", path]) == status
        assert len(checks) == len(scans) == 1
    capsys.readouterr()


def test_validate_rejects_non_finite_data(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "states": ["a", "b", "c"], "target": ["c"],
        "rows": {"a": {"vertices": [[float("nan"), 0.5, 0.5]]},
                 "b": {"constraints": [{"a": {"c": 1.0}, "rel": "<=",
                                        "b": float("inf")}]},
                 "c": {"vertices": [[0.0, 0.0, 1.0]]}}}))
    assert main(["validate", "--model", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"]
    assert [(i["code"], i["state"]) for i in doc["issues"]] == [
        ("NonFinite", "a"), ("NonFinite", "b")]
    for command in ("reach", "solve"):
        assert main([command, "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidModel: NonFinite [a]: ")
        assert "; NonFinite [b]: " in captured.err
        assert "Traceback" not in captured.err


def test_reach_on_line_chain(tmp_path, capsys):
    path = tmp_path / "line.json"
    save_model(line_model(), path)
    assert main(["reach", "--model", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["reach_step"] == {"0": 3, "1": 2, "2": 1, "3": 0}
    assert doc["violating"] == []


def test_reach_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    save_model(isolated_cycle_model(), path)
    assert main(["reach", "--model", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False
    assert doc["violating"] == ["c", "d"]
    assert doc["reach_step"]["c"] is None


def test_solve_gambler_closed_form(gambler_path, capsys):
    assert main(["solve", "--model", gambler_path, "--method", "policy",
                 "--bound", "lower"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == ["s0", "s1", "s2", "s3", "s4"]
    assert np.allclose(doc["values"], [0.0, 3.0, 4.0, 3.0, 0.0], atol=1e-10)
    assert doc["method"] == "policy" and doc["bound"] == "lower"
    assert not doc["tolerance_limited"]
    assert "trace" not in doc


def test_solve_precise_chain_matches_linear_solve(tmp_path, capsys, rng):
    matrix = rng.dirichlet(np.ones(3), size=3)
    m = precise_model(matrix, {2})
    path = tmp_path / "precise.json"
    save_model(m, path)
    expected = hitting_times(matrix, m.nontarget_indices)
    for method in ("policy", "value", "brute"):
        assert main(["solve", "--model", str(path), "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["values"], expected, atol=1e-6)


def test_solve_trace_flag(gambler_path, capsys):
    assert main(["solve", "--model", gambler_path, "--trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["trace"], list) and doc["trace"]
    assert {"sup_norm", "policy_changes"} == set(doc["trace"][0])


def test_solve_report_carries_every_double_exactly(tmp_path, capsys):
    path = tmp_path / "random.json"
    save_model(random_model(7, 3, 2), path)
    m = load_model(path)
    for bound in ("lower", "upper"):
        assert main(["solve", "--model", str(path), "--bound", bound,
                     "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = solve_policy(m, bound)
        assert doc["values"] == report.solution.values.tolist()
        assert doc["residual"] == report.residual
        assert [t["sup_norm"] for t in doc["trace"]] == \
            [t.sup_norm for t in report.trace]


def test_solve_output_is_deterministic(gambler_path, capsys):
    main(["solve", "--model", gambler_path, "--method", "policy", "--trace"])
    first = capsys.readouterr().out
    main(["solve", "--model", gambler_path, "--method", "policy", "--trace"])
    second = capsys.readouterr().out
    assert _without_wall_time(first) == _without_wall_time(second)


def test_solve_reachability_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    save_model(isolated_cycle_model(), path)
    assert main(["solve", "--model", str(path)]) == 1
    assert "ReachabilityViolation" in capsys.readouterr().err


def test_brute_reachability_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    save_model(isolated_cycle_model(), path)
    assert main(["solve", "--model", str(path), "--method", "brute"]) == 1
    err = capsys.readouterr().err
    assert "ReachabilityViolation" in err and "from: c, d" in err


def test_solve_on_invalid_model_exits_one(bad_path, capsys):
    assert main(["solve", "--model", bad_path]) == 1
    assert "NonStochasticVertex" in capsys.readouterr().err


def test_brute_force_ignores_max_iter(gambler_path, capsys):
    outputs = []
    for cap in ([], ["--max-iter", "1"]):
        assert main(["solve", "--model", gambler_path, "--method", "brute"]
                    + cap) == 0
        outputs.append(_without_wall_time(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_bound_choices_are_the_operators_bounds():
    solve = next(action for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)).choices["solve"]
    bound = next(a for a in solve._actions if "--bound" in a.option_strings)
    assert bound.choices is transition.BOUNDS


def test_non_convergence_exits_one(gambler_path, capsys):
    assert main(["solve", "--model", gambler_path, "--method", "value",
                 "--max-iter", "1"]) == 1
    assert "MaxIterationsExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["policy", "value"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_iter_below_one_is_a_usage_error(gambler_path, method, cap):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", gambler_path, "--method", method,
              "--max-iter", cap])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_must_be_finite_and_positive(gambler_path, tol):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", gambler_path, "--method", "value",
              "--tol", tol])
    assert exc.value.code == 2


def test_tol_is_value_iterations_stopping_gap(gambler_path, capsys):
    reports = []
    for tol in (["--tol", "1e-6"], []):
        assert main(["solve", "--model", gambler_path, "--method", "value"]
                    + tol) == 0
        reports.append(json.loads(capsys.readouterr().out))
    loose, default = reports
    assert loose["iterations"] < default["iterations"]
    assert np.allclose(loose["values"], [0.0, 3.0, 4.0, 3.0, 0.0], atol=1e-5)


def test_value_iteration_cap_defaults_only_when_absent(gambler_path, monkeypatch):
    # the CLI passes --max-iter through, and the solver resolves its default
    caps, resolved = [], []
    original = solvers._cap

    def capture(*args, max_iter, **kwargs):
        caps.append(max_iter)
        return solve_value(*args, max_iter=max_iter, **kwargs)

    def resolve(max_iter, default):
        resolved.append(original(max_iter, default))
        return resolved[-1]

    monkeypatch.setattr(cli, "solve_value", capture)
    monkeypatch.setattr(solvers, "_cap", resolve)
    assert main(["solve", "--model", gambler_path, "--method", "value"]) == 0
    assert main(["solve", "--model", gambler_path, "--method", "value",
                 "--max-iter", "500"]) == 0
    assert caps == [None, 500]
    assert resolved == [10 ** 6, 500]


def test_missing_file_is_domain_error(tmp_path, capsys):
    assert main(["solve", "--model", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate", "--model", "{dir}"],
    ["bench", "--sizes", "5", "--vertices", "2", "--trials", "1",
     "--jobs", "1", "--out", "{dir}"],
])
def test_unreadable_path_is_domain_error(tmp_path, capsys, command):
    argv = [arg.format(dir=tmp_path) for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--hist"])
def test_bench_checks_output_paths_before_the_trials(tmp_path, capsys,
                                                     count_calls, flag):
    trials = count_calls(cli, "run_experiment")
    paths = {"--out": str(tmp_path / "out.csv"), "--hist": str(tmp_path / "h.json")}
    paths[flag] = str(tmp_path)
    argv = ["bench", "--sizes", "5", "--vertices", "2", "--trials", "1",
            "--jobs", "1", "--out", paths["--out"], "--hist", paths["--hist"]]
    assert main(argv) == 1
    assert trials == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_unparsable_file_is_domain_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 1
    assert "error" in capsys.readouterr().err


MALFORMED_ROWS = [
    [{"vertices": [[1.0, 0.0]]}, {"vertices": [[0.0, 1.0]]}],
    {"a": [[1.0, 0.0]], "b": {"vertices": [[0.0, 1.0]]}},
    {"a": {"constraints": [{"a": {"b": 1.0}, "b": 0.3}]},
     "b": {"vertices": [[0.0, 1.0]]}},
    {"a": {"constraints": [{"a": [1.0, 0.0], "rel": "<=", "b": 0.3}]},
     "b": {"vertices": [[0.0, 1.0]]}},
]


def test_malformed_model_is_domain_error(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    docs = [{"states": "ab", "target": "b",
             "rows": {"a": {"vertices": [[1.0, 0.0]]}, "b": {"vertices": [[0.0, 1.0]]}}}]
    docs += [{"states": ["a", "b"], "target": ["b"], "rows": rows}
             for rows in MALFORMED_ROWS]
    for doc in docs:
        path.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            assert main([command, "--model", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid input: ")
            assert "Traceback" not in err


def test_usage_errors_exit_two(gambler_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", gambler_path, "--method", "wizardry"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", gambler_path, "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    for removed in (["--init", "greedy"], ["--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", gambler_path] + removed)
        assert exc.value.code == 2


def test_cli_surface_is_pinned():
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {name: {option for action in parser._actions
                      for option in action.option_strings}
               for name, parser in sub.choices.items()}
    assert surface == {
        "validate": {"-h", "--help", "--model"},
        "reach": {"-h", "--help", "--model"},
        "solve": {"-h", "--help", "--model", "--bound", "--method", "--tol",
                  "--max-iter", "--trace"},
        "bench": {"-h", "--help", "--sizes", "--vertices", "--trials",
                  "--seed", "--out", "--hist", "--jobs"},
    }


def test_bench_writes_csv_and_histogram(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    hist = tmp_path / "hist.json"
    assert main(["bench", "--sizes", "6,8", "--vertices", "3", "--trials", "2",
                 "--seed", "5", "--out", str(out), "--hist", str(hist),
                 "--jobs", "2"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["size", "trial", "iterations", "residual",
                       "wall_time_s", "regenerations", "seed_used"]
    assert len(rows) == 1 + 4
    doc = json.loads(hist.read_text())
    assert set(doc) == {"6", "8"}
    assert "wrote 4 records" in capsys.readouterr().out


def test_bench_csv_carries_every_residual_exactly(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "6", "--vertices", "3", "--trials", "4",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        residuals = [float(row["residual"]) for row in csv.DictReader(fh)]
    records = run_experiment(BenchConfig(sizes=(6,), vertices_per_row=3,
                                         trials=4, seed=5))
    assert residuals == [r.residual for r in records]


def test_module_entry_point_exits_with_mains_status(gambler_path, bad_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for args, status in ((["--model", gambler_path], 0),
                         (["--model", bad_path], 1), ([], 2)):
        run = subprocess.run([sys.executable, "-m", "imchit.cli", "validate", *args],
                             env=env, capture_output=True, text=True)
        assert run.returncode == status, run.stderr


def test_bench_rejects_bad_sizes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "6;8", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --sizes" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-3"],
                                   ["--tol", "1e-9"], ["--vertices", "0"],
                                   ["--trials", "0"], ["--sizes", "1"],
                                   ["--sizes", "abc"], ["--seed", "-1"],
                                   ["--init", "greedy"]])
def test_bench_usage_errors_exit_two(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "6", "--trials", "1",
              "--out", str(tmp_path / "x.csv")] + flags)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()
