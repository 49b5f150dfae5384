"""The README's examples run as written, so that the documentation cannot
drift from the package."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import imchit as ic
from imchit import bench
from imchit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block of the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_api_quick_start_runs(capsys):
    exec(compile(code_block("Quick start (API)", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_model_file_format_example_loads_and_solves():
    model = ic.model_from_dict(json.loads(code_block("Model file format", "json")))
    lower = ic.solve_policy(model, "lower").solution.values
    upper = ic.solve_policy(model, "upper").solution.values
    assert model.states.labels == ("a", "b", "c")
    assert lower[2] == upper[2] == 0.0
    assert np.all(1.0 <= lower[:2]) and np.all(lower <= upper)


def test_bench_csv_header_is_the_documented_one():
    documented = re.search(r"`imchit bench` writes a CSV with the header\n\n```\n(.*?)\n```",
                           README).group(1)
    assert documented == ",".join(bench.CSV_COLUMNS)


def test_report_schema_example_is_the_file_format_examples_report(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(code_block("Model file format", "json"), encoding="utf-8")
    assert main(["solve", "--model", str(path), "--trace"]) == 0
    printed = json.loads(capsys.readouterr().out)
    documented = json.loads(code_block("Report schemas", "json"))
    assert printed.keys() == documented.keys()
    del printed["wall_time_s"], documented["wall_time_s"]
    assert printed == documented
