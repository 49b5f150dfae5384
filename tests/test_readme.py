"""The README's examples run as written, so that the documentation cannot
drift from the package."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import imchit as ic

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
