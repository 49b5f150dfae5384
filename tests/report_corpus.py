"""Print the CLI reports of a fixed corpus of model files.

    PYTHONPATH=src python tests/report_corpus.py > reports.txt

The corpus is the modelzoo models, interval and coupled ``box_model``s,
the ``edge_rows`` model, a few ``random_model`` and ``random_mixed_model``
draws, and invalid files.  For each file the script runs ``imchit
validate``, ``imchit reach`` and ``imchit solve --trace`` with policy
iteration, value iteration and brute force for both bounds (policy
iteration only on the ``POLICY_ONLY`` chains), in this one process, and
prints each run's arguments, exit code, stdout and stderr.
It then runs ``imchit bench`` on two study configurations, each with
``--jobs 1`` and ``--jobs 2``, and prints its CSV without the
``wall_time_s`` column and its histogram.  Lines holding ``wall_time_s``
are dropped, so two outputs are equal byte for byte iff every report is.
With ``PYTHONPATH`` pointed at another checkout's ``src``, the script
reports that checkout's package on the same corpus.  pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from imchit import (Model, StateSpace, TargetSet, cli, model_to_dict,
                    random_model)
from modelzoo import (box_model, drift_chain_model, edge_rows, gambler_model,
                      isolated_cycle_model, line_model, precise_model,
                      random_mixed_model, two_choice_model)


def _two_state(row_a: dict, target=("b",)) -> dict:
    return {"states": ["a", "b"], "target": list(target),
            "rows": {"a": row_a, "b": {"vertices": [[0.0, 1.0]]}}}


def _bounds(*constraints) -> dict:
    """A constraint row over states a and b from ``(label, rel, b)``."""
    return {"constraints": [{"a": {label: 1.0}, "rel": rel, "b": b}
                            for label, rel, b in constraints]}


def corpus() -> dict[str, dict]:
    """Model documents by file name, valid and invalid ones, in a fixed order."""
    models: dict[str, Model] = {
        "gambler_4": gambler_model(4),
        "gambler_9": gambler_model(9),
        "line": line_model(),
        "isolated_cycle": isolated_cycle_model(),
        "two_choice": two_choice_model(),
        "drift_chain_6": drift_chain_model(6),
        "drift_chain_60": drift_chain_model(60),
        "steep_chain_12": drift_chain_model(12, away=0.99),
        "precise_3": precise_model(np.array([[0.2, 0.3, 0.5], [0.0, 0.5, 0.5],
                                             [0.0, 0.0, 1.0]]), {2}),
        "box_6_1": box_model(6, 1),
        "box_20_3": box_model(20, 3),
        "box_8_5_some_coupled": box_model(8, 5, coupled=range(0, 8, 3)),
        "box_8_5_all_coupled": box_model(8, 5, coupled=range(8)),
        "box_12_3_half_coupled": box_model(12, 3, coupled=range(0, 12, 2)),
        "edge_rows": Model(StateSpace(tuple("abcdef")), TargetSet({5}),
                           tuple(edge_rows())),
        "random_6_3_0": random_model(6, 3, 0),
        "random_7_2_4": random_model(7, 2, 4),
        "random_40_5_1": random_model(40, 5, 1),
    }
    for seed in range(4):
        for coupled in (False, True):
            rng = np.random.default_rng(seed)
            models[f"mixed_{seed}_{'coupled' if coupled else 'interval'}"] = \
                random_mixed_model(rng, coupled=coupled)
    docs = {name: model_to_dict(m) for name, m in models.items()}
    docs.update({
        "bad_sum": _two_state({"vertices": [[0.5, 0.6]]}),
        "nan_vertex": _two_state({"vertices": [[math.nan, 1.0], [0.5, 0.5]]}),
        "inf_coefficient": _two_state(
            {"constraints": [{"a": {"a": math.inf}, "rel": "<=", "b": 0.5}]}),
        "empty_target": _two_state({"vertices": [[0.5, 0.5]]}, target=()),
        "full_target": _two_state({"vertices": [[0.5, 0.5]]}, target=("a", "b")),
        "crossed_interval": _two_state(_bounds(("a", ">=", 0.7), ("a", "<=", 0.2))),
        "over_full_interval": _two_state(_bounds(("a", ">=", 0.6), ("b", ">=", 0.6))),
        "tolerance_band": _two_state(_bounds(("a", ">=", 0.5), ("b", ">=", 0.5 + 1e-10))),
        "infeasible_general": _two_state({"constraints": [
            {"a": {"a": 1.0, "b": 1.0}, "rel": ">=", "b": 1.5}]}),
    })
    return docs


# the iteration study, at a small size and at the study_200 benchmark's
BENCH_RUNS = (["--sizes", "30,40", "--vertices", "10", "--trials", "6", "--seed", "7"],
              ["--sizes", "200", "--vertices", "50", "--trials", "2", "--seed", "1"])


METHODS = ("policy", "value", "brute")
# steep chains, whose upper hitting times (3.4e11 and 2.8e20) value
# iteration would take 10^6 sweeps or more to approach, and whose brute
# force refuses or repeats what policy iteration shows
POLICY_ONLY = ("drift_chain_60", "steep_chain_12")


def commands(path: str, methods: tuple[str, ...]) -> list[list[str]]:
    runs = [["validate", "--model", path], ["reach", "--model", path]]
    for method in methods:
        for bound in ("lower", "upper"):
            runs.append(["solve", "--model", path, "--method", method,
                         "--bound", bound, "--trace"])
    return runs


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def report(argv: list[str], shown: str, tmp: str) -> None:
    """Run ``argv`` and print it as ``shown``, its exit code and its output."""
    status, out, err = run(argv)
    print(f"=== {shown}\nexit {status}")
    for stream, text in (("stdout", out), ("stderr", err)):
        lines = [line.replace(tmp, "<dir>") for line in text.splitlines()
                 if "wall_time_s" not in line]
        print(f"--- {stream}", *lines, sep="\n")


def report_bench(args: list[str], tmp: str) -> None:
    """Print the study's CSV, without ``wall_time_s``, and its histogram."""
    out, hist = Path(tmp, "bench.csv"), Path(tmp, "hist.json")
    argv = ["bench", *args, "--out", str(out), "--hist", str(hist)]
    report(argv, " ".join(argv).replace(tmp, "<dir>"), tmp)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    print("--- csv", *(",".join(r[:drop] + r[drop + 1:]) for r in rows), sep="\n")
    print("--- hist", hist.read_text(encoding="utf-8"), sep="\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in corpus().items():
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            methods = ("policy",) if name in POLICY_ONLY else METHODS
            for argv in commands(str(path), methods):
                report(argv, " ".join(argv).replace(str(path), f"{name}.json"), tmp)
        for args in BENCH_RUNS:
            for jobs in ("1", "2"):
                report_bench([*args, "--jobs", jobs], tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
