"""imchit benchmark: solve latency per bound, the iteration study, set-up cost.

    python3 perfbench/run.py --workload vrep_1000 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each workload runs in processes of its own, with BLAS
pinned to one thread:

* ``vrep_1000``: 1000 states x 50 flat-Dirichlet vertices per row, singleton
  target; the matvec, LU and storage path.  BENCHMARK.json leaves it out so
  that the gated runs fit the time they are allowed; its layers are also
  exercised by ``study_200``.  Run it by hand when working on the n=1000
  path.
* ``chain_300``: birth-death chain toward state 0, two vertices per row;
  reachability needs one operator sweep per state.  BENCHMARK.json leaves
  it out: like ``box_20`` its time goes to many small numpy calls, whose
  speed drifts with the load on a shared host, and with three workloads the
  runs were too short to steady either (10-seed spreads of 0.10-0.14 at
  35 s on a 2-vCPU host).  Run it by hand when working on reachability.
* ``box_20``: 20 states with interval rows given as H-rep constraints; the
  only workload that runs the simplex (``lp``).
* ``study_200``: the paper's iteration study, ``run_experiment`` at n=200,
  50 vertices, 2 threads; the only workload that runs ``bench``.

A trial is what the workload repeats: a lower+upper ``solve_policy`` pair on
the solve workloads, one trial of ``run_experiment`` on ``study_200``.  A
batch is one pair on the solve workloads and one ``run_experiment`` call of
8 trials on ``study_200``; each study batch is followed by one timed
lower+upper pair on an n=200 model, so every metric exists on every
workload.  A run is split into phases, each on a fresh model drawn from
(seed, part, phase); see ``workloads.py`` and ``PROCESSES`` below.

Every timing is CPU time of the measuring process (see ``workloads.CPU``):
a call's wall time on an idle machine, without the time it waits while
other processes on a shared host hold the CPUs.

With ``--trace 0`` the last line reports the end-to-end metrics:
``lower_s_p50`` and ``upper_s_p50`` (one ``solve_policy`` call on a
validated, warm model; the call includes the solver's own reachability
check), ``batch_s_p50``, ``trials_per_s`` (trials per second of batch
time), ``setup_s`` (median over several fresh processes of ``import
imchit`` + building the model + ``validate`` + one warm-up
``check_reachability``) and ``peak_rss_mb`` (the largest ``ru_maxrss`` of
the measuring processes; on ``study_200`` it is about 149 or 163 MiB from
run to run of one seed, as glibc keeps one 16 MB vertex array in a thread's
arena or returns it, depending on thread timing).

The summary above the last line adds each p90 with its sample count.  The
p90s are not in the result line, so that the gate rests on medians: a p90
needs a hundred samples to have ten beyond it, and a ``box_20`` run yields
little more than that.  Every answer is checked by an oracle that does not
use the package; a raise or a miss is a failed operation, and
``error_rate`` (failed / attempted) is printed too.

With ``--trace 1`` the last line reports the per-layer metrics instead.
Each phase runs a fixed number of traced steps, each right after an
untraced one, so counts repeat exactly for a seed and
``trace.overhead_ratio`` compares steps taken under the same host load.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("vrep_1000", "chain_300", "box_20", "study_200")
SETUP_SAMPLES = 7       # at least this many fresh processes give set-up times

# Untraced runs of these workloads start one measuring process per CPU, each
# on models of its own, and pool their samples.  Their time is spent in many
# small numpy calls, whose speed depends on what else runs on the other
# hardware thread of the CPU core.  On a 2-vCPU host the medians of 5 s
# windows of one ``box_20`` model's solves spread by about 11 % (quartile
# distance over median) for a lone process and by about 4 % for each of two
# processes run at once, one per vCPU.  The times are therefore those of a
# host running two such solves at once.
# ``vrep_1000`` is bound by memory and drifts little alone, and
# ``study_200`` runs two threads of its own.
PROCESSES = {"box_20": 2, "chain_300": 2}
TIME_LIMIT_S = 170.0    # the whole run, set-up processes included

END_TO_END = {
    "lower_s_p50": "s", "upper_s_p50": "s", "batch_s_p50": "s",
    "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
}


class WorkerFailed(Exception):
    pass


def percentile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workers(root: Path, args, deadline: float, setup_only: bool,
                parts: int) -> list[dict]:
    """Run ``parts`` workers at once; their results, or WorkerFailed.

    Every worker started has ended when this returns or raises.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = []
    try:
        for part in range(parts):
            cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--part", str(part)]
            if setup_only:
                cmd.append("--setup-only")
            procs.append(subprocess.Popen(cmd, cwd=root, env=env,
                                          stdout=subprocess.PIPE, text=True))
        results = []
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise WorkerFailed("worker ran past the time limit") from None
            if proc.returncode != 0:
                raise WorkerFailed(f"worker exited with code {proc.returncode}")
            try:
                results.append(json.loads(out.strip().splitlines()[-1]))
            except (IndexError, json.JSONDecodeError):
                raise WorkerFailed("worker printed no result") from None
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def pooled(results: list[dict]) -> dict:
    """One result from those of workers that measured a run together."""
    out = dict(results[0])
    for other in results[1:]:
        for key in ("lower_s", "upper_s", "batch_s", "failures"):
            out[key] = out[key] + other[key]
        for key in ("trials", "attempted", "failed"):
            out[key] += other[key]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], other["peak_rss_mb"])
    return out


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample counts, p90s included for the summary."""
    lower, upper, batch = result["lower_s"], result["upper_s"], result["batch_s"]
    if not (lower and upper and batch):
        raise WorkerFailed("no operation succeeded, so there is nothing to time")
    values, samples = {}, {}
    for name, series in (("lower_s", lower), ("upper_s", upper), ("batch_s", batch)):
        values[name + "_p50"] = statistics.median(series)
        values[name + "_p90"] = percentile90(series)
        samples[name + "_p50"] = samples[name + "_p90"] = len(series)
    values.update(trials_per_s=result["trials"] / sum(batch),
                  setup_s=statistics.median(setups), peak_rss_mb=result["peak_rss_mb"])
    samples.update(trials_per_s=result["trials"], setup_s=len(setups), peak_rss_mb=1)
    return values, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "imchit" / "__init__.py").is_file():
        print(f"no imchit sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # traced runs use one process, so that their counts repeat for a seed
        parts = 1 if args.trace else PROCESSES.get(args.workload, 1)
        setups = []
        while not args.trace and len(setups) + parts < SETUP_SAMPLES:
            setups += [r["setup_s"] for r in run_workers(root, args, deadline, True, parts)]
        results = run_workers(root, args, deadline, False, parts)
        setups += [r["setup_s"] for r in results]
        result = pooled(results)
        if args.trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        else:
            values, samples = end_to_end(result, setups)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
          f" blas={env['blas']} blas_threads={env['blas_threads']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    else:
        for name, value in values.items():
            unit = END_TO_END.get(name, "s")
            note = "" if name in END_TO_END else "  (not gated)"
            print(f"{name:40s} {value:.6g} {unit}  n={samples[name]}{note}")
    print(f"{'error_rate':40s} {result['failed'] / result['attempted']:.6g} ratio"
          f"  n={result['attempted']}")
    if args.trace:
        for layer, share in result["layer_shares"].items():
            print(f"share of traced self time: {layer:14s} {100 * share:5.1f} %")
        if result["absent"]:
            print("absent from the package: " + ", ".join(result["absent"]))
    for why in result["failures"]:
        print(f"failure: {why}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
