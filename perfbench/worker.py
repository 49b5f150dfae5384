"""One benchmark workload in one process: set-up, timed calls, oracle checks.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints one JSON object with the raw samples and exits.

    python3 perfbench/worker.py --workload vrep_1000 --seed 1 --seconds 10 \
        --trace 0 [--part 0] [--setup-only]
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported: unpinned OpenBLAS
# threads make small solves slower and their timings erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import weakref  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

PERF = time.perf_counter

# A traced run traces a fixed amount of work, so that its counts repeat
# exactly for a seed: this many steps per phase, each right after an
# untraced one, so that both see the same state of a shared host.
TRACED_STEPS = 1


def environment(np) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:  # read the pinned thread count back from the loaded OpenBLAS
        import ctypes
        import glob
        for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    env["blas_threads"] = getattr(lib, sym)()
                    break
    except OSError:
        pass
    return env


def install_tracer(imchit):
    from tracer import Tracer

    tracer = Tracer("imchit")
    vertex_bytes = weakref.WeakKeyDictionary()

    def stacked_bytes(args, kwargs, result):
        model = args[0]
        size = vertex_bytes.get(model)
        if size is None:
            size = vertex_bytes[model] = sum(
                row.vertices.nbytes for row in model.rows if hasattr(row, "vertices"))
        return size

    def absorbed(args, kwargs, result):
        return sum(1 for step in result.reach_step if step), len(result.reach_step)

    def solve_info(args, kwargs, result):
        return result.iterations, sum(s.policy_changes for s in result.trace or ())

    def rows(args, kwargs, result):
        return args[0].size

    for module, attr, hook in (
            ("reachability", "check_reachability", absorbed),
            ("transition", "lower_apply", stacked_bytes),
            ("transition", "upper_apply", stacked_bytes),
            ("lp", "minimize_row", None),
            ("lp", "vertex_from_basis", None),
            ("linsolve", "solve_precise", None),
            ("model", "policy_to_matrix", rows),
            ("solvers", "solve_policy", solve_info),
            ("solvers", "fixed_point_residual", None),
            ("bench", "random_model", None),
            ("bench", "run_experiment", None)):
        tracer.wrap(module, attr, hook)
    return tracer


def layer_metrics(tracer, traced, overhead: float) -> dict:
    """Per-layer metrics of the traced steps, as {name: [value, unit]}."""
    self_time = tracer.self_times()
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)

    def count(*names):
        return sum(len(spans[n]) for n in names)

    def own(*names):
        return sum(self_time[id(s)] for n in names for s in spans[n])

    def ratio(a, b):
        return a / b if b else 0.0

    def under(span, name):
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False

    reach = "reachability.check_reachability"
    apply = ("transition.lower_apply", "transition.upper_apply")
    sweeps = defaultdict(int)
    sweep_s = 0.0
    for name in apply:
        for span in spans[name]:
            if span.parent is not None and span.parent.name == reach:
                sweeps[id(span.parent)] += 1
                sweep_s += span.end - span.start
    useful = attempts = 0
    for span in spans[reach]:
        if span.info is not None:
            useful += span.info[0]
            attempts += sweeps[id(span)] * span.info[1]
    solves = spans["solvers.solve_policy"]
    infos = [s.info for s in solves if s.info is not None]
    assembled_rows = sum(s.info or 0 for s in spans["model.policy_to_matrix"])
    applied = [s.info for n in apply for s in spans[n] if s.info is not None]
    trial_reach = sum(1 for s in spans[reach] if under(s, "bench.run_experiment"))

    c = "count"
    return {
        "reachability.calls": [count(reach), c],
        "reachability.calls_per_solve": [ratio(count(reach), len(solves)), c],
        "reachability.calls_per_trial": [
            ratio(trial_reach, traced.trials) if spans["bench.run_experiment"] else 0.0, c],
        "reachability.sweeps": [sum(sweeps.values()), c],
        "reachability.sweep_s": [sweep_s, "s"],
        "reachability.useful_ratio": [ratio(useful, attempts), "ratio"],
        "transition.calls": [count(*apply), c],
        "transition.self_s": [own(*apply), "s"],
        "transition.s_per_call": [ratio(own(*apply), count(*apply)), "s"],
        "transition.bytes_per_call_computed": [ratio(sum(applied), len(applied)), "B"],
        "lp.minimize_row.calls": [count("lp.minimize_row"), c],
        "lp.minimize_row.self_s": [own("lp.minimize_row"), "s"],
        "lp.minimize_row.s_per_call": [
            ratio(own("lp.minimize_row"), count("lp.minimize_row")), "s"],
        "lp.vertex_from_basis.calls": [count("lp.vertex_from_basis"), c],
        "lp.vertex_from_basis.self_s": [own("lp.vertex_from_basis"), "s"],
        "linsolve.calls": [count("linsolve.solve_precise"), c],
        "linsolve.self_s": [own("linsolve.solve_precise"), "s"],
        "linsolve.s_per_call": [
            ratio(own("linsolve.solve_precise"), count("linsolve.solve_precise")), "s"],
        "model.policy_to_matrix.calls": [count("model.policy_to_matrix"), c],
        "model.policy_to_matrix.self_s": [own("model.policy_to_matrix"), "s"],
        "solvers.calls": [len(solves), c],
        "solvers.iterations": [sum(i[0] for i in infos), c],
        "solvers.policy_changes": [sum(i[1] for i in infos), c],
        "solvers.changed_row_ratio": [
            ratio(sum(i[1] for i in infos), assembled_rows), "ratio"],
        "solvers.self_s": [own("solvers.solve_policy"), "s"],
        "solvers.residual.self_s": [own("solvers.fixed_point_residual"), "s"],
        "bench.random_model.calls": [count("bench.random_model"), c],
        "bench.random_model.self_s": [own("bench.random_model"), "s"],
        "bench.run_experiment.self_s": [own("bench.run_experiment"), "s"],
        "trace.overhead_ratio": [overhead, "ratio"],
        "trace.absent": [len(tracer.absent), c],
    }


def layer_shares(tracer) -> dict:
    """Each module's share of the traced self time, largest first."""
    self_time = tracer.self_times()
    by_layer = defaultdict(float)
    for span in tracer.spans:
        by_layer[span.name.split(".")[0]] += self_time[id(span)]
    total = sum(by_layer.values()) or 1.0
    return {layer: seconds / total for layer, seconds in
            sorted(by_layer.items(), key=lambda item: -item[1])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0,
                   help="which of the processes measuring this run together")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    start = time.process_time()  # CPU time, as every timing in workloads.py
    import imchit
    import_s = time.process_time() - start
    if not Path(imchit.__file__).resolve().is_relative_to(src):
        print(f"imported {imchit.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.part)
    try:
        parts = workload.set_up()
    except workloads.SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = {"setup_s": import_s + sum(parts.values()),
           "setup_parts": dict(import_s=import_s, **parts)}
    if not args.setup_only:
        rec = workloads.Record()
        if args.trace:
            plain = workloads.Record()
            tracer = install_tracer(imchit)
        measured = 0.0  # seconds spent in steps; phase changes are not counted
        for phase in range(workload.phases):
            if phase:
                workload.next_phase(phase)
            start = PERF()
            deadline = start + args.seconds * (phase + 1) / workload.phases - measured
            if args.trace:
                for _ in range(TRACED_STEPS):
                    workload.step(plain)
                    with tracer:
                        workload.step(rec)
                while PERF() < deadline:
                    workload.step(plain)
            else:
                while True:
                    workload.step(rec)
                    if PERF() >= deadline:
                        break
            measured += PERF() - start
        if args.trace:
            overhead = statistics.fmean(rec.batch_s) / statistics.fmean(plain.batch_s) \
                if plain.batch_s and rec.batch_s else 0.0
            layers = layer_metrics(tracer, rec, overhead)
            layers["model.build_s"] = [parts["build_s"], "s"]
            layers["model.validate_s"] = [parts["validate_s"], "s"]
            out.update(layers=layers, layer_shares=layer_shares(tracer),
                       absent=tracer.absent)
            rec.attempted += plain.attempted
            rec.failed += plain.failed
            rec.failures = plain.failures + rec.failures
        out.update(lower_s=rec.lower_s, upper_s=rec.upper_s, batch_s=rec.batch_s,
                   trials=rec.trials, attempted=rec.attempted, failed=rec.failed,
                   failures=rec.failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment(np)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
