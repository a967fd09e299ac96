"""robinlab benchmark: closed-loop runs of one workload, or of all four.

    python3 perfbench/run.py --workload shape_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; robinlab is imported from ./src. One caller
issues operations back to back, each starting when the previous one has
returned; numpy, scipy and BLAS are pinned to one thread. A run warms up
with one operation on fixed inputs, then executes whole rounds (see workloads.py) until
--seconds have passed, then checks every output.

--trace 0 prints the end-to-end metrics: setup_s (process start to ready:
imports, input generation, one warm-up operation), ops_per_s, op_p50_s and
peak_rss_mb. --trace 1 runs every round twice on the same inputs, once with
the span wrappers of tracing.py switched off and once on, prints the
per-layer metrics of the traced passes and the tracing overhead (traced
minus untraced wall time), and writes the spans under perfbench/out/trace.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --workload all runs the four workloads in
this one process and ends with a JSON object whose metric names carry the
workload as prefix.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("shape_sweep", "obstacle_sweep", "radial_certificates", "fine_mesh")


def _run_round(rnd, tracer, op_base):
    """Execute one round; returns (outputs, latencies of completed ops,
    failures, wall time)."""
    outputs, latencies, failed = [], [], 0
    t_round = time.perf_counter()
    for i, (label, fn) in enumerate(rnd.ops):
        if tracer is not None:
            tracer.op_id = op_base + i
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # one failed operation must not end the run
            failed += 1
            outputs.append(None)
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, failed, time.perf_counter() - t_round


def make_tracer():
    """A tracer whose wrappers are installed in robinlab's modules."""
    import tracing
    from robinlab import cli, config, fem, geometry, inequalities, radial

    tracer = tracing.Tracer()
    tracer.install(
        {
            "cli": cli,
            "config": config,
            "fem": fem,
            "geometry": geometry,
            "inequalities": inequalities,
            "radial": radial,
        }
    )
    return tracer


def run_workload(name, seed, seconds, tracer, start):
    """One workload: warm-up, whole rounds for `seconds`, checks. With a
    tracer every round runs untraced and traced on the same inputs."""
    import numpy as np

    import workloads

    make_round = workloads.WORKLOADS[name]
    workdir = os.path.join(OUT, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace = tracer is not None
    if trace:
        tracer.reset()
    rng = np.random.default_rng(seed)
    rnd = make_round(rng, 0, workdir)
    workloads.WARMUPS[name](workdir)
    setup_s = time.perf_counter() - start

    executed = []  # (round, outputs)
    latencies, attempted, failed = [], 0, 0
    plain_s = traced_s = 0.0
    t_start = time.perf_counter()
    index = 0
    while True:
        passes = (False, True) if index % 2 == 0 else (True, False)
        for traced in passes if trace else (False,):
            if trace:
                tracer.enabled = traced
            outs, lat, fail, wall = _run_round(rnd, tracer, attempted)
            executed.append((rnd, outs))
            latencies += lat
            attempted += len(rnd.ops)
            failed += fail
            if traced:
                traced_s += wall
            else:
                plain_s += wall
        index += 1
        if time.perf_counter() - t_start >= seconds:
            break
        rnd = make_round(rng, index, workdir)
    elapsed = time.perf_counter() - t_start
    if trace:
        tracer.enabled = False

    errors = []
    for r, outs in executed:
        try:
            errors += r.check(outs)
        except Exception:  # a check that raises fails the run, not the report
            errors.append(f"check raised:\n{traceback.format_exc()}")
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
        metrics["bench.rounds"] = (index, "count")
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        tracer.write(os.path.join(OUT, "trace", f"{name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / elapsed, "op/s"),
            "op_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(
        f"workload {name} seed {seed}: {attempted} operations in {index} rounds"
        f"{' (each round run untraced and traced)' if trace else ''}, {failed} failed, "
        f"{len(errors)} check failures, {len(latencies)} latency samples"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "robinlab", "__init__.py")):
        print(f"robinlab sources not found under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tracer = make_tracer() if args.trace else None
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, tracer, _START)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        start = _START
        for name in WORKLOAD_NAMES:
            one = run_workload(name, args.seed, args.seconds, tracer, start)
            print(json.dumps(one))
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
            start = time.perf_counter()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
