#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts.

    python3 scripts/bench_pairs.py --base ../old --change . \
        --workload radial_certificates --pairs 5 --seconds 10

Runs perfbench/run.py of each checkout (from that checkout's root, so each
side imports its own src/) on the same workload and seed, for --pairs
pairs. Pair i uses seed --seed + i and alternates which side runs first, so
a slow phase of the host does not fall on one side only. Prints one JSON
object: per metric the median, quartiles and values of each side, and the
per-pair ratios change / base with their median, and `wins`: the number
of pairs in which the change is better, ties counting for neither side, in
the direction that the `better` field of the change checkout's
BENCHMARK.json gives (null for a metric it does not list). With --trace 1
the per-layer metrics are compared the same way. Exits 1 when a run fails
or reports correct: false or failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds, trace):
    """The last-line JSON object of one perfbench run in `checkout`."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def directions(checkout):
    """{metric: "higher" or "lower"} from the `better` fields of the
    checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def wins(base, change, better):
    """Pairs in which the change is strictly better; a tie counts for neither."""
    sign = {"higher": 1.0, "lower": -1.0}[better]
    return sum(sign * (c - b) > 0.0 for b, c in zip(base, change))


def sig(x):
    return float(f"{x:.6g}")


def summary(values):
    # inclusive quartiles stay inside the observed range at few pairs
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3), "values": [sig(v) for v in values]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the old code")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the new code")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    better = directions(sides["change"])  # read before any run, so a bad file fails fast
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(
                run_once(sides[side], args.workload, args.seed + i, args.seconds, args.trace)
            )

    metrics = {}
    for name in runs["base"][0]["metrics"]:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [sig(c / b) if b else None for b, c in zip(base, change)]
        known = [r for r in ratios if r is not None]
        metrics[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "base": summary(base),
            "change": summary(change),
            "ratios": ratios,
            "median_ratio": sig(statistics.median(known)) if known else None,
            "wins": wins(base, change, better[name]) if name in better else None,
        }
    health = {
        side: {
            "correct": all(r["correct"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
        }
        for side in runs
    }
    head = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "trace": args.trace,
        "health": health,
    }
    # one line per metric, so that a diff or a log shows one metric a line
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in head.items()]
    rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in metrics.items()]
    print("{\n " + ",\n ".join(lines) + ',\n "metrics": {\n' + ",\n".join(rows) + "\n }\n}")
    ok = all(h["correct"] and h["failed"] == 0 for h in health.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
