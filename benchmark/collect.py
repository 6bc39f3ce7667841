#!/usr/bin/env python3
"""Repeats the benchmark and summarises the repeats as the acceptance check
does: medians and quartiles per metric (Python's statistics.quantiles, n=4).
Run it from the repository root.

  python3 benchmark/collect.py repeat [--seed 42] [--runs 5] [--out-dir benchmark/results]
      Two independent sets of --runs runs of every workload at one seed.
      Writes baseline-seed<S>.json (the first set) and
      repeatability-seed<S>.json (both sets, and for every metric how far
      the second set's median moved from the first's, against its bound).

  python3 benchmark/collect.py spread [--seeds 1-10] [--out FILE]
      One run per seed of every workload. For every metric: the distance
      between the first and third quartile as a share of the median, against
      a third of the metric's bound.

Every run is `bash benchmark/run.sh --workload W --seed S --seconds T
--trace 0`, with T the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, out_path):
    command = ["bash", "benchmark/run.sh", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--out", out_path]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} failed ({done.returncode}):\n"
                 f"{done.stdout[-4000:]}\n{done.stderr[-4000:]}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out_path) as f:
        host = json.load(f)["host"]
    return summary, host


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def run_set(spec, seeds, scratch, log):
    """One run per (workload, seed); returns per-workload metric summaries
    and the host header of the first run."""
    host = None
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        values = {}
        for seed in seeds:
            summary, run_host = run_once(name, seed, spec["run_seconds"], scratch)
            host = host or run_host
            if not summary["correct"] or summary["failed"]:
                sys.exit(f"{name} seed {seed} was not correct: {summary}")
            for metric, v in summary["metrics"].items():
                values.setdefault(metric, (v["unit"], []))[1].append(v["value"])
            log(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in sorted(summary["metrics"].items())))
        workloads[name] = {m: dict(unit=unit, **summarise(vals))
                           for m, (unit, vals) in sorted(values.items())}
    return workloads, host


def worse_share(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    repeat = sub.add_parser("repeat")
    repeat.add_argument("--seed", type=int, default=42)
    repeat.add_argument("--runs", type=int, default=5)
    repeat.add_argument("--out-dir", default="benchmark/results")
    spread = sub.add_parser("spread")
    spread.add_argument("--seeds", default="1-10")
    spread.add_argument("--out")
    args = parser.parse_args()

    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    log = lambda line: print(line, file=sys.stderr, flush=True)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(target, exist_ok=True)
    fd, scratch = tempfile.mkstemp(suffix=".json", dir=target)
    os.close(fd)
    try:
        if args.mode == "repeat":
            seeds = [args.seed] * args.runs
            first, host = run_set(spec, seeds, scratch, log)
            second, _ = run_set(spec, seeds, scratch, log)
            common = {"seed": args.seed, "runs": args.runs, "run_seconds": spec["run_seconds"]}
            baseline = dict(host=host, schema="rll-benchmark-baseline/v1", **common,
                            workloads=first)
            comparison = {}
            for w, metrics in first.items():
                comparison[w] = {}
                for m, a in metrics.items():
                    b = second[w][m]
                    shift = worse_share(a["median"], b["median"], bounds[m]["better"])
                    comparison[w][m] = {"median_a": a["median"], "median_b": b["median"],
                                        "worse_share": shift, "bound": bounds[m]["bound"],
                                        "within_bound": abs(shift) <= bounds[m]["bound"]}
            repeatability = dict(host=host, schema="rll-benchmark-repeatability/v1", **common,
                                 sets=[first, second], comparison=comparison)
            os.makedirs(args.out_dir, exist_ok=True)
            for name, doc in [(f"baseline-seed{args.seed}.json", baseline),
                              (f"repeatability-seed{args.seed}.json", repeatability)]:
                with open(os.path.join(args.out_dir, name), "w") as f:
                    json.dump(doc, f, indent=2)
                    f.write("\n")
            ok = all(c["within_bound"] for w in comparison.values() for c in w.values())
        else:
            lo, _, hi = args.seeds.partition("-")
            seeds = list(range(int(lo), int(hi or lo) + 1))
            workloads, host = run_set(spec, seeds, scratch, log)
            ok = True
            for w, metrics in workloads.items():
                for m, s in metrics.items():
                    s["bound"] = bounds[m]["bound"]
                    s["within_third_of_bound"] = s["spread"] < bounds[m]["bound"] / 3
                    # Set-up time is exempt from the spread test.
                    ok &= s["within_third_of_bound"] or m == "setup_s"
                    log(f"{w:11s} {m:22s} median {s['median']:.6g} "
                        f"spread {s['spread']:.3f} bound {s['bound']}")
            doc = {"host": host, "schema": "rll-benchmark-spread/v1", "seeds": seeds,
                   "run_seconds": spec["run_seconds"], "workloads": workloads}
            if args.out:
                with open(args.out, "w") as f:
                    json.dump(doc, f, indent=2)
                    f.write("\n")
    finally:
        os.remove(scratch)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
