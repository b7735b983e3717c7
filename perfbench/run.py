#!/usr/bin/env python3
"""Build and run the UniStore benchmark (perfbench/perfbench.ml).

Run one workload, printing metric lines and, last, one JSON result line:

    python3 perfbench/run.py --workload rubis --seed 7 --seconds 30 --trace 0

Compare sets of runs: median and quartiles of every end-to-end metric per
workload, over fresh runs (one per seed) or over saved result files:

    python3 perfbench/run.py --compare --seeds 1-10 --out parent.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Run from the root of a checkout. The benchmark builds into .bench_build/
and writes its traces into perfbench-out/, both inside the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a UniStore checkout (dune-project and lib/ missing)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--profile", "release", "./perfbench/perfbench.exe"]
    res = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if res.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_one(workload, seed, seconds, trace, echo=True):
    """Run the executable once; return its parsed JSON result line."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(res.stdout)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with {res.returncode}")
    return json.loads(lines[-1])


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(sets):
    """Print median, quartiles and spread ((q3-q1)/median) per metric."""
    names = [name for name, _ in sets]
    workloads = sorted({r["workload"] for _, rows in sets for r in rows})
    for wl in workloads:
        print(f"== {wl}")
        print(f"{'metric':24s}" + "".join(
            f"{n[-26:]:>44s}" for n in names))
        metrics = []
        for _, rows in sets:
            for r in rows:
                if r["workload"] == wl:
                    metrics += [m for m in r["result"]["metrics"] if m not in metrics]
        for m in metrics:
            cells = []
            for _, rows in sets:
                vals = [r["result"]["metrics"][m]["value"] for r in rows
                        if r["workload"] == wl and m in r["result"]["metrics"]]
                if len(vals) >= 2:
                    q1, med, q3 = statistics.quantiles(vals, n=4)
                    spread = (q3 - q1) / med * 100 if med else float("nan")
                    cells.append(f"{med:12.4f} [{q1:11.4f},{q3:11.4f}] {spread:5.1f}%")
                elif vals:
                    cells.append(f"{vals[0]:12.4f}{'':31s}")
                else:
                    cells.append(f"{'-':>44s}")
            print(f"{m:24s}" + "".join(f"{c:>44s}" for c in cells))
        for name, rows in sets:
            ok = all(r["result"]["correct"] for r in rows if r["workload"] == wl)
            failed = sum(r["result"]["failed"] for r in rows if r["workload"] == wl)
            n = sum(1 for r in rows if r["workload"] == wl)
            print(f"  {name}: {n} runs, all correct={ok}, failed operations={failed}")


def compare(args):
    if args.files:
        summarize([(path, load(path)) for path in args.files])
        return
    build()
    workloads = args.workloads.split(",")
    rows = []
    out = open(args.out, "a") if args.out else None
    for wl in workloads:
        for seed in seed_list(args.seeds):
            result = run_one(wl, seed, args.seconds, args.trace, echo=False)
            row = {"workload": wl, "seed": seed, "trace": args.trace, "result": result}
            rows.append(row)
            if out:
                out.write(json.dumps(row) + "\n")
                out.flush()
            print(f"# {wl} seed {seed}: correct={result['correct']}", file=sys.stderr)
    if out:
        out.close()
    summarize([(args.out or "runs", rows)])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", action="store_true",
                   help="median and quartiles over runs or result files")
    p.add_argument("--workloads", default="rubis,strong_disk,churn")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", help="append compare-mode results to this JSONL file")
    p.add_argument("files", nargs="*", help="compare-mode result files")
    args = p.parse_args()
    if args.compare:
        compare(args)
        return
    if not args.workload:
        p.error("--workload is required")
    build()
    run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
