#!/usr/bin/env python3
"""Run the benchmark over many seeds and store every result.

    python3 benchmark/collect.py DIR [DIR ...] [--seeds 1-10] [--workloads a,b]
                                 [--seconds N]

Each (seed, workload) runs once per DIR, untraced, through benchmark/run.sh,
each run in its own process.  With two DIRs the two sets alternate which runs first from
one seed to the next, so slow drift of the host lands on both sides alike.
Results are appended to DIR/<workload>.jsonl, one line per run:

    {"seed": 3, "exit": 0, "result": {...the run's JSON line...},
     "lines": {"run_s": 1.23, "sim.events": 9329642, ...}}

`lines` holds every `name value unit` line the run printed (the digest as
its hex string).  Compare sets with benchmark/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    out = proc.stdout.strip().splitlines()
    lines = {}
    for line in out[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                lines[parts[0]] = float(parts[1])
            except ValueError:
                lines[parts[0]] = parts[1]
    result = None
    if out:
        try:
            result = json.loads(out[-1])
        except json.JSONDecodeError:
            pass
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "lines": lines}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    for d in args.dirs:
        os.makedirs(d, exist_ok=True)
    workloads = args.workloads.split(",")
    failed = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = args.dirs if i % 2 == 0 else list(reversed(args.dirs))
        for w in workloads:
            for d in order:
                rec = run_once(w, seed, args.seconds)
                with open(os.path.join(d, w + ".jsonl"), "a") as f:
                    f.write(json.dumps(rec) + "\n")
                ok = rec["exit"] == 0 and rec["result"] is not None
                failed += not ok
                run_s = rec["lines"].get("run_s", float("nan"))
                print(f"{d} {w} seed {seed} exit {rec['exit']} "
                      f"run_s {run_s:.4f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
