#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 benchmark/compare.py A_DIR B_DIR [--same] [--record FILE]

A_DIR is the baseline (the parent commit), B_DIR the change; each holds the
<workload>.jsonl files benchmark/collect.py writes, from untraced runs.  Runs
pair up by seed.  For every (end-to-end metric, workload) the report gives
each side's median and quartiles, the share of pairs B wins (ties count for
neither side) and a verdict, by the rule of choosing-metrics section 8:

  improved      B wins at least 9 in 10 pairs and the medians differ by more
                than the distance between A's quartiles
  regressed     B's median is worse than A's by more than the metric's bound
  unresolved    A's spread (quartile distance / median) exceeds the bound,
                unless every run of B reads better than every run of A
  within bound  otherwise

--same checks two sets of the SAME commit against each other and exits 1
unless: every run passed its checks; every median pair differs by less than
the bound; every spread is within the bound; and ops,
ops_failed, sim.events and out.digest are identical at each seed.
--record FILE also writes the spreads (and those of the same runs' unscaled
wall.* times), bounds and host/build provenance as JSON
(benchmark/provenance.json is such a file).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDENTICAL = ("ops", "ops_failed", "sim.events", "out.digest")


def load(directory):
    sets = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as f:
                recs = [json.loads(line) for line in f if line.strip()]
            sets[name[:-len(".jsonl")]] = sorted(recs, key=lambda r: r["seed"])
    return sets


def value(rec, metric):
    return rec["result"]["metrics"][metric]["value"]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    q1, q3 = quartiles(v)
    return (q3 - q1) / statistics.median(v)


def compare(a, b, metric, better, bound):
    va = [value(r, metric) for r in a]
    vb = [value(r, metric) for r in b]
    sign = 1 if better == "lower" else -1
    med_a, med_b = statistics.median(va), statistics.median(vb)
    (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
    pairs = list(zip(va, vb))
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / max(1, len(pairs))
    worse = sign * (med_b - med_a) / med_a
    spread_a, spread_b = spread(va), spread(vb)
    all_better = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
    if wins >= 0.9 and sign * (med_a - med_b) > qa3 - qa1:
        verdict = "improved"
    elif worse > bound:
        verdict = "regressed"
    elif spread_a > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"median": [med_a, med_b], "quartiles": [[qa1, qa3], [qb1, qb3]],
            "spread": [spread_a, spread_b], "change": worse, "wins": wins,
            "verdict": verdict}


def sh(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance():
    host = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown"}
    fields = {"model name": "cpu", "cpu family": "cpu_family",
              "model": "cpu_model", "cache size": "cache_per_cpu"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if not line.strip():
                    break  # first processor only
                if key.strip() in fields:
                    host[fields[key.strip()]] = val.strip()
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(HERE, ".build", "cmake",
                               "CMakeCache.txt")) as f:
            for line in f:
                key, sep, val = line.strip().partition("=")
                if sep and not key.startswith(("//", "#")):
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    flags = cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")
    if cache.get("NDPSIM_NATIVE_OPT") == "ON" and build_type == "Release":
        flags += " -flto (IPO) -march=native"
    status = sh(["git", "status", "--porcelain"])
    return {
        "git_revision": sh(["git", "rev-parse", "HEAD"]) +
                        ("-dirty" if status not in ("", "unknown") else ""),
        "host": host,
        "compiler": sh([compiler, "--version"]).splitlines()[0],
        "build_type": build_type,
        "build_flags": flags.strip(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_dir")
    ap.add_argument("b_dir")
    ap.add_argument("--same", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets_a, sets_b = load(args.a_dir), load(args.b_dir)

    problems = []
    table = {}
    for w in [x["name"] for x in spec["workloads"]]:
        a, b = sets_a.get(w, []), sets_b.get(w, [])
        if not a or not b:
            problems.append(f"{w}: no runs on one side")
            continue
        if [r["seed"] for r in a] != [r["seed"] for r in b]:
            problems.append(f"{w}: the two sides ran different seeds")
            continue
        bad = [r["seed"] for r in a + b
               if r["exit"] != 0 or not (r["result"] or {}).get("correct")]
        if bad:
            problems.append(f"{w}: failed runs at seeds {sorted(set(bad))}")
            continue
        print(f"\n{w} ({len(a)} pairs)")
        print(f"  {'metric':<12} {'A median':>12} {'A q1-q3':>23} "
              f"{'B median':>12} {'B q1-q3':>23} {'change':>8} {'wins':>5}"
              f"  verdict")
        table[w] = {}
        for m in spec["end_to_end"]:
            c = compare(a, b, m["name"], m["better"], m["bound"])
            table[w][m["name"]] = c
            (qa1, qa3), (qb1, qb3) = c["quartiles"]
            print(f"  {m['name']:<12} {c['median'][0]:>12.6g} "
                  f"{qa1:>11.6g}-{qa3:<11.6g} {c['median'][1]:>12.6g} "
                  f"{qb1:>11.6g}-{qb3:<11.6g} {100 * c['change']:>+7.2f}% "
                  f"{c['wins']:>5.2f}  {c['verdict']}")
            if not args.same:
                continue
            if abs(c["change"]) >= m["bound"]:
                problems.append(f"{w} {m['name']}: medians differ by "
                                f"{100 * c['change']:+.2f}% (bound "
                                f"{100 * m['bound']:.0f}%)")
            for side, s in zip("AB", c["spread"]):
                if s > m["bound"]:
                    problems.append(f"{w} {m['name']}: set {side} spread "
                                    f"{100 * s:.2f}% exceeds the bound")
        if args.same:
            for ra, rb in zip(a, b):
                for key in IDENTICAL:
                    if ra["lines"].get(key) != rb["lines"].get(key):
                        problems.append(f"{w} seed {ra['seed']}: {key} differs "
                                        f"({ra['lines'].get(key)} vs "
                                        f"{rb['lines'].get(key)})")

    if args.record:
        seeds = sorted({r["seed"] for recs in sets_a.values() for r in recs})
        # The same runs' times before host-speed scaling (`wall.*` lines).
        unscaled = {w: {m: [round(spread([r["lines"]["wall." + m]
                                          for r in side[w]]), 5)
                            for side in (sets_a, sets_b)]
                        for m in ("run_s", "cpu_s", "setup_s")}
                    for w in table}
        doc = {
            "recorded_by": "python3 benchmark/compare.py --same A B --record",
            **provenance(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
            "relative_iqr": {w: {m: [round(s, 5) for s in c["spread"]]
                                 for m, c in ms.items()}
                             for w, ms in table.items()},
            "relative_iqr_unscaled": unscaled,
            "median_change": {w: {m: round(c["change"], 5)
                                  for m, c in ms.items()}
                              for w, ms in table.items()},
            "medians": {w: {m: c["median"] for m, c in ms.items()}
                        for w, ms in table.items()},
        }
        with open(args.record, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")

    for p in problems:
        print("PROBLEM:", p)
    if args.same:
        print("\nagreement:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
