#!/usr/bin/env python3
"""Compare two BENCH_eventcore.json files and fail on events/sec regression.

Usage: check_bench.py COMMITTED.json CANDIDATE.json [--tolerance 0.2]

Compares the rate metrics that are stable across iteration counts (figure
events/sec, scheduler ops/sec, flow-churn flows/sec, route-setup routes/sec,
fabric-setup instantiations/sec, flat-dispatch events/sec): the candidate
may not fall more than `tolerance` below the committed value.  Being faster
is never an error.  Metrics present in only one file are skipped, so the
check keeps working while benchmark sections are added (and while --quick
runs omit the k=32 fabric-setup/figure entries).

Structural gates ride along: the candidate's flat_dispatch section must
exist, be non-diverged and >= 1.2x (PR 6); the committed baseline's
permutation_ndp_k32 figure must stay at or above the recorded floor (2.3M
events/s since the packet-layout PR); and the candidate's telemetry section
must exist, be non-diverged, with on-mode overhead <= 10% and the off
(unarmed) mode within 10% of the same run's flat_dispatch rate on the
identical workload (PR 8 — same-binary same-process comparison, so the
bar does not depend on machine speed; it is 10% rather than tighter
because the two sections time the identical configuration minutes apart
and cross-section drift alone spans ~7% on a shared machine — the gate
exists to catch an unarmed hook acquiring real cost, which shows up far
above that).  The campaign section (PR 9) adds three more candidate-side
gates: resume_identical (interrupted+resumed merged results byte-identical
to uninterrupted), streaming RSS strictly below the keep-every-outcome
baseline, and RSS flat in campaign length.  The flow_churn section must
exist with peak_rss_lower true: closed-loop churn with the flow recycler
peaks below the no-recycle baseline's RSS (a recycler that stopped freeing
would not).

The comparison prints as a per-section table (figures, scheduler, churn,
packet_path, ...) so an old-vs-new delta is readable section by section.
"""
import argparse
import json
import sys


# Figures whose committed wall time is below this are skipped: a run of a
# few milliseconds measures scheduler jitter, not the simulator.
MIN_FIGURE_WALL_SEC = 0.03

# Absolute floor on the COMMITTED k=32 figure.  The packet-layout PR reset
# this from the flat-dispatch PR's 2.5M: interleaved same-machine A/B puts
# the layout work's true end-to-end gain at ~5-10% over the seed, but the
# shared dev machine now runs EVERY section (including untouched ones like
# timer_churn and fabric_setup) 10-25% below the previously committed
# numbers, so the recorded baseline dropped to 2.4M despite the code being
# faster like-for-like.  The floor sits just under that at 2.3M — still a
# hard guard against committing a genuinely slowed-down baseline.  Applied
# to the committed baseline, not the candidate: the baseline is recorded
# once on a dev machine per scripts/bench.sh, so the floor gates what gets
# committed without making CI depend on shared-runner speed (quick candidate
# runs omit k=32 entirely).
K32_FLOOR_EVENTS_PER_SEC = 2.3e6
K32_FIGURE = "permutation_ndp_k32"


def rate_metrics(doc):
    """Flatten the rate (per-second) metrics of one bench document."""
    out = {}
    sched = doc.get("scheduler_microbench", {})
    if "timer_churn" in sched:
        out["timer_churn.new_ops_per_sec"] = sched["timer_churn"].get(
            "new_ops_per_sec")
    if "tick_dispatch" in sched:
        out["tick_dispatch.new_events_per_sec"] = sched["tick_dispatch"].get(
            "new_events_per_sec")
    # route_setup's interned side finishes in ~1ms; the bench reports the
    # best of interleaved rounds, which damps the allocation jitter enough
    # for the 20% gate to watch it without crying wolf.
    rsetup = doc.get("route_setup", {})
    if "interned_routes_per_sec" in rsetup:
        out["route_setup.interned_routes_per_sec"] = rsetup[
            "interned_routes_per_sec"]
    # fabric_setup: per-instance instantiation rate, keyed by k so the quick
    # run (k=16 only) compares against the committed k=16 entry and the full
    # run also gates k=32.
    for fs in doc.get("fabric_setup", []):
        k = fs.get("k")
        if k is None:
            continue
        out[f"fabric_setup.k{k}.instantiates_per_sec"] = fs.get(
            "instantiates_per_sec")
    churn = doc.get("flow_churn", {})
    if "recycling" in churn:
        out["flow_churn.recycling_flows_per_sec"] = churn["recycling"].get(
            "flows_per_sec")
    for fig in doc.get("figures", []):
        if fig.get("wall_seconds", 0) < MIN_FIGURE_WALL_SEC:
            continue
        out[f"figures.{fig['name']}.events_per_sec"] = fig.get(
            "events_per_sec")
    fd = doc.get("flat_dispatch", {})
    if "flat_events_per_sec" in fd:
        out["flat_dispatch.flat_events_per_sec"] = fd["flat_events_per_sec"]
    tel = doc.get("telemetry", {})
    if "off_events_per_sec" in tel:
        out["telemetry.off_events_per_sec"] = tel["off_events_per_sec"]
    pp = doc.get("packet_path", {})
    if "new_ops_per_sec" in pp:
        out["packet_path.new_ops_per_sec"] = pp["new_ops_per_sec"]
    # campaign jobs/sec: quick runs use a shorter grid but identical per-job
    # work, so the rate stays comparable with the committed full run.
    camp = doc.get("campaign", {})
    if "jobs_per_sec" in camp:
        out["campaign.jobs_per_sec"] = camp["jobs_per_sec"]
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def check_flat_dispatch(doc):
    """Structural gates on the candidate's flat_dispatch section (PR 6):
    the section must exist, the two dispatch modes must have run the exact
    same event sequence, and flat must actually be faster than virtual.
    Returns a list of failure strings (empty = pass)."""
    fd = doc.get("flat_dispatch")
    if fd is None:
        return ["flat_dispatch section missing from candidate"]
    failures = []
    if fd.get("identical_events") is not True:
        failures.append("flat_dispatch.identical_events is not true "
                        "(flat and virtual dispatch diverged)")
    speedup = fd.get("speedup", 0)
    if not isinstance(speedup, (int, float)) or speedup < 1.2:
        failures.append(
            f"flat_dispatch.speedup {speedup} below the 1.2x floor")
    return failures


def check_telemetry(doc):
    """Structural gates on the candidate's telemetry section (PR 8): it must
    exist, the off-vs-on transport event sequences must match, on-mode
    overhead must stay within the 10% budget, and the unarmed (off) mode
    must be within 10% of the same run's flat_dispatch rate — both sides of
    that last gate come from one binary in one process over the identical
    k=16 workload, so it is machine-independent.  The off/flat bar is 10%,
    not tighter: the two sections time the same configuration minutes
    apart, and cross-section drift alone spans ~7% on a shared machine;
    a hook that acquires real unarmed cost (a lock, a missing null check)
    lands far above 10%.
    Returns a list of failure strings (empty = pass)."""
    tel = doc.get("telemetry")
    if tel is None:
        return ["telemetry section missing from candidate"]
    failures = []
    if tel.get("identical_events") is not True:
        failures.append("telemetry.identical_events is not true "
                        "(telemetry perturbed the event sequence)")
    overhead = tel.get("overhead", 0)
    if not isinstance(overhead, (int, float)) or overhead > 1.10:
        failures.append(
            f"telemetry.overhead {overhead} above the 1.10 budget")
    off = tel.get("off_events_per_sec", 0)
    flat = doc.get("flat_dispatch", {}).get("flat_events_per_sec", 0)
    if isinstance(off, (int, float)) and isinstance(flat, (int, float)) \
            and flat > 0 and off < 0.90 * flat:
        failures.append(
            f"telemetry.off_events_per_sec {off:.0f} more than 10% below the "
            f"same run's flat_dispatch.flat_events_per_sec {flat:.0f} "
            "(unarmed hooks are not free)")
    return failures


def check_campaign(doc):
    """Structural gates on the candidate's campaign section (PR 9): it must
    exist, the interrupted-and-resumed campaign's merged result must be
    byte-identical to the uninterrupted run's, the streaming spill path's
    live RSS must sit strictly below the keep-every-outcome baseline's, and
    RSS must be flat in campaign length (doubling the job count may not grow
    it).  All three comparisons are internal to one run of one binary —
    runner speed and absolute memory size cancel out.
    Returns a list of failure strings (empty = pass)."""
    camp = doc.get("campaign")
    if camp is None:
        return ["campaign section missing from candidate"]
    failures = []
    if camp.get("resume_identical") is not True:
        failures.append("campaign.resume_identical is not true (interrupted+"
                        "resumed merged results diverged from uninterrupted)")
    stream = camp.get("rss_stream_bytes", 0)
    keepall = camp.get("rss_keepall_bytes", 0)
    if not (isinstance(stream, (int, float)) and
            isinstance(keepall, (int, float)) and 0 < stream < keepall):
        failures.append(
            f"campaign streaming RSS {stream} not strictly below the "
            f"keep-all baseline's {keepall}")
    if camp.get("rss_flat") is not True:
        failures.append("campaign.rss_flat is not true "
                        "(RSS grew with campaign length)")
    return failures


def check_flow_churn(doc):
    """Structural gate on the candidate's flow_churn section: it must exist
    and the recycling phase's peak RSS must sit below the no-recycle
    baseline's.  The recycling phase runs first, so this is conservative:
    the baseline starts from the recycler's peak and still has to climb
    past it.  Returns a list of failure strings (empty = pass)."""
    churn = doc.get("flow_churn")
    if churn is None:
        return ["flow_churn section missing from candidate"]
    if churn.get("peak_rss_lower") is not True:
        return ["flow_churn.peak_rss_lower is not true (recycling churn "
                "did not peak below the no-recycle baseline's RSS)"]
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("committed")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional slowdown vs committed (0.2 = 20%%)")
    args = ap.parse_args()

    with open(args.committed) as f:
        committed_doc = json.load(f)
    committed = rate_metrics(committed_doc)
    with open(args.candidate) as f:
        candidate_doc = json.load(f)
    candidate = rate_metrics(candidate_doc)

    structural_failures = check_flat_dispatch(candidate_doc)
    structural_failures += check_telemetry(candidate_doc)
    structural_failures += check_campaign(candidate_doc)
    structural_failures += check_flow_churn(candidate_doc)
    k32_rate = next(
        (fig.get("events_per_sec", 0)
         for fig in committed_doc.get("figures", [])
         if fig.get("name") == K32_FIGURE), None)
    if k32_rate is None:
        structural_failures.append(
            f"committed baseline has no {K32_FIGURE} figure")
    elif k32_rate < K32_FLOOR_EVENTS_PER_SEC:
        structural_failures.append(
            f"committed {K32_FIGURE} at {k32_rate:.0f} events/s is below "
            f"the {K32_FLOOR_EVENTS_PER_SEC:.0f} floor")
    for msg in structural_failures:
        print(f"STRUCTURAL FAILURE: {msg}")

    shared = sorted(set(committed) & set(candidate))
    if not shared:
        print("error: no comparable metrics between the two files")
        return 2

    failures = []
    section = None
    for key in shared:
        base = committed[key]
        got = candidate[key]
        if base <= 0:
            continue
        # Section header whenever the prefix before the first '.' changes
        # (keys arrive sorted, so each section prints contiguously).
        if key.split(".", 1)[0] != section:
            section = key.split(".", 1)[0]
            print(f"\n[{section}]")
        ratio = got / base
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failures.append(key)
        metric = key.split(".", 1)[1]
        print(f"  {metric:46s} {base:14.0f} -> {got:14.0f}  "
              f"({ratio:6.2f}x) {status}")

    if failures or structural_failures:
        if failures:
            print(f"\nFAILED: {len(failures)} metric(s) regressed more than "
                  f"{args.tolerance:.0%}: {', '.join(failures)}")
        if structural_failures:
            print(f"FAILED: {len(structural_failures)} structural "
                  "gate(s), see above")
        return 1
    print(f"\nall {len(shared)} shared metrics within {args.tolerance:.0%} "
          "of committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
