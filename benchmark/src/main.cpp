// ndpbench: end-to-end benchmark program for the ndpsim library.
//
//   ndpbench --workload W --seed S --seconds N --trace 0|1 [--work-dir DIR]
//
// Runs workload W (see workloads.cpp) over and over with inputs made from
// seed S, for about N seconds of wall time, in this one process.  Every
// iteration repeats the same seed, so each must reproduce the first one's
// event count and output digest exactly.  Prints every metric as
// `name value unit`, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics: medians over the iterations,
// times scaled to a reference host speed (see probe_s below).
// --trace 1 alternates untraced and traced iterations.  A traced iteration
// records spans around every library call and arms the telemetry plane;
// the per-layer metrics come from the last traced iteration, whose spans
// are written as Chrome trace JSON under DIR/traces, and
// trace.overhead = median traced run_s / median untraced run_s.
//
// Exits 1 when an output check fails or the library throws
// ndpsim::simulation_error, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sim/assert.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace bench;

struct metric_def {
  const char* name;
  const char* unit;
};

constexpr metric_def kEndToEnd[] = {
    {"run_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json's `per_layer` list names exactly these.  A workload that
// does not exercise a metric's layer reports it as 0.
constexpr metric_def kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.loop_s", "s"},
    {"sim.events_per_s", "1/s"},
    {"sim.heap_events", "count"},
    {"sim.lane_events", "count"},
    {"sim.flat_runs", "count"},
    {"sim.flat_run_len", "events/run"},
    {"net.pool_capacity_pkts", "count"},
    {"net.pool_outstanding_end", "count"},
    {"net.queue_enq_pkts", "count"},
    {"net.queue_drop_pkts", "count"},
    {"net.queue_trim_pkts", "count"},
    {"net.queue_bounce_pkts", "count"},
    {"net.queue_mark_pkts", "count"},
    {"net.pipe_pkts", "count"},
    {"net.demux_stale_drops", "count"},
    {"net.ns_per_hop", "ns"},
    {"topo.blueprint_s", "s"},
    {"topo.instantiate_s", "s"},
    {"topo.blueprint_mb", "MB"},
    {"topo.instance_mb", "MB"},
    {"topo.path_table_mb", "MB"},
    {"topo.interned_paths", "count"},
    {"harness.flow_create_s", "s"},
    {"harness.flows_started", "count"},
    {"harness.flows_recycled", "count"},
    {"harness.live_flows_max", "count"},
    {"harness.drain_s", "s"},
    {"harness.job_s_p50", "s"},
    {"harness.job_s_p99", "s"},
    {"harness.worker_busy_frac", "ratio"},
    {"harness.campaign_self_s", "s"},
    {"ndp.data_pkts_sent", "count"},
    {"ndp.rtx_nack", "count"},
    {"ndp.rtx_bounce", "count"},
    {"ndp.rtx_timeout", "count"},
    {"ndp.useful_ratio", "ratio"},
    {"tcp.mark_ratio", "ratio"},
    {"tcp.drop_ratio", "ratio"},
    {"out.fct_p50_us", "us"},
    {"out.fct_p99_us", "us"},
    {"out.fct_max_us", "us"},
    {"out.digest", "hash"},
    {"self.topo_s", "s"},
    {"self.harness_s", "s"},
    {"self.sim_s", "s"},
    {"self.net_s", "s"},
    {"self.ndp_s", "s"},
    {"self.stats_s", "s"},
    {"trace.run_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead", "ratio"},
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< required; BENCHMARK.json's run_seconds
  bool trace = false;
  std::string work_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ndpbench: %s\nusage: ndpbench --workload W --seed S "
               "--seconds N --trace 0|1 [--work-dir DIR]\nworkloads:",
               msg);
  for (const workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds >= 1 && o.seconds <= 3600)) {
        usage("--seconds takes a number from 1 to 3600");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds == 0) usage("--seconds is required");
  return o;
}

// Host-speed probe.  On a shared host the same code runs up to ~30% slower
// for minutes at a time, on every CPU at once, with CPU time growing as
// much as wall time: contention on the physical host, not descheduling.
// That drift is larger than the regressions the bounds are meant to catch,
// so the gated times are divided by host.slowdown = (median probe time over
// the run) / kProbeReferenceS.  The constant only fixes the unit: the times
// read as seconds on an idle reference host, and on any host a parent and a
// change are scaled alike.  The probe is a dependent integer chain in this
// file, so no library change can move it.  The unscaled medians are printed
// as wall.*; README.md gives paired spreads of both.
constexpr int kProbeIters = 10'000'000;
/// Best-of-three probe time on an idle 4-vCPU Intel Xeon (family 6 model
/// 143) KVM guest, GCC 12 -O3 -march=native.
constexpr double kProbeReferenceS = 0.02125;

volatile std::uint64_t g_probe_seed = 0x9E3779B97F4A7C15ull;
volatile std::uint64_t g_probe_sink = 0;

/// Best of three runs of the probe chain, in seconds.
double probe_s() {
  double best = 1e9;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = clock_type::now();
    std::uint64_t x = g_probe_seed, acc = 0;
    for (int i = 0; i < kProbeIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x * 0xD6E8FEB86659FD93ull;
    }
    g_probe_sink = acc;
    best = std::min(best, seconds_between(t0, clock_type::now()));
  }
  return best;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Per-layer metrics that come from a traced iteration's spans.
void add_span_metrics(const iteration& it, const tracer& tr, unsigned threads,
                      std::map<std::string, double>& m) {
  const std::vector<span> spans = tr.spans();
  const double loop_s = total_s(spans, "sim.loop");
  m["sim.loop_s"] = loop_s;
  if (loop_s > 0) m["sim.events_per_s"] = static_cast<double>(it.events) / loop_s;
  if (m["net.hops"] > 0) m["net.ns_per_hop"] = loop_s * 1e9 / m["net.hops"];
  m["topo.blueprint_s"] = total_s(spans, "topo.blueprint");
  m["topo.instantiate_s"] = total_s(spans, "topo.instantiate");
  m["harness.flow_create_s"] = total_s(spans, "harness.flow_create");
  const std::vector<double> jobs = durations_s(spans, "harness.job");
  if (!jobs.empty()) {
    m["harness.job_s_p50"] = quantile(jobs, 0.5);
    m["harness.job_s_p99"] = quantile(jobs, 0.99);
    const double campaign = total_s(spans, "harness.campaign");
    double busy = 0;
    for (const double d : jobs) busy += d;
    if (campaign > 0) m["harness.worker_busy_frac"] = busy / (threads * campaign);
  }

  const ledger l = attribute(spans, tr.ns(it.t_first_event), tr.ns(it.t_end));
  for (const auto& [name, s] : l.name_s) m["self." + layer_of(name) + "_s"] += s;
  if (const auto c = l.name_s.find("harness.campaign"); c != l.name_s.end()) {
    m["harness.campaign_self_s"] = c->second;
  }
  m["trace.run_s"] = l.window_s;
  m["trace.unattributed_s"] = l.unattributed_s;
}

void print_metric(const char* name, double value, const char* unit) {
  std::printf("%-28s %.10g %s\n", name, value, unit);
}

template <std::size_t N>
void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const metric_def (&defs)[N],
                const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < N; ++i) {
    const auto v = values.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name,
                v == values.end() ? 0.0 : v->second, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  const auto w = std::find_if(
      workloads().begin(), workloads().end(),
      [&o](const workload& x) { return o.workload == x.name; });
  if (w == workloads().end()) usage(("unknown workload " + o.workload).c_str());

  context cx;
  cx.seed = o.seed;
  cx.work_dir = o.work_dir;
  cx.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  std::vector<double> run_u, setup_u, cpu_u, run_t, probes;
  std::map<std::string, double> layer;  // last traced iteration
  std::vector<span> last_spans;
  std::vector<std::string> failures;
  std::uint64_t ops = 0, ops_failed = 0, events = 0, digest = 0;

  const auto t_start = clock_type::now();
  probes.push_back(probe_s());
  // Set-up-only repetitions before every iteration: at least three, and
  // until they have taken 5% of the run so far.  Some workloads set up in
  // well under a millisecond, so these give the setup_s median its samples;
  // spread over the run like the iterations, they see the same host speed
  // (a burst of them at the start would see only its first seconds).  They
  // also warm up each iteration.
  double setup_only_s = 0;
  const auto setup_reps = [&] {
    context c = cx;
    c.setup_only = true;
    for (int r = 0;; ++r) {
      const auto t0 = clock_type::now();
      if (r >= 3 && setup_only_s > 0.05 * seconds_between(t_start, t0)) break;
      iteration it;
      w->run(c, it);
      setup_u.push_back(it.setup_s());
      setup_only_s += seconds_between(t0, clock_type::now());
    }
  };
  std::vector<double> walls;
  for (int i = 0;; ++i) {
    setup_reps();
    const bool traced = o.trace && i % 2 == 1;
    tracer tr;
    context c = cx;
    c.tr = traced ? &tr : nullptr;
    iteration it;
    const double cpu0 = cpu_seconds();
    const auto w0 = clock_type::now();
    try {
      w->run(c, it);
    } catch (const ndpsim::simulation_error& e) {
      failures.push_back(std::string("simulation_error: ") + e.what());
      ops = std::max<std::uint64_t>(it.ops, 1);
      ops_failed = std::max<std::uint64_t>(ops - it.ops_done, 1);
      break;
    }
    const double cpu = cpu_seconds() - cpu0;
    probes.push_back(probe_s());
    const double wall = seconds_between(w0, clock_type::now());
    std::fprintf(stderr,
                 "iteration %d%s setup_s %.6f run_s %.6f cpu_s %.6f probe_s "
                 "%.6f\n",
                 i, traced ? " traced" : "", it.setup_s(), it.run_s(), cpu,
                 probes.back());

    ops_failed = it.ops - std::min(it.ops, it.ops_done);
    if (i == 0) {
      ops = it.ops;
      events = it.events;
      digest = it.digest;
    } else if (it.ops != ops || it.events != events || it.digest != digest) {
      it.failures.push_back("iteration " + std::to_string(i) +
                            (traced ? " (traced)" : "") +
                            " differs from iteration 0 at the same seed");
    }
    if (!it.failures.empty()) {
      failures = it.failures;
      ops_failed = std::max<std::uint64_t>(ops_failed, 1);
      break;
    }
    if (traced) {
      run_t.push_back(it.run_s());
      layer = it.layer;
      add_span_metrics(it, tr, cx.threads, layer);
      last_spans = tr.spans();
    } else {
      run_u.push_back(it.run_s());
      setup_u.push_back(it.setup_s());
      cpu_u.push_back(cpu);
    }

    // Stop once the next iteration, as long as the median one so far,
    // would end past the budget.
    walls.push_back(wall);
    const bool enough = o.trace ? !run_u.empty() && !run_t.empty()
                                : run_u.size() >= 3;
    const double elapsed = seconds_between(t_start, clock_type::now());
    if (enough && elapsed + median(walls) > o.seconds) break;
  }

  const bool correct = failures.empty();
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("workload %s seed %llu iterations %zu untraced %zu traced\n",
              w->name, static_cast<unsigned long long>(o.seed), run_u.size(),
              run_t.size());
  print_metric("ops", static_cast<double>(ops), "count");
  print_metric("ops_failed", static_cast<double>(ops_failed), "count");

  if (!o.trace) {
    const double slowdown = median(probes) / kProbeReferenceS;
    std::map<std::string, double> e2e;
    e2e["run_s"] = median(run_u) / slowdown;
    e2e["cpu_s"] = median(cpu_u) / slowdown;
    e2e["setup_s"] = median(setup_u) / slowdown;
    e2e["peak_rss_mb"] = peak_rss_mb();
    for (const metric_def& d : kEndToEnd) print_metric(d.name, e2e[d.name], d.unit);
    print_metric("host.slowdown", slowdown, "ratio");
    print_metric("wall.run_s", median(run_u), "s");
    print_metric("wall.cpu_s", median(cpu_u), "s");
    print_metric("wall.setup_s", median(setup_u), "s");
    print_metric("setup_samples", static_cast<double>(setup_u.size()), "count");
    print_metric("sim.events", static_cast<double>(events), "count");
    std::printf("%-28s %016llx hash\n", "out.digest",
                static_cast<unsigned long long>(digest));
    std::fflush(stdout);
    print_json(correct, std::max<std::uint64_t>(ops, 1), ops_failed, kEndToEnd,
               e2e);
    return correct ? 0 : 1;
  }

  // The digest as a JSON-safe integer: its low 52 bits.
  layer["out.digest"] = static_cast<double>(digest & ((1ull << 52) - 1));
  if (!run_u.empty() && !run_t.empty()) {
    layer["trace.overhead"] = median(run_t) / median(run_u);
  }
  if (!last_spans.empty()) {
    const std::filesystem::path dir =
        std::filesystem::path(o.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (std::string(w->name) + "-s" +
                                     std::to_string(o.seed) + ".json"))
                                 .string();
    if (write_chrome_trace(path, last_spans)) {
      std::printf("trace_file %s\n", path.c_str());
    }
  }
  for (const metric_def& d : kPerLayer) {
    const auto v = layer.find(d.name);
    print_metric(d.name, v == layer.end() ? 0.0 : v->second, d.unit);
  }
  std::fflush(stdout);
  print_json(correct, std::max<std::uint64_t>(ops, 1), ops_failed, kPerLayer,
             layer);
  return correct ? 0 : 1;
}
