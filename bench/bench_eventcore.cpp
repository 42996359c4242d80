// Event-core performance benchmark: tracks simulator events/sec from PR to
// PR (written to BENCH_eventcore.json at the repo root by scripts/bench.sh).
//
// Nine sections, in run order (the JSON keeps its own key order):
//  1. Scheduler — the indexed min-heap with cancellable handles under the
//     simulator's dominant timer pattern (an RTO deadline pushed out on
//     every ACK, i.e. far more reschedules than genuine expirations), and
//     self-rescheduling tick dispatch with no cancellations.
//  2. Flow churn — closed-loop RPC churn with the flow recycler vs the
//     no-recycle baseline (every completed flow kept forever, the
//     pre-lifecycle behaviour): sustained flows/sec and peak RSS.
//  3. Campaign engine — an incast sweep scaled to hundreds of jobs through
//     campaign_runner: jobs/sec of the streaming spill path, live RSS at
//     half vs full campaign length (bounded-memory claim) vs the
//     keep-every-outcome baseline, and the interrupted-resume merged
//     result's byte-identity with the uninterrupted run's.
//  4. Representative figure runs — a small NDP incast, k=4/k=16/k=32 NDP
//     permutations, and k=8 DCQCN and pHost permutations, reporting
//     end-to-end events/sec of the full simulator.
//  5. Flat dispatch — virtual vs type-indexed flat dispatch on one seeded
//     k=16 NDP permutation, with an identical-event-sequence check.
//  6. Telemetry — the same k=16 run with no plane vs every slot armed plus
//     the epoch collector.
//  7. Packet path — alloc, WRR enqueue/dequeue, 4 forwarding hops and sink
//     on `packet` and `packet_pool`, over a live set past L2.
//  8. Route setup — routes/sec and resident bytes of the interned path
//     table under closed-loop flow churn.
//  9. Fabric setup — building the shared blueprint once vs stamping a
//     per-env instance out of it and resolving its route set.
//
// `--quick` reduces repetition counts (best-of rounds) for CI smoke runs
// while keeping every measured workload identical, so reported rates stay
// comparable with full runs.  All gated rates are computed over process CPU
// time, not wall-clock — the simulator is single-threaded and CPU time is
// what reproduces on shared machines.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness/campaign_runner.h"
#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "harness/parallel_runner.h"
#include "net/fifo_queues.h"
#include "sim/eventlist.h"
#include "topo/path_table.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU seconds (user + system) consumed by this process so far.  The churn
/// comparison times with this instead of wall-clock: the simulator is
/// single-threaded, and on shared machines wall time includes whatever else
/// is running — CPU time is the metric that reproduces.  Falls back to
/// wall-clock where getrusage is unavailable.
double cpu_seconds_now() {
#if defined(__linux__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set size of this process (0 where unsupported).
std::size_t current_rss_bytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0;
  long rss = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &rss);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(rss) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

// --------------------------------------------------------------------------
// Section 1: scheduler microbenchmark.
// --------------------------------------------------------------------------

/// do_next_event target for the timer-churn microbench: counts fires.
class counting_source final : public event_source {
 public:
  explicit counting_source(event_list& el) : event_source(el) {}
  void do_next_event() override { ++fires; }
  std::uint64_t fires = 0;
  timer_handle rto;
};

// The simulator's dominant timer pattern, at the paper's rates: each flow's
// RTO backstop moves on every ACK.  A 9KB jumbogram at 10Gb/s means one ACK
// per flow every ~7.2us while the RTO sits 1ms out — so a deadline is moved
// ~139 times before it could ever fire.  With 512 concurrent flows the
// global inter-ACK gap is ~14ns of virtual time.
struct churn_params {
  std::size_t flows = 512;
  std::uint64_t acks = 2'000'000;   ///< reschedules (one per simulated ACK)
  simtime_t rto = from_ms(1.0);     ///< deadline distance
  simtime_t tick = from_ns(14);     ///< virtual time advanced per ACK
};

/// xorshift: a fixed flow sequence with zero RNG overhead.
struct tiny_rng {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// RTO churn: one handle per flow, moved in place.
double churn_new(const churn_params& p, std::uint64_t* fires_out) {
  event_list el;
  std::deque<counting_source> flows;  // deque: event_source is pinned in place
  for (std::size_t i = 0; i < p.flows; ++i) flows.emplace_back(el);
  tiny_rng rng;
  const double c0 = cpu_seconds_now();
  simtime_t vnow = 0;
  for (std::uint64_t op = 0; op < p.acks; ++op) {
    vnow += p.tick;
    el.run_until(vnow);
    counting_source& f = flows[rng.next() % p.flows];
    el.reschedule(f.rto, f, vnow + p.rto);
  }
  el.run_until(vnow + p.rto + 1);
  const double dt = cpu_seconds_now() - c0;
  std::uint64_t fires = 0;
  for (const auto& f : flows) fires += f.fires;
  *fires_out = fires;
  return dt;
}

/// Self-rescheduling tick sources (pipe/pacer-style FIFO traffic): measures
/// raw dispatch + heap throughput with no cancellations.
double ticks_new(std::size_t sources, std::uint64_t total_events) {
  event_list el;
  struct tick_source final : event_source {
    tick_source(event_list& el, simtime_t period)
        : event_source(el), period_(period) {}
    void do_next_event() override {
      timer_ = events().schedule_in(*this, period_);
    }
    simtime_t period_;
    timer_handle timer_;
  };
  std::deque<tick_source> srcs;  // deque: event_source is pinned in place
  for (std::size_t i = 0; i < sources; ++i) {
    // Coprime-ish periods plus a shared one: a mix of unique timestamps and
    // same-timestamp bursts, like synchronized incast arrivals.
    srcs.emplace_back(el, from_ns(100 + 10 * (i % 16)));
    el.schedule_at(srcs.back(), from_ns(100));
  }
  const double c0 = cpu_seconds_now();
  std::uint64_t n = 0;
  while (n < total_events) n += el.run_next_batch();
  return cpu_seconds_now() - c0;
}

// --------------------------------------------------------------------------
// Section 2: flow-churn benchmark (lifecycle engine vs no-recycle baseline).
// --------------------------------------------------------------------------

struct churn_phase_result {
  double cpu_sec = 0;              ///< process CPU time consumed by the phase
  std::uint64_t completed = 0;
  std::size_t flow_slots = 0;      ///< factory flow-table size at the end
  std::size_t table_bytes = 0;     ///< path_table resident bytes at the end
  std::size_t rss_growth = 0;      ///< process RSS growth over the phase
  std::size_t rss_after = 0;       ///< absolute RSS when the phase ended
  [[nodiscard]] double flows_per_sec() const {
    return cpu_sec > 0 ? static_cast<double>(completed) / cpu_sec : 0;
  }
};

struct churn_workload {
  unsigned k = 8;
  // Enough turnovers that the baseline's accumulation (demux entries,
  // subset arrays, live transport objects) costs it measurably, not just
  // in memory: at 64 generations the no-recycle side drags ~4k dead flows.
  std::uint64_t generations = 64;
  std::uint64_t bytes = 90'000;  ///< ~10 packets per RPC
  std::size_t senders = 64;      ///< closed-loop incast population
};

/// Closed-loop RPC churn: `senders` hosts keep one 90KB request each in
/// flight towards host 0 (an RPC server), replacing every completed flow
/// immediately, for `generations` turnovers of the population.  This is the
/// demux-heavy pattern: every flow terminates at the same receiving host.
churn_phase_result churn_with_recycler(const churn_workload& w) {
  churn_phase_result res;
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(21, w.k, fp);
  std::uint64_t cursor = 0;
  const std::size_t n_senders =
      std::min<std::size_t>(w.senders, bed->topo->n_hosts() - 1);
  auto pick_pair = [&cursor, n_senders](sim_env&) {
    const std::uint32_t src =
        static_cast<std::uint32_t>(1 + cursor++ % n_senders);
    return std::make_pair(src, std::uint32_t{0});
  };
  const std::uint64_t target = w.generations * n_senders;
  recycler_config rc;
  rc.proto = protocol::ndp;
  rc.opts.bytes = w.bytes;
  rc.opts.max_paths = 8;
  rc.linger = from_us(200);
  rc.max_starts = target;  // same flow count as the baseline side
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick_pair);

  const std::size_t rss0 = current_rss_bytes();
  const double c0 = cpu_seconds_now();
  rec.start(n_senders);
  while (rec.fcts().completed() < target && bed->env.events.run_next_event()) {
  }
  rec.stop();
  res.cpu_sec = cpu_seconds_now() - c0;
  res.completed = rec.fcts().completed();
  res.flow_slots = bed->flows->flows().size();
  res.table_bytes = bed->topo->paths().resident_bytes();
  res.rss_after = current_rss_bytes();
  res.rss_growth = res.rss_after > rss0 ? res.rss_after - rss0 : 0;
  return res;
}

/// The same workload with the pre-lifecycle behaviour: completed flows are
/// never destroyed — transports, demux bindings and subset arrays all
/// accumulate for the run's lifetime.
churn_phase_result churn_baseline(const churn_workload& w) {
  churn_phase_result res;
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(21, w.k, fp);
  const std::size_t n_senders =
      std::min<std::size_t>(w.senders, bed->topo->n_hosts() - 1);
  const std::uint64_t target = w.generations * n_senders;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  flow_options base;
  base.bytes = w.bytes;
  base.max_paths = 8;
  std::function<void(std::uint32_t)> start_one =
      [&](std::uint32_t src) {
        flow_options o = base;
        o.start = bed->env.now();
        flow& f = bed->flows->create(protocol::ndp, src, 0, o);
        ++started;
        f.on_complete([&, src] {
          ++completed;
          if (started < target) start_one(src);
        });
      };

  const std::size_t rss0 = current_rss_bytes();
  const double c0 = cpu_seconds_now();
  for (std::size_t s = 0; s < n_senders; ++s) {
    start_one(static_cast<std::uint32_t>(1 + s));
  }
  while (completed < target && bed->env.events.run_next_event()) {
  }
  res.cpu_sec = cpu_seconds_now() - c0;
  res.completed = completed;
  res.flow_slots = bed->flows->flows().size();
  res.table_bytes = bed->topo->paths().resident_bytes();
  res.rss_after = current_rss_bytes();
  res.rss_growth = res.rss_after > rss0 ? res.rss_after - rss0 : 0;
  return res;
}

/// The k=4 NDP incast behind the incast figure and every campaign job.
/// With `bp == nullptr` it builds a private fabric (blueprint + instance);
/// with a blueprint it only stamps out its per-env instance — the
/// structure/state split.
void incast_body(const experiment_config& cfg, sim_env& env,
                 fct_recorder& fcts,
                 const std::shared_ptr<const fabric_blueprint>* bp = nullptr) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  std::unique_ptr<testbed> bed;
  if (bp != nullptr) {
    bed = std::make_unique<testbed>(env, *bp, fp);
  } else {
    fat_tree_config tc;
    tc.k = 4;
    bed = std::make_unique<testbed>(env, tc, fp);
  }
  std::vector<std::uint32_t> senders;
  for (std::uint32_t h = 1; h < bed->topo->n_hosts(); ++h) senders.push_back(h);
  flow_options o;
  const std::uint64_t bytes = 270'000 + 9'000 * static_cast<std::uint64_t>(
                                            cfg.param);
  const auto res = run_incast(*bed, protocol::ndp, senders, 0, bytes, o,
                              from_ms(200));
  (void)res;
  for (const auto& f : bed->flows->flows()) {
    if (f == nullptr) continue;  // destroyed flows leave recycled holes
    fcts.flow_started(f->id, f->start_time, f->bytes);
    if (f->complete()) fcts.flow_completed(f->id, f->completion_time());
  }
}

// --------------------------------------------------------------------------
// Section 3: campaign engine — long sweeps in bounded memory.
// --------------------------------------------------------------------------

/// Return free heap pages to the kernel so a current_rss_bytes() reading
/// approximates LIVE bytes.  Without this the campaign comparison below is
/// blind: the flow-churn section has already grown the allocator arena, and
/// every campaign phase would be served from its free lists without moving
/// RSS at all.  No-op off glibc (the readings get noisier, the gates keep
/// their slack).
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::size_t trimmed_rss_bytes() {
  trim_heap();
  return current_rss_bytes();
}

/// Campaign section result: streaming throughput, RSS under three retention
/// policies, and the resume-identity flag (the campaign engine's contract).
struct campaign_bench_result {
  std::size_t jobs = 0;
  double stream_cpu_sec = 0;
  std::uint64_t flows = 0;          ///< completed flows across the full sweep
  std::size_t rss_half = 0;         ///< live RSS after an N/2-job campaign
  std::size_t rss_stream = 0;       ///< live RSS after the full N-job campaign
  std::size_t rss_keepall = 0;      ///< live RSS with all N outcomes held
  bool flows_match = false;         ///< streaming and keep-all agree on flows
  bool resume_identical = false;    ///< interrupted+resumed == uninterrupted
  bool rss_flat = false;            ///< doubling campaign length ~= free
  double jobs_per_sec() const {
    return stream_cpu_sec > 0 ? static_cast<double>(jobs) / stream_cpu_sec
                              : 0;
  }
};

/// The campaign engine bench: the incast figure's body scaled to hundreds
/// of configs, run three ways.  (1) streaming through
/// campaign_runner at half and full length — the bounded-memory claim is
/// that RSS tracks ACTIVE jobs, not campaign length, so the two runs must
/// land at about the same live RSS; (2) the keep-everything baseline
/// (parallel_runner::run holding every outcome's recorder + telemetry plane
/// live at once, the pre-campaign behaviour), which must sit strictly above
/// the streaming high-water; (3) a fresh campaign interrupted at half the
/// jobs and resumed from its journal, whose merged result file must be
/// byte-identical to the uninterrupted run's.  Quick mode runs a shorter
/// grid; per-job work is identical, so jobs/sec stays comparable.
campaign_bench_result run_campaign_bench(bool quick) {
  namespace fs = std::filesystem;
  campaign_bench_result r;
  r.jobs = quick ? 128 : 512;
  // Per process, so concurrent runs never share a journal.
  const fs::path base = fs::temp_directory_path() /
                        ("ndpsim_bench_campaign-" + std::to_string(::getpid()));
  fs::remove_all(base);

  // One shared blueprint (structure resident once); a per-job telemetry
  // plane attached before the testbed stamps out its instance — the per-job
  // state a keep-everything sweep is stuck holding.
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bp = make_fat_tree_blueprint(4, fp);
  const auto body = [&bp](const experiment_config& cfg, sim_env& env,
                          fct_recorder& fcts) {
    env.telemetry =
        std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
    incast_body(cfg, env, fcts, &bp);
  };

  std::vector<experiment_config> grid;
  grid.reserve(r.jobs);
  for (std::size_t i = 0; i < r.jobs; ++i) {
    grid.push_back(experiment_config{
        .name = "campaign_incast_" + std::to_string(i),
        .seed = static_cast<std::uint64_t>(9000 + i),
        .param = static_cast<std::int64_t>(i % 4)});
  }

  // Phase 1: streaming campaigns, half length then full length.
  bool half_ok = false;
  {
    const std::vector<experiment_config> half_grid(
        grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(r.jobs / 2));
    campaign_config cc;
    cc.dir = (base / "half").string();
    const campaign_result half = campaign_runner(cc).run(half_grid, body);
    half_ok = half.completed;
  }
  r.rss_half = trimmed_rss_bytes();

  campaign_config full_cc;
  full_cc.dir = (base / "full").string();
  const double c0 = cpu_seconds_now();
  const campaign_result full = campaign_runner(full_cc).run(grid, body);
  r.stream_cpu_sec = cpu_seconds_now() - c0;
  r.rss_stream = trimmed_rss_bytes();
  for (const fct_summary& s : full.summaries) r.flows += s.flows;

  // Phase 2: keep-everything baseline, measured while the outcome vector is
  // alive (recorders + planes for every job at once).
  std::uint64_t keepall_flows = 0;
  {
    const parallel_runner pool(0);
    const std::vector<experiment_outcome> all = pool.run(grid, body);
    r.rss_keepall = trimmed_rss_bytes();
    for (const experiment_outcome& o : all) keepall_flows += o.fcts.completed();
  }
  r.flows_match = full.completed && half_ok && keepall_flows == r.flows;

  // Phase 3: resume identity.  Interrupt at half the jobs (journal survives,
  // process state dropped), resume, byte-compare the merged files.
  campaign_config rcc;
  rcc.dir = (base / "resume").string();
  rcc.max_jobs = r.jobs / 2;
  const campaign_result interrupted = campaign_runner(rcc).run(grid, body);
  rcc.max_jobs = 0;
  rcc.resume = true;
  const campaign_result resumed = campaign_runner(rcc).run(grid, body);
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string merged_full = slurp(full.merged_path);
  const std::string merged_resumed = slurp(resumed.merged_path);
  r.resume_identical = !interrupted.completed && resumed.completed &&
                       resumed.jobs_skipped > 0 &&
                       resumed.journal_rejects == 0 &&
                       resumed.spill_rejects == 0 && !merged_full.empty() &&
                       merged_full == merged_resumed;

  // Flat = the extra RSS from doubling the campaign is small both absolutely
  // and next to what keep-all retains (the summary map and page-granularity
  // noise are all that may grow).
  const std::size_t grew =
      r.rss_stream > r.rss_half ? r.rss_stream - r.rss_half : 0;
  const std::size_t retained =
      r.rss_keepall > r.rss_stream ? r.rss_keepall - r.rss_stream : 0;
  r.rss_flat = grew <= std::max<std::size_t>(8u << 20, retained / 4);

  fs::remove_all(base);
  return r;
}

// --------------------------------------------------------------------------
// Section 4: figure-level runs.
// --------------------------------------------------------------------------

struct figure_stats {
  std::string name;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;   ///< events_per_sec denominator (load-immune)
  double events_per_sec = 0;
  std::size_t completed = 0;
  /// Set only by goodput-window figures: their flows are unbounded and
  /// never complete, so mean goodput over the window is the work measure.
  std::optional<double> mean_gbps;
};

/// Shared epilogue: events/sec over process CPU time, not wall — on a busy
/// machine wall time counts everyone else's work and the committed-baseline
/// comparison in CI would flag phantom regressions.
void finish_figure(figure_stats& st, std::uint64_t events, double wall,
                   double cpu) {
  st.events = events;
  st.wall_seconds = wall;
  st.cpu_seconds = cpu;
  st.events_per_sec =
      cpu > 0 ? static_cast<double>(events) / cpu : 0;
}

figure_stats run_incast_figure() {
  figure_stats st;
  st.name = "incast_ndp_k4_15to1";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  experiment_config cfg{.name = st.name, .seed = 42, .param = 0};
  sim_env env(cfg.seed);
  fct_recorder fcts;
  incast_body(cfg, env, fcts);
  finish_figure(st, env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.completed = fcts.completed();
  return st;
}

figure_stats run_permutation_figure() {
  figure_stats st;
  st.name = "permutation_ndp_k4";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(7, 4, fp);
  flow_options o;
  const auto res = run_permutation(*bed, protocol::ndp, o, from_ms(1),
                                   from_ms(4));
  finish_figure(st, bed->env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.mean_gbps = res.mean_gbps;
  return st;
}

/// Large-k scale scenario unlocked by the interned path table: a 1024-host
/// permutation (64 shared paths per inter-pod pair) that the per-flow route
/// model made needlessly expensive to even set up.
figure_stats run_permutation_k16_figure() {
  figure_stats st;
  st.name = "permutation_ndp_k16";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(7, 16, fp);
  flow_options o;
  const auto res = run_permutation(*bed, protocol::ndp, o, from_ms(0.5),
                                   from_ms(1.5));
  finish_figure(st, bed->env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.mean_gbps = res.mean_gbps;
  std::printf("  k16: %zu interned paths, %.1f MB shared route state\n",
              bed->topo->paths().interned_paths(),
              static_cast<double>(bed->topo->paths().resident_bytes()) / 1e6);
  return st;
}

/// The k=32 (8192-host) scale scenario unlocked by the blueprint/instance
/// split: fabric construction no longer formats ~100k names or heap-builds
/// per-env hop arrays, so the permutation becomes a routine figure run.
/// Multipath rides the flow factory's automatic large-fabric cap (16 paths
/// per pair for >= 4096-host fabrics — the full 256-path inter-pod sets
/// would spend the run interning routes no flow ever uses).
figure_stats run_permutation_k32_figure() {
  figure_stats st;
  st.name = "permutation_ndp_k32";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(7, 32, fp);
  flow_options o;
  const auto res = run_permutation(*bed, protocol::ndp, o, from_us(150),
                                   from_us(350));
  finish_figure(st, bed->env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.mean_gbps = res.mean_gbps;
  std::printf("  k32: %zu hosts, %zu interned paths, %.1f MB shared "
              "structure, %.1f MB per-env table\n",
              bed->topo->n_hosts(), bed->topo->paths().interned_paths(),
              static_cast<double>(bed->topo->blueprint()->resident_bytes()) /
                  1e6,
              static_cast<double>(bed->topo->paths().resident_bytes()) / 1e6);
  return st;
}

/// Figure-level DCQCN at scale (ROADMAP open item: only the NDP/TCP
/// families were exercised past toy sizes): a k=8 (128-host) permutation on
/// the PFC-lossless RED-marking fabric.  Finite 900KB flows run to
/// completion, mirroring the pHost figure — the earlier goodput-window
/// variant used unbounded flows, so `flows_completed` was structurally zero
/// and the figure could silently degenerate into measuring nothing (caught
/// by the zero-work check in main now).
figure_stats run_permutation_dcqcn_k8() {
  figure_stats st;
  st.name = "permutation_dcqcn_k8";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  fabric_params fp;
  fp.proto = protocol::dcqcn;
  auto bed = make_fat_tree_testbed(7, 8, fp);
  const auto matrix = permutation_matrix(bed->env.rng, bed->topo->n_hosts());
  std::vector<flow*> flows;
  flow_options o;
  o.bytes = 900'000;
  for (std::uint32_t h = 0; h < bed->topo->n_hosts(); ++h) {
    flow_options fo = o;
    fo.start = static_cast<simtime_t>(bed->env.rand_below(1000)) * kNanosecond;
    flows.push_back(&bed->flows->create(protocol::dcqcn, h, matrix[h], fo));
  }
  run_until_complete(bed->env, flows, from_ms(200));
  finish_figure(st, bed->env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.completed = bed->flows->completed_count();
  return st;
}

/// Figure-level pHost at scale: a k=8 permutation of finite 900KB flows over
/// its shallow (8-packet) drop-tail fabric, run to completion.
figure_stats run_phost_k8() {
  figure_stats st;
  st.name = "permutation_phost_k8";
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpu_seconds_now();
  fabric_params fp;
  fp.proto = protocol::phost;
  auto bed = make_fat_tree_testbed(7, 8, fp);
  const auto matrix = permutation_matrix(bed->env.rng, bed->topo->n_hosts());
  std::vector<flow*> flows;
  flow_options o;
  o.bytes = 900'000;
  for (std::uint32_t h = 0; h < bed->topo->n_hosts(); ++h) {
    flow_options fo = o;
    fo.start = static_cast<simtime_t>(bed->env.rand_below(1000)) * kNanosecond;
    flows.push_back(&bed->flows->create(protocol::phost, h, matrix[h], fo));
  }
  run_until_complete(bed->env, flows, from_ms(200));
  finish_figure(st, bed->env.events.events_processed(), seconds_since(t0),
                cpu_seconds_now() - c0);
  st.completed = bed->flows->completed_count();
  return st;
}

// --------------------------------------------------------------------------
// Sections 5 and 6 time one seeded k=16 NDP permutation (seed 7, 100us
// warmup + 300us measured) in different modes; both build it here, so the
// mode is the only difference between any two of their timings.  k=16
// (1024 hosts), not k=8: flat dispatch pays off through run length (events
// per handler call), and runs only get long once thousands of pipes/queues
// share lanes — a k=8 fabric averages ~1.4 events/run, which measures the
// batching overhead rather than the batching.
// --------------------------------------------------------------------------

struct k16_permutation_run {
  std::uint64_t events = 0;  ///< collector's own firings already excluded
  double cpu_sec = 0;
  event_list::dispatch_counters stats;
  std::uint64_t epochs = 0;  ///< collector snapshots (telemetry only)
  std::uint64_t armed = 0;   ///< armed telemetry slots (telemetry only)
};

k16_permutation_run run_k16_permutation(bool flat, bool telemetry) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  sim_env env(7);
  auto bp = make_fat_tree_blueprint(16, fp);
  if (telemetry) {
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  }
  testbed bed(env, bp, fp);
  env.events.set_flat_dispatch(flat);
  std::unique_ptr<telemetry_collector> col;
  if (telemetry) {
    // 20us epochs sample the ~400us run ~20 times — dense enough to be a
    // real collector workload without snapshot copies dominating the
    // measured overhead (each epoch copies the full counter plane).
    col = std::make_unique<telemetry_collector>(env.events, *env.telemetry,
                                                from_us(20));
    col->start();
  }
  flow_options o;
  const double c0 = cpu_seconds_now();
  const auto res =
      run_permutation(bed, protocol::ndp, o, from_us(100), from_us(300));
  (void)res;
  k16_permutation_run out;
  out.cpu_sec = cpu_seconds_now() - c0;
  out.events = env.events.events_processed();
  out.stats = env.events.dispatch_stats();
  if (col != nullptr) {
    out.epochs = col->recorded_epochs();
    // Every snapshot after the t=0 baseline was a timer event; subtracting
    // them makes the off-vs-on identity check exact.
    out.events -= col->recorded_epochs() - 1;
    for (std::uint32_t s = 0; s < env.telemetry->n_slots(); ++s) {
      if (env.telemetry->info(s).armed) ++out.armed;
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Section 5: flat-dispatch microbenchmark — the k=16 run twice, once with
// type-indexed flat dispatch disabled (every event goes through the
// per-candidate virtual path) and once with it enabled (pipe expiries and
// queue service completions batch through their registered flat handlers).
// The ordering contract says the two modes must dispatch the exact same
// event sequence, so the event counts must match bitwise; the FCT-level
// identity is asserted by the flat_dispatch ctest — here the counts gate
// catches gross divergence and the timings quantify what flat dispatch is
// worth on a real fabric.
// --------------------------------------------------------------------------

struct flat_dispatch_result {
  std::uint64_t events = 0;        ///< events per mode (identical by contract)
  double virtual_sec = 0;          ///< best-of cpu seconds, flat dispatch off
  double flat_sec = 0;             ///< best-of cpu seconds, flat dispatch on
  std::uint64_t flat_runs = 0;
  std::uint64_t flat_events = 0;
  std::uint64_t heap_events = 0;
  bool identical = false;
  [[nodiscard]] double speedup() const { return virtual_sec / flat_sec; }
  [[nodiscard]] double avg_run() const {
    return flat_runs > 0
               ? static_cast<double>(flat_events) / static_cast<double>(flat_runs)
               : 0;
  }
};

flat_dispatch_result run_flat_dispatch_bench(bool quick) {
  flat_dispatch_result r;
  k16_permutation_run v = run_k16_permutation(false, false);
  k16_permutation_run fl = run_k16_permutation(true, false);
  // Enough rounds that quick-mode candidates converge near the committed
  // full-run min: the CI regression gate divides this section's rate by the
  // committed one, and a best-of-2 quick reading sits 15-25% above the
  // best-of-5 floor often enough to flake a 20% tolerance.
  for (int round = 1; round < (quick ? 4 : 5); ++round) {
    v.cpu_sec = std::min(v.cpu_sec, run_k16_permutation(false, false).cpu_sec);
    fl.cpu_sec = std::min(fl.cpu_sec, run_k16_permutation(true, false).cpu_sec);
  }
  r.events = fl.events;
  r.virtual_sec = v.cpu_sec;
  r.flat_sec = fl.cpu_sec;
  r.flat_runs = fl.stats.flat_runs;
  r.flat_events = fl.stats.flat_events;
  r.heap_events = fl.stats.heap_events;
  r.identical = v.events == fl.events;
  return r;
}

// --------------------------------------------------------------------------
// Section 6: telemetry overhead — the k=16 run (flat dispatch on, the
// production configuration) twice: with no telemetry plane on the env
// (every component's `tele_` stays null — the "one never-taken branch per
// site" tier, which must be within noise of a build without the hooks) and
// with every slot armed plus the epoch collector sampling at 20us (the "one
// indexed increment per counted event" tier, gated at <=10% end-to-end).
// Telemetry is observational-only, so the two modes must process the
// identical transport event sequence — the collector's own timer firings
// are the one legitimate count difference and are subtracted before the
// identity check; any other divergence is FATAL.
// --------------------------------------------------------------------------

struct telemetry_bench_result {
  std::uint64_t events = 0;  ///< transport events per mode (identical)
  double off_sec = 0;        ///< best-of cpu seconds, no plane attached
  double on_sec = 0;         ///< best-of cpu seconds, armed + collector
  std::uint64_t armed_slots = 0;
  std::uint64_t collector_epochs = 0;  ///< snapshots taken in the on mode
  bool identical = false;
  [[nodiscard]] double overhead() const { return on_sec / off_sec; }
};

telemetry_bench_result run_telemetry_bench(bool quick) {
  // More best-of rounds than the other sections: the overhead gate divides
  // two ~0.3s timings, so a single slow round on a shared machine shows up
  // as percentage points of fake overhead.  The min converges slowly — an
  // isolated best-of-8 measures ~5% where best-of-3 reads 11-14% on an idle
  // machine — so even the quick tier gets 5 interleaved rounds.
  k16_permutation_run off = run_k16_permutation(true, false);
  k16_permutation_run on = run_k16_permutation(true, true);
  for (int round = 1; round < (quick ? 5 : 8); ++round) {
    off.cpu_sec =
        std::min(off.cpu_sec, run_k16_permutation(true, false).cpu_sec);
    on.cpu_sec = std::min(on.cpu_sec, run_k16_permutation(true, true).cpu_sec);
  }
  telemetry_bench_result r;
  r.events = off.events;
  r.off_sec = off.cpu_sec;
  r.on_sec = on.cpu_sec;
  r.armed_slots = on.armed;
  r.collector_epochs = on.epochs;
  r.identical = off.events == on.events;
  return r;
}

// --------------------------------------------------------------------------
// Section 7: packet-path microbenchmark (hot/cold layout + slab pool).
// --------------------------------------------------------------------------
//
// Replays the per-event packet path in isolation — alloc, enqueue at a WRR
// port, dequeue (the front packet's size read), a 4-hop forwarding chain
// (host -> ToR -> agg -> core, the per-hop touches a fat-tree path makes),
// sink receive, release — over a live set large enough to fall out of L2,
// on the simulator's own `packet` (per-hop fields in the first cache line,
// 64-byte aligned) and slab-backed LIFO index `packet_pool`.

namespace packet_path {

struct packet_path_result {
  std::uint64_t ops = 0;
  std::size_t live_packets = 0;
  double cpu_sec = 0;  ///< best-of cpu seconds for `ops`
};

/// One op = dequeue at a WRR port, advance one hop; a packet that has done
/// all `kForwardHops` hops is sunk (read the delivery fields, write an ack
/// field) and replaced by a freshly allocated one, keeping the live set
/// constant.  Four forwarding hops per delivery mirrors a fat-tree path
/// (host/ToR/agg/core queues): the per-hop touch stays on the packet's hot
/// line, the sink touch reaches its cold fields.
/// Releases go through a deferred FIFO buffer, as in the simulator where a
/// packet dies at the receiver long after younger packets were allocated —
/// this is what ages the LIFO free list away from address order.
double drive(packet_pool& pool, std::uint64_t ops, std::size_t live,
             std::uint64_t* checksum) {
  constexpr std::size_t kPorts = 256;  // power of two
  constexpr std::size_t kDefer = 4096;
  constexpr std::uint32_t kForwardHops = 4;  // fat-tree path depth
  struct port {
    ring_fifo<packet*> data;
    ring_fifo<packet*> hdr;
    unsigned hdrs_since_data = 0;
  };
  std::vector<port> ports(kPorts);
  std::vector<packet*> defer;
  defer.reserve(kDefer);
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto fill_and_enqueue = [&](std::uint64_t seq) {
    packet* p = pool.alloc();
    const bool header = (seq % 10) == 0;
    p->type = header ? packet_type::ndp_ack : packet_type::ndp_data;
    p->seqno = seq;
    p->flow_id = static_cast<std::uint32_t>(seq);
    p->size_bytes = header ? 64 : 9000;
    p->payload_bytes = header ? 0 : 8936;
    p->next_hop = 0;
    port& pt = ports[next_rand() & (kPorts - 1)];
    (header ? pt.hdr : pt.data).push_back(p);
  };

  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < live; ++i) fill_and_enqueue(++seq);

  std::uint64_t sum = 0;
  const double c0 = cpu_seconds_now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    // WRR dequeue (10:1 headers over data, the ndp_queue discipline),
    // probing from a random port — the front packet read is the cache miss
    // the layout is built around.
    std::size_t pi = next_rand() & (kPorts - 1);
    packet* p = nullptr;
    for (std::size_t probe = 0; probe < kPorts; ++probe, pi = (pi + 1) & (kPorts - 1)) {
      port& pt = ports[pi];
      const bool have_data = !pt.data.empty();
      if (!pt.hdr.empty() &&
          (!have_data || pt.hdrs_since_data < 10)) {
        p = pt.hdr.front();
        pt.hdr.pop_front();
        if (have_data) ++pt.hdrs_since_data;
        break;
      }
      if (have_data) {
        p = pt.data.front();
        pt.data.pop_front();
        pt.hdrs_since_data = 0;
        break;
      }
    }
    if (p == nullptr) continue;  // cannot happen with live >> ports
    sum += p->size_bytes;        // serialization-time read
    if (p->next_hop + 1 < kForwardHops) {
      // Forwarding hop: per-hop header touch, then re-enqueue downstream.
      p->next_hop += 1;
      p->enqueue_time = static_cast<simtime_t>(op);
      port& pt = ports[next_rand() & (kPorts - 1)];
      (p->payload_bytes == 0 ? pt.hdr : pt.data).push_back(p);
      continue;
    }
    // Last hop: terminal receive (delivery fields), deferred release.
    sum += p->seqno + p->flow_id + p->payload_bytes;
    p->ackno = p->seqno;  // cold-line write, as the sink's ACK build does
    defer.push_back(p);
    if (defer.size() == kDefer) {
      for (packet* d : defer) pool.release(d);
      defer.clear();
    }
    fill_and_enqueue(++seq);
  }
  const double dt = cpu_seconds_now() - c0;
  *checksum = sum;
  return dt;
}

packet_path_result run_packet_path(bool quick) {
  packet_path_result r;
  r.live_packets = 1 << 16;  // 64k live packets: ~8 MB, past L2
  r.ops = quick ? 4'000'000 : 20'000'000;
  // Warm pass, then measure against the SAME pool: the warm pass faults the
  // slab pages in and ages the free list into the state it sustains under
  // churn.  Best-of rounds: each round is a single ~1s timing in full runs,
  // so one external load blip would otherwise land in the gated rate.
  r.cpu_sec = 1e9;
  std::uint64_t first_sum = 0;
  for (int round = 0; round < (quick ? 2 : 3); ++round) {
    std::uint64_t sum = 0;
    packet_pool pool;
    std::uint64_t warm_sum = 0;
    (void)drive(pool, r.ops / 8, r.live_packets, &warm_sum);
    r.cpu_sec = std::min(r.cpu_sec, drive(pool, r.ops, r.live_packets, &sum));
    // Same rng stream, same sizes: every round must do identical work.
    if (round == 0) first_sum = sum;
    NDPSIM_ASSERT_MSG(sum == first_sum,
                      "packet_path rounds diverged — bench bug");
  }
  return r;
}

}  // namespace packet_path

// --------------------------------------------------------------------------
// Section 8: route-setup microbenchmark.
// --------------------------------------------------------------------------

struct route_setup_result {
  double interned_sec = 0;
  std::uint64_t route_pairs = 0;     ///< route pairs handed to flows
  std::size_t interned_bytes = 0;    ///< resident shared-route bytes (table)
};

/// Closed-loop flow churn on a k=8 FatTree permutation: `kRounds` generations
/// of flows between the same host pairs, every flow taking the full multipath
/// set (the default).  The interned table builds each (src, dst, path) once
/// and hands every later generation the same routes.
route_setup_result run_route_setup() {
  constexpr unsigned kK = 8;
  constexpr int kRounds = 10;
  route_setup_result res;

  sim_env env(1);
  fat_tree_config tc;
  tc.k = kK;
  fat_tree ft(env, tc,
              [&env](link_level, std::size_t,
                     linkspeed_bps rate) -> std::unique_ptr<queue_base> {
                return std::make_unique<drop_tail_queue>(env, rate, 100 * 9000);
              });
  const auto matrix = permutation_matrix(env.rng, ft.n_hosts());
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint32_t h = 0; h < ft.n_hosts(); ++h) {
      const path_set ps = ft.paths().all(h, matrix[h]);
      res.route_pairs += ps.size();
    }
  }
  res.interned_sec = seconds_since(t0);
  res.interned_bytes = ft.paths().resident_bytes();
  return res;
}

// --------------------------------------------------------------------------
// Section 9: fabric-setup microbenchmark (structure/state split).
// --------------------------------------------------------------------------

struct fabric_setup_result {
  unsigned k = 0;
  std::size_t hosts = 0;
  std::size_t links = 0;
  double blueprint_sec = 0;    ///< build the shared immutable blueprint once
  double instantiate_sec = 0;  ///< stamp one per-env instance out of it
  double route_warm_sec = 0;   ///< resolve a permutation's route set (warm)
  std::size_t blueprint_bytes = 0;  ///< shared, counted once per sweep
  std::size_t instance_bytes = 0;   ///< per env
  std::size_t table_bytes = 0;      ///< per-env path table
};

/// Blueprint build vs per-env instantiation: build the shared blueprint
/// once, then per round construct a `fabric_instance` over it and resolve
/// one permutation's route set at `kMaxPaths` paths per pair through the
/// interned structural table.
fabric_setup_result run_fabric_setup(unsigned k, int rounds) {
  constexpr std::size_t kMaxPaths = 16;
  fabric_setup_result res;
  res.k = k;
  fabric_params fp;
  fp.proto = protocol::ndp;

  // The shared blueprint build (timed once; it happens once per sweep).
  auto tbp = std::chrono::steady_clock::now();
  auto bp = make_fat_tree_blueprint(k, fp);
  res.blueprint_sec = seconds_since(tbp);
  res.hosts = bp->n_hosts();
  res.links = bp->links().size();

  // A fixed pseudo-permutation partner (h -> reversed id).
  const auto partner = [n = res.hosts](std::uint32_t h) {
    return static_cast<std::uint32_t>(n - 1 - h);
  };

  for (int round = 0; round < rounds; ++round) {
    sim_env env(1);
    const auto t0 = std::chrono::steady_clock::now();
    fat_tree ft(env, bp, make_queue_factory(env, fp));
    const double inst = seconds_since(t0);
    std::vector<const route*> storage;
    const auto t1 = std::chrono::steady_clock::now();
    for (std::uint32_t h = 0; h < res.hosts; ++h) {
      const std::uint32_t d = partner(h);
      if (d == h) continue;
      const path_set ps = ft.paths().sample(env, h, d, kMaxPaths, storage);
      (void)ps;
    }
    const double warm = seconds_since(t1);
    if (round == 0 || inst + warm < res.instantiate_sec + res.route_warm_sec) {
      res.instantiate_sec = inst;
      res.route_warm_sec = warm;
    }
    if (round == 0) {
      res.instance_bytes = ft.resident_bytes();
      res.table_bytes = ft.paths().resident_bytes();
    }
  }
  res.blueprint_bytes = bp->resident_bytes();
  return res;
}

}  // namespace
}  // namespace ndpsim

int main(int argc, char** argv) {
  using namespace ndpsim;
  const char* out_path = "BENCH_eventcore.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  if (quick) std::printf("quick mode: reduced iteration counts\n");

  // ---- Section 1: scheduler microbenchmark.  Not scaled down in quick
  // mode: it is sub-second at full counts, and shorter runs under-amortize
  // heap/cache warmup, which would make the reported rates incomparable
  // with full runs (the property the CI smoke check relies on).
  churn_params cp;
  std::uint64_t new_fires = 0;
  // Warm, then measure (one warm round is enough at these sizes).
  {
    churn_params warm = cp;
    warm.acks = 100'000;
    std::uint64_t tmp = 0;
    (void)churn_new(warm, &tmp);
  }
  // Best-of-2 for the same reason as the tick section below: single ~0.1s
  // timings under a CI rate gate.
  double t_new = churn_new(cp, &new_fires);
  t_new = std::min(t_new, churn_new(cp, &new_fires));
  const double churn_new_ops = static_cast<double>(cp.acks) / t_new;
  std::printf("timer churn (%zu flows, %llu acks):\n", cp.flows,
              static_cast<unsigned long long>(cp.acks));
  std::printf("  %.2fs  %.1fM timer-ops/s  (%llu genuine fires)\n\n", t_new,
              churn_new_ops / 1e6, static_cast<unsigned long long>(new_fires));

  // Best-of-2: each run is a single ~0.5s timing, and the CI regression
  // gate compares this rate against the committed baseline's, so a one-off
  // load blip flakes the 20% tolerance.
  const std::uint64_t tick_events = 4'000'000;
  const double tick_new_s =
      std::min(ticks_new(4096, tick_events), ticks_new(4096, tick_events));
  const double tick_new_eps = static_cast<double>(tick_events) / tick_new_s;
  std::printf("tick dispatch (4096 sources, %lluM events):\n",
              static_cast<unsigned long long>(tick_events / 1'000'000));
  std::printf("  %.2fs  %.1fM events/s\n\n", tick_new_s, tick_new_eps / 1e6);

  // ---- Section 2: flow-churn benchmark.  The recycling phase runs FIRST:
  // process RSS only ever grows, so the ordering makes "recycling's RSS
  // high-water < baseline's" a conservative comparison (the baseline starts
  // from the recycler's peak and still has to climb past it).  A discarded
  // warmup round first faults in the allocator pages both phases reuse, so
  // whichever phase runs first doesn't eat the warmup cost alone.
  // Quick mode keeps the gated workload identical (64 generations) and
  // saves time by running fewer best-of rounds — reduced repetitions keep
  // the reported rate comparable with full runs; a reduced workload would
  // not (under-amortized warmup systematically lowers it).
  churn_workload cw;
  {
    churn_workload warm = cw;
    warm.generations = 1;
    (void)churn_with_recycler(warm);
    (void)churn_baseline(warm);
  }
  // Interleaved best-of-3 pairs: at ~60ms per phase, scheduler jitter alone
  // swings a single run ~10%, so each side keeps its best timing.  The RSS
  // metrics come from the FIRST pair only — later rounds reuse pages the
  // first already faulted in, which would understate the baseline's growth.
  churn_phase_result cr = churn_with_recycler(cw);
  churn_phase_result cb = churn_baseline(cw);
  for (int round = 1; round < (quick ? 2 : 3); ++round) {
    const churn_phase_result r2 = churn_with_recycler(cw);
    const churn_phase_result b2 = churn_baseline(cw);
    if (r2.cpu_sec < cr.cpu_sec) cr.cpu_sec = r2.cpu_sec;
    if (b2.cpu_sec < cb.cpu_sec) cb.cpu_sec = b2.cpu_sec;
  }
  std::printf(
      "flow churn (k=%u, %zu-deep closed-loop incast, %llu generations):\n",
      cw.k, cw.senders, static_cast<unsigned long long>(cw.generations));
  std::printf(
      "  recycling : %.3f cpu-s  %6.0f flows/s  %5zu flow slots  %.2f MB "
      "table  rss +%.1f MB (%.1f MB total)\n",
      cr.cpu_sec, cr.flows_per_sec(), cr.flow_slots,
      static_cast<double>(cr.table_bytes) / 1e6,
      static_cast<double>(cr.rss_growth) / 1e6,
      static_cast<double>(cr.rss_after) / 1e6);
  std::printf(
      "  baseline  : %.3f cpu-s  %6.0f flows/s  %5zu flow slots  %.2f MB "
      "table  rss +%.1f MB (%.1f MB total)\n",
      cb.cpu_sec, cb.flows_per_sec(), cb.flow_slots,
      static_cast<double>(cb.table_bytes) / 1e6,
      static_cast<double>(cb.rss_growth) / 1e6,
      static_cast<double>(cb.rss_after) / 1e6);

  // ---- Section 3: campaign engine (streaming vs keep-all RSS, resume
  // identity).  Runs AFTER the flow-churn section, whose recycling-vs-
  // baseline RSS comparison our keep-all phase would otherwise poison, and
  // BEFORE the figure runs: the campaign RSS gates compare live-heap
  // readings a few MB apart, and taking them after the k=32 figure's
  // ~300 MB excursion would bury the signal in allocator noise.
  const campaign_bench_result camp = run_campaign_bench(quick);
  std::printf(
      "\ncampaign engine (%zu-job incast sweep, shared blueprint, "
      "per-job telemetry plane):\n"
      "  streaming : %.2f cpu-s  %.0f jobs/s  %llu flows   live rss %.1f MB "
      "(half-length campaign %.1f MB — %s)\n"
      "  keep-all  : live rss %.1f MB with every outcome held (%s streaming "
      "high-water)\n"
      "  resume    : interrupted at %zu jobs, resumed from journal, merged "
      "results %s\n",
      camp.jobs, camp.stream_cpu_sec, camp.jobs_per_sec(),
      static_cast<unsigned long long>(camp.flows),
      static_cast<double>(camp.rss_stream) / 1e6,
      static_cast<double>(camp.rss_half) / 1e6,
      camp.rss_flat ? "flat" : "NOT FLAT",
      static_cast<double>(camp.rss_keepall) / 1e6,
      camp.rss_keepall > camp.rss_stream ? "above" : "NOT ABOVE",
      camp.jobs / 2,
      camp.resume_identical ? "BYTE-IDENTICAL" : "DIVERGED");
  if (!camp.resume_identical) {
    std::fprintf(stderr,
                 "FATAL: campaign resume produced a different merged result\n");
    return 1;
  }
  if (!camp.flows_match) {
    std::fprintf(stderr,
                 "FATAL: streaming campaign and keep-all sweep disagree on "
                 "completed flows\n");
    return 1;
  }

  // ---- Section 4: representative figure runs.  Not scaled down in quick
  // mode (each is seconds at worst): identical workloads are what keeps
  // quick-run events/sec comparable with the committed full-run values.
  // Runs BEFORE the route-setup and fabric-setup sections (emitted in JSON
  // order regardless): those build and free whole fabrics, k=32 included
  // in full runs, and the k=32 figure is the gated headline number, so it
  // gets the clean heap.  Still AFTER the flow-churn section, whose
  // recycling-vs-baseline RSS peak comparison the k=32 figure's ~300 MB
  // high-water would poison.
  std::vector<figure_stats> figures;
  figures.push_back(run_incast_figure());
  figures.push_back(run_permutation_figure());
  // The 8192-host run the blueprint split unlocks; full runs only (it is
  // the one figure whose wall-clock would defeat the point of --quick).
  // First of the large figures — cleanest heap for the gated number.
  if (!quick) figures.push_back(run_permutation_k32_figure());
  figures.push_back(run_permutation_k16_figure());
  figures.push_back(run_permutation_dcqcn_k8());
  figures.push_back(run_phost_k8());
  for (const auto& st : figures) {
    std::printf("%-24s %8.2fs  %9llu events  %.2fM events/s  ",
                st.name.c_str(), st.wall_seconds,
                static_cast<unsigned long long>(st.events),
                st.events_per_sec / 1e6);
    if (st.mean_gbps) {
      std::printf("(%.2f Gb/s mean goodput)\n", *st.mean_gbps);
    } else {
      std::printf("(%zu flows)\n", st.completed);
    }
  }
  // A figure that did no work measured nothing — its events/sec is the rate
  // of a degenerate workload and every downstream gate on it is
  // meaningless.  Finite-flow figures must complete a flow; goodput-window
  // figures (unbounded flows that never complete) must deliver goodput.
  // Fail the whole bench run loudly (no JSON is written, so the CI smoke
  // gate trips too) instead of recording a hollow number.
  for (const auto& st : figures) {
    const bool idle = st.mean_gbps ? !(*st.mean_gbps > 0) : st.completed == 0;
    if (idle) {
      std::fprintf(stderr,
                   "FATAL: figure %s %s — refusing to record a degenerate "
                   "run\n",
                   st.name.c_str(),
                   st.mean_gbps ? "delivered zero goodput"
                                : "completed zero flows");
      return 1;
    }
  }

  // ---- Section 5: virtual vs flat dispatch on the identical workload.
  const flat_dispatch_result fd = run_flat_dispatch_bench(quick);
  std::printf(
      "\nflat dispatch (k=16 NDP permutation, %llu events/mode):\n"
      "  virtual : %.3f cpu-s  %.2fM events/s\n"
      "  flat    : %.3f cpu-s  %.2fM events/s  (%llu runs, avg %.1f "
      "events/run, %llu heap events)\n"
      "  speedup: %.2fx, event counts %s\n",
      static_cast<unsigned long long>(fd.events), fd.virtual_sec,
      static_cast<double>(fd.events) / fd.virtual_sec / 1e6, fd.flat_sec,
      static_cast<double>(fd.events) / fd.flat_sec / 1e6,
      static_cast<unsigned long long>(fd.flat_runs), fd.avg_run(),
      static_cast<unsigned long long>(fd.heap_events), fd.speedup(),
      fd.identical ? "IDENTICAL" : "DIVERGED");
  if (!fd.identical) {
    std::fprintf(stderr,
                 "FATAL: flat dispatch diverged from virtual dispatch\n");
    return 1;
  }

  // ---- Section 6: telemetry off vs on, on the same workload as section 5.
  const telemetry_bench_result tb = run_telemetry_bench(quick);
  std::printf(
      "\ntelemetry (k=16 NDP permutation, flat dispatch, %llu events/mode):\n"
      "  off : %.3f cpu-s  %.2fM events/s\n"
      "  on  : %.3f cpu-s  %.2fM events/s  (%llu slots armed, %llu epochs "
      "sampled)\n"
      "  overhead: %.1f%%, transport event counts %s\n",
      static_cast<unsigned long long>(tb.events), tb.off_sec,
      static_cast<double>(tb.events) / tb.off_sec / 1e6, tb.on_sec,
      static_cast<double>(tb.events) / tb.on_sec / 1e6,
      static_cast<unsigned long long>(tb.armed_slots),
      static_cast<unsigned long long>(tb.collector_epochs),
      (tb.overhead() - 1.0) * 100.0, tb.identical ? "IDENTICAL" : "DIVERGED");
  if (!tb.identical) {
    std::fprintf(stderr,
                 "FATAL: telemetry perturbed the transport event sequence\n");
    return 1;
  }

  // ---- Section 7: packet-path microbenchmark.  Runs after the figures: it
  // allocates ~8 MB of packet slabs per round, and the k=32 headline figure
  // gets the clean heap.
  const packet_path::packet_path_result pp = packet_path::run_packet_path(quick);
  std::printf(
      "\npacket path (4-hop WRR chain, %lluM ops, %zu live packets):\n"
      "  hot/cold layout + slab pool : %.3f cpu-s  %.2fM ops/s\n",
      static_cast<unsigned long long>(pp.ops / 1'000'000), pp.live_packets,
      pp.cpu_sec, static_cast<double>(pp.ops) / pp.cpu_sec / 1e6);

  // ---- Section 8: route-setup microbenchmark.  Best-of rounds: the
  // table finishes in ~1ms, where allocation jitter alone spans >30% run
  // to run; keeping the best timing is what makes the routes/sec rate
  // stable enough for the CI regression gate to watch it.
  route_setup_result rs = run_route_setup();
  for (int round = 1; round < (quick ? 2 : 3); ++round) {
    rs.interned_sec = std::min(rs.interned_sec, run_route_setup().interned_sec);
  }
  std::printf(
      "\nroute setup (k=8 permutation, 10 rounds of flow churn, %llu route "
      "pairs):\n",
      static_cast<unsigned long long>(rs.route_pairs));
  std::printf("  interned : %.3fs  %.2fM routes/s  %.1f MB resident\n",
              rs.interned_sec,
              static_cast<double>(rs.route_pairs) / rs.interned_sec / 1e6,
              static_cast<double>(rs.interned_bytes) / 1e6);

  // ---- Section 9: fabric-setup microbenchmark (structure/state split).
  // k=16 always (fast enough for the CI smoke run to gate); k=32 — the
  // 8192-host fabric the split exists for — only in full runs.  Runs after
  // the flow-churn section for the same RSS-poisoning reason: its k=32
  // phases allocate (and free) tens of megabytes.
  std::vector<fabric_setup_result> fabric_setups;
  fabric_setups.push_back(run_fabric_setup(16, quick ? 2 : 3));
  if (!quick) fabric_setups.push_back(run_fabric_setup(32, 2));
  std::printf("\n");
  for (const auto& f : fabric_setups) {
    std::printf(
        "fabric setup (k=%u, %zu hosts, %zu links, 16-path permutation "
        "route set):\n",
        f.k, f.hosts, f.links);
    std::printf(
        "  blueprint: %.3fs once (%.1f MB shared); instantiate %.3fs + warm "
        "routes %.3fs, %.1f MB per env\n",
        f.blueprint_sec, static_cast<double>(f.blueprint_bytes) / 1e6,
        f.instantiate_sec, f.route_warm_sec,
        static_cast<double>(f.instance_bytes + f.table_bytes) / 1e6);
  }
  std::printf("\n");

  // ---- Emit JSON.
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"generated_by\": \"bench_eventcore\",\n");
  std::fprintf(f, "  \"host_threads\": %u,\n", parallel_runner(0).threads());
  std::fprintf(f, "  \"scheduler_microbench\": {\n");
  std::fprintf(f,
               "    \"timer_churn\": {\"ops\": %llu, \"new_ops_per_sec\": "
               "%.0f},\n",
               static_cast<unsigned long long>(cp.acks), churn_new_ops);
  std::fprintf(f,
               "    \"tick_dispatch\": {\"events\": %llu, "
               "\"new_events_per_sec\": %.0f}\n",
               static_cast<unsigned long long>(tick_events), tick_new_eps);
  std::fprintf(f, "  },\n");
  std::fprintf(
      f,
      "  \"route_setup\": {\"route_pairs\": %llu, \"interned_routes_per_sec\": "
      "%.0f, \"interned_resident_bytes\": %zu},\n",
      static_cast<unsigned long long>(rs.route_pairs),
      static_cast<double>(rs.route_pairs) / rs.interned_sec,
      rs.interned_bytes);
  std::fprintf(f, "  \"fabric_setup\": [\n");
  for (std::size_t i = 0; i < fabric_setups.size(); ++i) {
    const auto& fb = fabric_setups[i];
    std::fprintf(
        f,
        "    {\"k\": %u, \"hosts\": %zu, \"links\": %zu, "
        "\"blueprint_seconds\": %.6f, \"instantiate_seconds\": %.6f, "
        "\"route_warm_seconds\": %.6f, \"instantiates_per_sec\": %.2f, "
        "\"blueprint_resident_bytes\": %zu, \"instance_resident_bytes\": %zu, "
        "\"table_resident_bytes\": %zu}%s\n",
        fb.k, fb.hosts, fb.links, fb.blueprint_sec, fb.instantiate_sec,
        fb.route_warm_sec, 1.0 / fb.instantiate_sec, fb.blueprint_bytes,
        fb.instance_bytes, fb.table_bytes,
        i + 1 < fabric_setups.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"flow_churn\": {\n");
  std::fprintf(f, "    \"k\": %u,\n", cw.k);
  std::fprintf(f, "    \"population\": %zu,\n", cw.senders);
  std::fprintf(f, "    \"generations\": %llu,\n",
               static_cast<unsigned long long>(cw.generations));
  std::fprintf(f,
               "    \"recycling\": {\"flows_completed\": %llu, "
               "\"flows_per_sec\": %.0f, \"flow_slots\": %zu, "
               "\"table_resident_bytes\": %zu, \"rss_growth_bytes\": %zu, "
               "\"peak_rss_bytes\": %zu},\n",
               static_cast<unsigned long long>(cr.completed),
               cr.flows_per_sec(), cr.flow_slots, cr.table_bytes,
               cr.rss_growth, cr.rss_after);
  std::fprintf(f,
               "    \"baseline\": {\"flows_completed\": %llu, "
               "\"flows_per_sec\": %.0f, \"flow_slots\": %zu, "
               "\"table_resident_bytes\": %zu, \"rss_growth_bytes\": %zu, "
               "\"peak_rss_bytes\": %zu},\n",
               static_cast<unsigned long long>(cb.completed),
               cb.flows_per_sec(), cb.flow_slots, cb.table_bytes,
               cb.rss_growth, cb.rss_after);
  std::fprintf(f, "    \"speedup\": %.3f,\n",
               cb.flows_per_sec() > 0
                   ? cr.flows_per_sec() / cb.flows_per_sec()
                   : 0.0);
  std::fprintf(f, "    \"peak_rss_lower\": %s\n",
               cr.rss_after < cb.rss_after ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"figures\": [\n");
  bool first = true;
  for (const auto& st : figures) {
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"events\": %llu, "
                 "\"wall_seconds\": %.4f, \"cpu_seconds\": %.4f, "
                 "\"events_per_sec\": %.0f, ",
                 first ? "" : ",\n", st.name.c_str(),
                 static_cast<unsigned long long>(st.events), st.wall_seconds,
                 st.cpu_seconds, st.events_per_sec);
    if (st.mean_gbps) {
      std::fprintf(f, "\"mean_gbps\": %.4f}", *st.mean_gbps);
    } else {
      std::fprintf(f, "\"flows_completed\": %zu}", st.completed);
    }
    first = false;
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(
      f,
      "  \"flat_dispatch\": {\"events\": %llu, "
      "\"virtual_events_per_sec\": %.0f, \"flat_events_per_sec\": %.0f, "
      "\"speedup\": %.3f, \"flat_runs\": %llu, \"avg_run_length\": %.2f, "
      "\"heap_events\": %llu, \"identical_events\": %s},\n",
      static_cast<unsigned long long>(fd.events),
      static_cast<double>(fd.events) / fd.virtual_sec,
      static_cast<double>(fd.events) / fd.flat_sec, fd.speedup(),
      static_cast<unsigned long long>(fd.flat_runs), fd.avg_run(),
      static_cast<unsigned long long>(fd.heap_events),
      fd.identical ? "true" : "false");
  std::fprintf(
      f,
      "  \"telemetry\": {\"events\": %llu, \"off_events_per_sec\": %.0f, "
      "\"on_events_per_sec\": %.0f, \"overhead\": %.4f, \"armed_slots\": "
      "%llu, \"collector_epochs\": %llu, \"identical_events\": %s},\n",
      static_cast<unsigned long long>(tb.events),
      static_cast<double>(tb.events) / tb.off_sec,
      static_cast<double>(tb.events) / tb.on_sec, tb.overhead(),
      static_cast<unsigned long long>(tb.armed_slots),
      static_cast<unsigned long long>(tb.collector_epochs),
      tb.identical ? "true" : "false");
  std::fprintf(
      f,
      "  \"packet_path\": {\"ops\": %llu, \"live_packets\": %zu, "
      "\"new_ops_per_sec\": %.0f},\n",
      static_cast<unsigned long long>(pp.ops), pp.live_packets,
      static_cast<double>(pp.ops) / pp.cpu_sec);
  std::fprintf(f, "  \"campaign\": {\n");
  std::fprintf(f, "    \"jobs\": %zu,\n", camp.jobs);
  std::fprintf(f, "    \"jobs_per_sec\": %.2f,\n", camp.jobs_per_sec());
  std::fprintf(f, "    \"flows\": %llu,\n",
               static_cast<unsigned long long>(camp.flows));
  std::fprintf(f, "    \"rss_half_bytes\": %zu,\n", camp.rss_half);
  std::fprintf(f, "    \"rss_stream_bytes\": %zu,\n", camp.rss_stream);
  std::fprintf(f, "    \"rss_keepall_bytes\": %zu,\n", camp.rss_keepall);
  std::fprintf(f, "    \"rss_below_baseline\": %s,\n",
               camp.rss_stream < camp.rss_keepall ? "true" : "false");
  std::fprintf(f, "    \"rss_flat\": %s,\n", camp.rss_flat ? "true" : "false");
  std::fprintf(f, "    \"resume_identical\": %s\n",
               camp.resume_identical ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // Advisory warnings: they never fail the run.  CI's gates live in
  // scripts/check_bench.py.
  if (cr.flows_per_sec() < cb.flows_per_sec()) {
    std::fprintf(stderr,
                 "WARNING: recycling churn %.0f flows/s below the no-recycle "
                 "baseline's %.0f\n",
                 cr.flows_per_sec(), cb.flows_per_sec());
  }
  if (camp.rss_stream >= camp.rss_keepall) {
    std::fprintf(stderr,
                 "WARNING: streaming campaign RSS not below the keep-all "
                 "baseline's\n");
  }
  if (!camp.rss_flat) {
    std::fprintf(stderr,
                 "WARNING: campaign RSS grew with campaign length (not "
                 "bounded by active jobs)\n");
  }
  if (fd.speedup() < 1.2) {
    std::fprintf(stderr,
                 "WARNING: flat dispatch speedup %.2fx below the 1.2x "
                 "target\n",
                 fd.speedup());
  }
  if (tb.overhead() > 1.10) {
    std::fprintf(stderr,
                 "WARNING: telemetry-on overhead %.1f%% above the 10%% "
                 "budget\n",
                 (tb.overhead() - 1.0) * 100.0);
  }
  // Unarmed telemetry is one never-taken branch per site: its rate must sit
  // within noise of section 5's flat run of the very same workload (same
  // binary, same process — a real regression here means the hooks cost
  // something even when off).  The bar is 10%, not tighter: the two
  // sections time the identical configuration minutes apart and
  // cross-section drift alone spans ~7% on a shared machine, while a hook
  // that acquires real unarmed cost lands far above 10%.
  const double fd_flat_eps = static_cast<double>(fd.events) / fd.flat_sec;
  const double tb_off_eps = static_cast<double>(tb.events) / tb.off_sec;
  if (tb_off_eps < 0.90 * fd_flat_eps) {
    std::fprintf(stderr,
                 "WARNING: telemetry-off rate %.2fM ev/s more than 10%% below "
                 "the flat-dispatch run's %.2fM ev/s\n",
                 tb_off_eps / 1e6, fd_flat_eps / 1e6);
  }
  return 0;
}
