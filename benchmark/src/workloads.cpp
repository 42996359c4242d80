#include "workloads.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <unistd.h>
#include <unordered_map>

#include "harness/campaign_runner.h"
#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "sim/telemetry.h"
#include "topo/path_table.h"
#include "workload/size_distributions.h"
#include "workload/traffic_matrix.h"

namespace bench {

using namespace ndpsim;

namespace {

// ------------------------------------------------------------- shared parts

/// A k-ary FatTree testbed in `env`: the blueprint, then the instance and
/// flow factory stamped from it.  The env stays with the caller so that
/// teardown can be traced layer by layer.
std::unique_ptr<testbed> build_testbed(const context& cx, sim_env& env,
                                       unsigned k, const fabric_params& fp) {
  std::shared_ptr<const fabric_blueprint> bp;
  {
    scope s(cx.tr, "topo.blueprint");
    bp = make_fat_tree_blueprint(k, fp);
  }
  // Traced runs arm the telemetry plane; it must exist before the fabric
  // is stamped out.
  if (cx.tr != nullptr) {
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  }
  scope s(cx.tr, "topo.instantiate");
  return std::make_unique<testbed>(env, std::move(bp), fp);
}

void run_slice(const context& cx, sim_env& env, simtime_t horizon) {
  scope s(cx.tr, "sim.loop");
  env.events.run_until(horizon);
}

std::pair<std::uint32_t, std::uint32_t> uniform_pair(sim_env& env,
                                                     std::uint32_t n_hosts) {
  const auto src = static_cast<std::uint32_t>(env.rand_below(n_hosts));
  auto dst = static_cast<std::uint32_t>(env.rand_below(n_hosts - 1));
  if (dst >= src) ++dst;
  return {src, dst};
}

using record = std::array<std::uint64_t, 5>;

std::uint64_t digest_of(std::vector<record> recs) {
  std::sort(recs.begin(), recs.end());
  return fnv1a_64(recs.data(), recs.size() * sizeof(record));
}

void report_fcts(const sample_set& fct_us, iteration& it) {
  if (fct_us.empty()) return;
  it.layer["out.fct_p50_us"] = fct_us.quantile(0.5);
  it.layer["out.fct_p99_us"] = fct_us.quantile(0.99);
  it.layer["out.fct_max_us"] = fct_us.max();
}

/// Sender-side NDP counters summed over flows.
struct ndp_totals {
  std::uint64_t sent = 0, nack = 0, bounce = 0, timeout = 0, payload = 0;

  void add(const ndp_source& s) {
    const ndp_source_stats& st = s.stats();
    sent += st.packets_sent;
    nack += st.rtx_after_nack;
    bounce += st.rtx_after_bounce;
    timeout += st.rtx_after_timeout;
    payload += s.total_packets();
  }
  void report(iteration& it) const {
    it.layer["ndp.data_pkts_sent"] = static_cast<double>(sent);
    it.layer["ndp.rtx_nack"] = static_cast<double>(nack);
    it.layer["ndp.rtx_bounce"] = static_cast<double>(bounce);
    it.layer["ndp.rtx_timeout"] = static_cast<double>(timeout);
    if (sent > 0) {
      it.layer["ndp.useful_ratio"] =
          static_cast<double>(payload) / static_cast<double>(sent);
    }
  }
};

void report_telemetry(const telemetry_counters& q, const telemetry_counters& p,
                      const telemetry_counters& d, bool tcp_family,
                      iteration& it) {
  it.layer["net.queue_enq_pkts"] = static_cast<double>(q.enq_pkts);
  it.layer["net.queue_drop_pkts"] = static_cast<double>(q.drop_pkts);
  it.layer["net.queue_trim_pkts"] = static_cast<double>(q.trim_pkts);
  it.layer["net.queue_bounce_pkts"] = static_cast<double>(q.bounce_pkts);
  it.layer["net.queue_mark_pkts"] = static_cast<double>(q.mark_pkts);
  it.layer["net.pipe_pkts"] = static_cast<double>(p.enq_pkts);
  it.layer["net.demux_stale_drops"] = static_cast<double>(d.stale_drops);
  // Not printed: the divisor main uses for net.ns_per_hop.
  it.layer["net.hops"] = static_cast<double>(q.deq_pkts + p.deq_pkts);
  if (tcp_family && q.enq_pkts > 0) {
    const auto enq = static_cast<double>(q.enq_pkts);
    it.layer["tcp.mark_ratio"] = static_cast<double>(q.mark_pkts) / enq;
    it.layer["tcp.drop_ratio"] = static_cast<double>(q.drop_pkts) / enq;
  }
}

/// The conservation laws of tests/test_telemetry.cpp, per slot, on a
/// drained fabric (nothing resident in any queue or pipe).
void check_conservation(const telemetry_plane& tp, iteration& it) {
  bool queues = true, pipes = true, demuxes = true;
  for (std::uint32_t slot = 0; slot < tp.n_slots(); ++slot) {
    const auto& info = tp.info(slot);
    if (!info.armed) continue;
    const telemetry_counters c = tp.counters(slot);
    switch (info.kind) {
      case telemetry_kind::queue:
        queues &= c.enq_pkts == c.deq_pkts + c.drop_pkts + c.bounce_pkts;
        break;
      case telemetry_kind::pipe:
        pipes &= c.enq_pkts == c.deq_pkts;
        break;
      case telemetry_kind::demux:
        demuxes &= c.enq_pkts == c.deq_pkts + c.stale_drops;
        break;
      default:
        break;
    }
  }
  it.check(queues, "telemetry: queue enq == deq + drop + bounce");
  it.check(pipes, "telemetry: pipe enq == deq");
  it.check(demuxes, "telemetry: demux enq == deq + stale");
}

/// Destroy flows, fabric and env in dependency order; sets t_end.
void teardown(const context& cx, std::unique_ptr<sim_env>& env,
              std::unique_ptr<testbed>& tb, iteration& it) {
  {
    scope s(cx.tr, "harness.teardown");
    tb->flows.reset();
  }
  {
    scope s(cx.tr, "topo.teardown");
    tb.reset();
  }
  {
    scope s(cx.tr, "net.teardown");
    env.reset();
  }
  it.t_end = clock_type::now();
}

/// Record what a drained single-fabric run leaves behind, check it, and
/// tear the fabric down (traced, inside the run window).
void finish_fabric(const context& cx, std::unique_ptr<sim_env>& envp,
                   std::unique_ptr<testbed>& tb, bool tcp_family,
                   iteration& it) {
  sim_env& env = *envp;
  it.events = env.events.events_processed();
  const auto& ds = env.events.dispatch_stats();
  it.layer["sim.events"] = static_cast<double>(it.events);
  it.layer["sim.heap_events"] = static_cast<double>(ds.heap_events);
  it.layer["sim.lane_events"] = static_cast<double>(ds.lane_events);
  it.layer["sim.flat_runs"] = static_cast<double>(ds.flat_runs);
  if (ds.flat_runs > 0) {
    it.layer["sim.flat_run_len"] = static_cast<double>(ds.flat_events) /
                                   static_cast<double>(ds.flat_runs);
  }
  it.layer["net.pool_capacity_pkts"] = static_cast<double>(env.pool.capacity());
  it.layer["net.pool_outstanding_end"] =
      static_cast<double>(env.pool.outstanding());
  it.check(env.pool.outstanding() == 0, "packet pool empty after drain");

  const fabric_blueprint& bp = *tb->topo->blueprint();
  it.layer["topo.blueprint_mb"] = static_cast<double>(bp.resident_bytes()) / 1e6;
  it.layer["topo.instance_mb"] =
      static_cast<double>(tb->topo->resident_bytes()) / 1e6;
  it.layer["topo.path_table_mb"] =
      static_cast<double>(tb->topo->paths().resident_bytes()) / 1e6;
  it.layer["topo.interned_paths"] = static_cast<double>(bp.interned_paths());

  if (env.telemetry != nullptr) {
    const telemetry_plane& tp = *env.telemetry;
    report_telemetry(tp.totals(telemetry_kind::queue),
                     tp.totals(telemetry_kind::pipe),
                     tp.totals(telemetry_kind::demux), tcp_family, it);
    check_conservation(tp, it);
  }
  teardown(cx, envp, tb, it);
}

// ----------------------------------------------------------- perm_k32_ndp

void perm_k32_ndp(const context& cx, iteration& it) {
  constexpr unsigned kK = 32;
  constexpr std::uint64_t kFlowBytes = 450'000;
  constexpr simtime_t kSlice = from_us(20);
  constexpr simtime_t kDeadline = from_ms(50);

  it.t_begin = clock_type::now();
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto envp = std::make_unique<sim_env>(cx.seed);
  sim_env& env = *envp;
  auto tb = build_testbed(cx, env, kK, fp);
  const std::size_t n = tb->topo->n_hosts();

  std::vector<flow*> flows;
  std::uint64_t done = 0;
  {
    scope s(cx.tr, "harness.flow_create");
    const auto matrix = permutation_matrix(env.rng, n);
    flows.reserve(n);
    for (std::uint32_t h = 0; h < n; ++h) {
      flow_options o;
      o.bytes = kFlowBytes;
      o.start = static_cast<simtime_t>(env.rand_below(1000)) * 10 * kNanosecond;
      flow& f = tb->flows->create(protocol::ndp, h, matrix[h], o);
      f.on_complete([&done] { ++done; });
      flows.push_back(&f);
    }
  }
  it.ops = n;
  it.layer["harness.flows_started"] = static_cast<double>(n);
  it.layer["harness.live_flows_max"] = static_cast<double>(n);

  it.t_first_event = clock_type::now();
  if (cx.setup_only) return teardown(cx, envp, tb, it);
  while (done < n && env.now() < kDeadline) {
    run_slice(cx, env, env.now() + kSlice);
    it.ops_done = done;
  }
  // Drain: in-flight ACKs and PULLs land, every packet returns to the pool.
  const auto t_drain = clock_type::now();
  while (!env.events.empty() && env.now() < 2 * kDeadline) {
    run_slice(cx, env, env.now() + kSlice);
  }
  it.layer["harness.drain_s"] = seconds_between(t_drain, clock_type::now());
  it.check(done == n, "every flow completes by the 50 ms deadline");

  {
    scope s(cx.tr, "stats.summarize");
    std::vector<record> recs;
    sample_set fct_us;
    recs.reserve(n);
    for (const flow* f : flows) {
      if (!f->complete()) continue;
      recs.push_back({static_cast<std::uint64_t>(f->start_time), f->src, f->dst,
                      static_cast<std::uint64_t>(f->completion_time()),
                      f->bytes});
      fct_us.add(f->fct_us());
    }
    it.digest = digest_of(std::move(recs));
    report_fcts(fct_us, it);
  }
  if (cx.tr != nullptr) {
    scope s(cx.tr, "ndp.stats");
    ndp_totals nt;
    for (flow* f : flows) nt.add(*f->ndp_src());
    nt.report(it);
  }
  finish_fabric(cx, envp, tb, false, it);
}

// ------------------------------------------- closed- and open-loop churn

/// Closed loop: `population` flows of `flow_bytes`, each replaced when it
/// is torn down, for `duration` of simulated time.  Open loop: Poisson
/// arrivals at `open_load` of the host-link capacity until `open_flows`
/// have started (`duration` caps it), sized from facebook_web_sizes().
struct churn_params {
  unsigned k = 8;
  protocol proto = protocol::ndp;
  std::uint64_t flow_bytes = 0;
  std::size_t max_paths = 0;
  std::size_t population = 0;
  simtime_t duration = 0;
  double open_load = 0;
  std::uint64_t open_flows = 0;
  simtime_t drain_limit = 0;  ///< simulated time allowed to drain after
  simtime_t slice = from_us(100);
};

/// The open-loop flow sizes: one fixed draw of `n` sizes from the heavy-
/// tailed web distribution, in an order shuffled by the run's seed.  Every
/// seed then offers the same bytes; redrawing per seed moved the event
/// count by up to 9% between seeds, all of it from the few multi-MB flows.
std::vector<std::uint64_t> web_sizes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 fixed(0x5eedf10eULL);
  std::vector<std::uint64_t> sizes(n);
  for (auto& s : sizes) {
    s = std::max<std::uint64_t>(1, facebook_web_sizes().sample(fixed));
  }
  std::mt19937_64 order(seed);
  std::shuffle(sizes.begin(), sizes.end(), order);
  return sizes;
}

void churn(const context& cx, const churn_params& cp, iteration& it) {
  const bool open_loop = cp.open_flows > 0;
  std::vector<std::uint64_t> sizes;
  if (open_loop) sizes = web_sizes(cp.open_flows, cx.seed);

  it.t_begin = clock_type::now();
  fabric_params fp;
  fp.proto = cp.proto;
  auto envp = std::make_unique<sim_env>(cx.seed);
  sim_env& env = *envp;
  auto tb = build_testbed(cx, env, cp.k, fp);
  const auto n_hosts = static_cast<std::uint32_t>(tb->topo->n_hosts());

  recycler_config rc;
  rc.proto = cp.proto;
  rc.opts.bytes = cp.flow_bytes;
  rc.opts.max_paths = cp.max_paths;
  flow_recycler::size_picker pick_size;
  std::size_t next_size = 0;
  if (open_loop) {
    double mean_bytes = 0;
    for (const std::uint64_t s : sizes) mean_bytes += static_cast<double>(s);
    mean_bytes /= static_cast<double>(sizes.size());
    pick_size = [&sizes, &next_size](sim_env&) { return sizes[next_size++]; };
    rc.max_starts = cp.open_flows;
    rc.open_rate_per_sec = cp.open_load * n_hosts *
                           static_cast<double>(tb->topo->config().link_speed) /
                           (8.0 * mean_bytes);
  }
  std::unique_ptr<flow_recycler> rec;
  {
    scope s(cx.tr, "harness.flow_create");
    rec = std::make_unique<flow_recycler>(
        env, *tb->topo, *tb->flows, rc,
        [n_hosts](sim_env& e) { return uniform_pair(e, n_hosts); }, pick_size);
    rec->start(open_loop ? 1 : cp.population);
  }

  // NDP sender counters are read while a completed flow lingers (it is
  // torn down `linger` after completing, which is longer than a slice);
  // keyed by flow id and start time because ids are recycled.
  const bool sample_ndp = cx.tr != nullptr && cp.proto == protocol::ndp;
  ndp_totals nt;
  std::unordered_map<std::uint32_t, simtime_t> counted;
  auto read_ndp = [&] {
    scope s(cx.tr, "ndp.stats");
    for (const auto& f : tb->flows->flows()) {
      if (f == nullptr || !f->complete()) continue;
      const auto [at, fresh] = counted.try_emplace(f->id, f->start_time);
      if (!fresh) {
        if (at->second == f->start_time) continue;
        at->second = f->start_time;
      }
      nt.add(*f->ndp_src());
    }
  };
  std::size_t live_max = 0;
  auto step = [&](simtime_t limit) {
    run_slice(cx, env, std::min(env.now() + cp.slice, limit));
    live_max = std::max(live_max, tb->flows->live_count());
    it.ops = rec->flows_started();
    it.ops_done = rec->fcts().completed();
    if (sample_ndp) read_ndp();
  };

  it.t_first_event = clock_type::now();
  if (cx.setup_only) {
    rec.reset();
    return teardown(cx, envp, tb, it);
  }
  while (env.now() < cp.duration &&
         !(open_loop && rec->flows_started() >= cp.open_flows)) {
    step(cp.duration);
  }
  rec->stop();
  const auto t_drain = clock_type::now();
  const simtime_t drain_end = env.now() + cp.drain_limit;
  while ((rec->fcts().still_open() > 0 || rec->lingering() > 0 ||
          !env.events.empty()) &&
         env.now() < drain_end) {
    step(drain_end);
  }
  it.layer["harness.drain_s"] = seconds_between(t_drain, clock_type::now());
  it.check(rec->fcts().still_open() == 0,
           "every started flow completes after the drain");
  it.layer["harness.flows_started"] = static_cast<double>(rec->flows_started());
  it.layer["harness.flows_recycled"] =
      static_cast<double>(rec->flows_recycled());
  it.layer["harness.live_flows_max"] = static_cast<double>(live_max);
  if (sample_ndp) nt.report(it);

  {
    scope s(cx.tr, "stats.summarize");
    std::vector<record> recs;
    recs.reserve(rec->fcts().records().size());
    for (const fct_recorder::record& r : rec->fcts().records()) {
      recs.push_back({static_cast<std::uint64_t>(r.start),
                      static_cast<std::uint64_t>(r.end), r.flow_id, r.bytes,
                      r.epoch});
    }
    it.digest = digest_of(std::move(recs));
    report_fcts(rec->fcts().fct_us(), it);
  }
  {
    scope s(cx.tr, "harness.teardown");
    rec.reset();
  }
  finish_fabric(cx, envp, tb, cp.proto != protocol::ndp, it);
}

void rpc_churn_k8_ndp(const context& cx, iteration& it) {
  churn_params cp;
  cp.proto = protocol::ndp;
  cp.flow_bytes = 90'000;
  cp.max_paths = 8;
  cp.population = 512;
  cp.duration = from_ms(100);
  cp.drain_limit = from_ms(500);
  churn(cx, cp, it);
}

void web_dctcp_k8(const context& cx, iteration& it) {
  churn_params cp;
  cp.proto = protocol::dctcp;
  cp.open_load = 0.6;
  cp.open_flows = 50'000;
  cp.duration = from_ms(1000);
  cp.drain_limit = from_ms(1000);
  churn(cx, cp, it);
}

// --------------------------------------------------------- campaign_k4_mix

void campaign_k4_mix(const context& cx, iteration& it) {
  constexpr unsigned kK = 4;
  constexpr std::uint64_t kFlowBytes = 45'000;
  constexpr simtime_t kDuration = from_ms(3);
  constexpr simtime_t kSlice = from_us(500);
  constexpr std::size_t kRepeats = 64;
  constexpr protocol kProtos[] = {protocol::ndp, protocol::dctcp,
                                  protocol::dcqcn};
  constexpr double kLoads[] = {0.3, 0.5, 0.7, 0.9};

  it.t_begin = clock_type::now();
  // One shared blueprint per transport (its PFC config follows the
  // transport).
  std::vector<fabric_params> fps;
  std::vector<std::shared_ptr<const fabric_blueprint>> bps;
  for (const protocol p : kProtos) {
    fabric_params fp;
    fp.proto = p;
    fps.push_back(fp);
    scope s(cx.tr, "topo.blueprint");
    bps.push_back(make_fat_tree_blueprint(kK, fp));
  }
  std::vector<experiment_config> configs;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (std::size_t t = 0; t < std::size(kProtos); ++t) {
      for (const double load : kLoads) {
        experiment_config c;
        c.name = std::string(to_string(kProtos[t])) + "_load" +
                 std::to_string(static_cast<int>(load * 100 + 0.5)) + "_r" +
                 std::to_string(r);
        c.seed = cx.seed * 1'000'003 + configs.size();
        c.param = static_cast<std::int64_t>(t);
        c.param2 = load;
        configs.push_back(std::move(c));
      }
    }
  }
  const std::filesystem::path dir =
      std::filesystem::path(cx.work_dir) /
      ("campaign-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  it.ops = configs.size();

  // Per-job numbers the campaign summaries do not carry: sums, or the
  // largest job's value.
  std::mutex mu;
  event_list::dispatch_counters dispatch{};
  std::size_t pool_capacity_max = 0;
  std::size_t pool_outstanding_total = 0;  // in flight at each job's cut
  std::uint64_t flows_started = 0, flows_recycled = 0;
  std::size_t instance_bytes_max = 0, path_table_bytes_max = 0;

  const auto body = [&](const experiment_config& cfg, sim_env& env,
                        fct_recorder& fcts, std::int32_t parent) {
    scope job(cx.tr, "harness.job", parent);
    const auto t = static_cast<std::size_t>(cfg.param);
    const fabric_params& fp = fps[t];
    const auto& bp = bps[t];
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
    std::unique_ptr<testbed> tb;
    {
      scope s(cx.tr, "topo.instantiate");
      tb = std::make_unique<testbed>(env, bp, fp);
    }
    fat_tree& topo = *tb->topo;
    const auto n_hosts = static_cast<std::uint32_t>(topo.n_hosts());
    recycler_config rc;
    rc.proto = fp.proto;
    rc.opts.bytes = kFlowBytes;
    rc.opts.max_paths = 8;
    rc.open_rate_per_sec = cfg.param2 * n_hosts *
                           static_cast<double>(bp->config().link_speed) /
                           (8.0 * static_cast<double>(kFlowBytes));
    std::unique_ptr<flow_recycler> rec;
    {
      scope s(cx.tr, "harness.flow_create");
      rec = std::make_unique<flow_recycler>(
          env, topo, *tb->flows, rc,
          [n_hosts](sim_env& e) { return uniform_pair(e, n_hosts); });
      rec->start(4);
    }
    while (env.now() < kDuration) {
      run_slice(cx, env, std::min(env.now() + kSlice, kDuration));
    }
    rec->stop();
    const std::uint64_t started = rec->flows_started();
    const std::uint64_t recycled = rec->flows_recycled();
    const std::size_t instance_bytes = topo.resident_bytes();
    const std::size_t path_table_bytes = topo.paths().resident_bytes();
    {
      scope s(cx.tr, "stats.merge");
      fcts.merge_from(rec->fcts());
      // Flows still live at the cut stay visible as open records.
      for (std::size_t i = 0; i < rec->fcts().still_open(); ++i) {
        fcts.flow_started(static_cast<std::uint32_t>(0x40000000u + i),
                          env.now(), 0);
      }
    }
    {
      scope s(cx.tr, "harness.teardown");
      rec.reset();
      tb->flows.reset();
    }
    {
      scope s(cx.tr, "topo.teardown");
      tb.reset();
    }
    const auto& ds = env.events.dispatch_stats();
    const std::lock_guard<std::mutex> lk(mu);
    dispatch.heap_events += ds.heap_events;
    dispatch.lane_events += ds.lane_events;
    dispatch.flat_events += ds.flat_events;
    dispatch.flat_runs += ds.flat_runs;
    pool_capacity_max = std::max(pool_capacity_max, env.pool.capacity());
    pool_outstanding_total += env.pool.outstanding();
    flows_started += started;
    flows_recycled += recycled;
    instance_bytes_max = std::max(instance_bytes_max, instance_bytes);
    path_table_bytes_max = std::max(path_table_bytes_max, path_table_bytes);
  };

  it.t_first_event = clock_type::now();
  if (cx.setup_only) {
    it.t_end = it.t_first_event;
    return;
  }
  campaign_config cc;
  cc.dir = dir.string();
  cc.threads = cx.threads;
  campaign_result res;
  {
    scope s(cx.tr, "harness.campaign");
    const std::int32_t parent = s.id();
    res = campaign_runner(cc).run(
        configs, [&body, parent](const experiment_config& cfg, sim_env& env,
                                 fct_recorder& fcts) {
          body(cfg, env, fcts, parent);
        });
  }
  it.ops_done = res.summaries.size();
  it.check(res.completed, "campaign completed");
  bool all_present = res.summaries.size() == configs.size();
  for (std::size_t i = 0; all_present && i < res.summaries.size(); ++i) {
    all_present = res.summaries[i].job == i;
  }
  it.check(all_present, "every job present in the results");

  {
    scope s(cx.tr, "stats.summarize");
    std::ifstream in(res.merged_path, std::ios::binary);
    const std::string merged((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    it.check(static_cast<std::size_t>(
                 std::count(merged.begin(), merged.end(), '\n')) ==
                 configs.size(),
             "results.jsonl holds one line per job");
    it.digest = fnv1a_64(merged.data(), merged.size());
    const fct_summary total = res.total();
    if (total.flows > 0) {
      it.layer["out.fct_p50_us"] = total.quantile_us(0.5);
      it.layer["out.fct_p99_us"] = total.quantile_us(0.99);
      it.layer["out.fct_max_us"] = total.max_us;
    }
    std::uint64_t events = 0;
    for (const fct_summary& js : res.summaries) events += js.events;
    it.events = events;
    const telemetry_summary& tele = total.tele;
    report_telemetry(tele.queues, tele.pipes, tele.demuxes, true, it);
    if (cx.tr != nullptr) {
      // Jobs stop at a fixed simulated time with traffic in flight, so
      // only the laws that hold at any instant apply.
      bool demux_ok = true, queue_ok = true, pipe_ok = true;
      for (const fct_summary& js : res.summaries) {
        const telemetry_summary& t = js.tele;
        demux_ok &= t.present && t.demuxes.enq_pkts ==
                                     t.demuxes.deq_pkts + t.demuxes.stale_drops;
        queue_ok &= t.queues.enq_pkts >= t.queues.deq_pkts +
                                             t.queues.drop_pkts +
                                             t.queues.bounce_pkts;
        pipe_ok &= t.pipes.enq_pkts >= t.pipes.deq_pkts;
      }
      it.check(demux_ok, "telemetry: demux enq == deq + stale in every job");
      it.check(queue_ok, "telemetry: queue enq >= deq + drop + bounce");
      it.check(pipe_ok, "telemetry: pipe enq >= deq");
    }
  }
  it.t_end = clock_type::now();
  std::filesystem::remove_all(dir);

  it.layer["sim.events"] = static_cast<double>(it.events);
  it.layer["sim.heap_events"] = static_cast<double>(dispatch.heap_events);
  it.layer["sim.lane_events"] = static_cast<double>(dispatch.lane_events);
  it.layer["sim.flat_runs"] = static_cast<double>(dispatch.flat_runs);
  if (dispatch.flat_runs > 0) {
    it.layer["sim.flat_run_len"] = static_cast<double>(dispatch.flat_events) /
                                   static_cast<double>(dispatch.flat_runs);
  }
  it.layer["net.pool_capacity_pkts"] = static_cast<double>(pool_capacity_max);
  it.layer["net.pool_outstanding_end"] =
      static_cast<double>(pool_outstanding_total);
  double bp_mb = 0;
  double interned = 0;
  for (const auto& bp : bps) {
    bp_mb += static_cast<double>(bp->resident_bytes()) / 1e6;
    interned += static_cast<double>(bp->interned_paths());
  }
  it.layer["topo.blueprint_mb"] = bp_mb;
  it.layer["topo.interned_paths"] = interned;
  it.layer["topo.instance_mb"] = static_cast<double>(instance_bytes_max) / 1e6;
  it.layer["topo.path_table_mb"] =
      static_cast<double>(path_table_bytes_max) / 1e6;
  it.layer["harness.flows_started"] = static_cast<double>(flows_started);
  it.layer["harness.flows_recycled"] = static_cast<double>(flows_recycled);
}

}  // namespace

const std::vector<workload>& workloads() {
  static const std::vector<workload> all = {
      {"perm_k32_ndp", perm_k32_ndp},
      {"rpc_churn_k8_ndp", rpc_churn_k8_ndp},
      {"web_dctcp_k8", web_dctcp_k8},
      {"campaign_k4_mix", campaign_k4_mix},
  };
  return all;
}

}  // namespace bench
