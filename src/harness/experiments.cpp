#include "harness/experiments.h"

#include <algorithm>

#include "workload/traffic_matrix.h"

namespace ndpsim {

testbed::testbed(std::uint64_t seed, fat_tree_config topo_cfg,
                 const fabric_params& fabric_in)
    : owned_env_(std::make_unique<sim_env>(seed)),
      env(*owned_env_),
      fabric(fabric_in) {
  init(std::move(topo_cfg));
}

testbed::testbed(sim_env& external_env, fat_tree_config topo_cfg,
                 const fabric_params& fabric_in)
    : env(external_env), fabric(fabric_in) {
  init(std::move(topo_cfg));
}

testbed::testbed(sim_env& external_env,
                 std::shared_ptr<const fabric_blueprint> bp,
                 const fabric_params& fabric_in)
    : env(external_env), fabric(fabric_in) {
  topo = std::make_unique<fat_tree>(env, std::move(bp),
                                    make_queue_factory(env, fabric));
  flows = std::make_unique<flow_factory>(env, *topo);
}

void testbed::init(fat_tree_config topo_cfg) {
  topo_cfg.pfc = default_pfc(fabric);
  topo = std::make_unique<fat_tree>(env, topo_cfg, make_queue_factory(env, fabric));
  flows = std::make_unique<flow_factory>(env, *topo);
}

std::unique_ptr<testbed> make_fat_tree_testbed(
    std::uint64_t seed, unsigned k, const fabric_params& fabric,
    unsigned oversubscription,
    std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
        speed_override) {
  fat_tree_config tc;
  tc.k = k;
  tc.oversubscription = oversubscription;
  tc.speed_override = std::move(speed_override);
  return std::make_unique<testbed>(seed, tc, fabric);
}

std::shared_ptr<const fabric_blueprint> make_fat_tree_blueprint(
    unsigned k, const fabric_params& fabric, unsigned oversubscription,
    std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
        speed_override) {
  fat_tree_config tc;
  tc.k = k;
  tc.oversubscription = oversubscription;
  tc.speed_override = std::move(speed_override);
  tc.pfc = default_pfc(fabric);
  return fabric_blueprint::fat_tree(std::move(tc));
}

permutation_result run_permutation(testbed& bed, protocol proto,
                                   flow_options opts, simtime_t warmup,
                                   simtime_t measure) {
  const std::size_t n = bed.topo->n_hosts();
  const auto matrix = permutation_matrix(bed.env.rng, n);

  std::vector<flow*> flows;
  flows.reserve(n);
  for (std::uint32_t h = 0; h < n; ++h) {
    flow_options o = opts;
    // Small start jitter so unresponsive first windows do not collide in
    // lockstep (hosts boot at slightly different times in reality).
    o.start = opts.start +
              static_cast<simtime_t>(bed.env.rand_below(100)) * kMicrosecond / 10;
    flows.push_back(&bed.flows->create(proto, h, matrix[h], o));
  }

  bed.env.events.run_until(warmup);
  std::vector<std::uint64_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = flows[i]->payload_received();

  bed.env.events.run_until(warmup + measure);

  permutation_result res;
  res.flow_gbps.reserve(n);
  const double secs = to_sec(measure);
  for (std::size_t i = 0; i < n; ++i) {
    const double bits =
        static_cast<double>(flows[i]->payload_received() - base[i]) * 8.0;
    res.flow_gbps.push_back(bits / secs / 1e9);
  }
  std::sort(res.flow_gbps.begin(), res.flow_gbps.end());
  double sum = 0;
  for (double g : res.flow_gbps) sum += g;
  res.mean_gbps = sum / static_cast<double>(n);
  res.utilization =
      res.mean_gbps * 1e9 / static_cast<double>(bed.topo->host_link_speed(0));
  return res;
}

void run_until_complete(sim_env& env, const std::vector<flow*>& flows,
                        simtime_t deadline) {
  auto all_done = [&flows] {
    return std::all_of(flows.begin(), flows.end(),
                       [](const flow* f) { return f->complete(); });
  };
  // Timestamp-batch granularity (not single events) so the hot path runs
  // through the flat dispatch handlers exactly as run_until does; the
  // completion check between batches is monotonic, so the loop still stops
  // at the first timestamp where every flow is complete.
  while (!all_done() && env.now() < deadline) {
    if (env.events.run_next_batch() == 0) break;
  }
}

incast_result run_incast(testbed& bed, protocol proto,
                         const std::vector<std::uint32_t>& senders,
                         std::uint32_t receiver, std::uint64_t bytes,
                         flow_options opts, simtime_t deadline) {
  std::vector<flow*> flows;
  flows.reserve(senders.size());
  for (std::uint32_t s : senders) {
    flow_options o = opts;
    o.bytes = bytes;
    // "Near-simultaneous" requests: sub-microsecond jitter.
    o.start = opts.start + static_cast<simtime_t>(bed.env.rand_below(1000)) *
                               kNanosecond;
    flows.push_back(&bed.flows->create(proto, s, receiver, o));
  }
  run_until_complete(bed.env, flows, deadline);

  incast_result res;
  double last = 0;
  double first = -1;
  for (flow* f : flows) {
    if (!f->complete()) continue;
    ++res.completed;
    const double fct = to_us(f->completion_time() - f->start_time);
    res.fct_us.add(fct);
    last = std::max(last, to_us(f->completion_time()) - to_us(opts.start));
    if (first < 0) first = fct;
    first = std::min(first, fct);
    res.stats += f->stats();
  }
  res.last_fct_us = last;
  res.first_fct_us = first < 0 ? 0 : first;
  return res;
}

double incast_optimal_us(std::size_t n_senders, std::uint64_t bytes_per_sender,
                         std::uint32_t mss_bytes, linkspeed_bps link_rate,
                         simtime_t one_way) {
  const std::uint32_t ppp = mss_bytes - kHeaderBytes;
  const std::uint64_t pkts = (bytes_per_sender + ppp - 1) / ppp;
  const std::uint64_t wire =
      bytes_per_sender + pkts * kHeaderBytes;  // payload + headers
  const double drain =
      to_us(serialization_time(wire * n_senders, link_rate));
  return drain + to_us(one_way);
}

}  // namespace ndpsim
