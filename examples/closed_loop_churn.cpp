// Example: long-running closed-loop churn with flow recycling.
//
// A k=8 FatTree (128 hosts) runs a permutation-style RPC workload: every
// completed flow is torn down by the `flow_recycler` (transports destroyed,
// demux entries unbound, flow slot and sampled path subset freed) and
// immediately replaced.  The point of the exercise is
// the memory profile: after a short warmup, route/flow state must be *flat*
// no matter how many generations run — route memory stays O(pairs x paths)
// (the FatPaths fabric-property invariant) and flow state stays
// O(concurrently-live flows), not O(flows-ever-started).
//
// The example runs >= 20 generations and asserts exactly that, then prints
// the per-epoch FCT stats (epoch 0 includes cold-start interning; steady
// state is everything after).
//
//   ./build/example_closed_loop_churn
#include <cstdio>
#include <cstdlib>

#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "sim/telemetry.h"
#include "topo/path_table.h"
#include "workload/traffic_matrix.h"

using namespace ndpsim;

namespace {

struct mem_snapshot {
  std::size_t route_bytes;     ///< path_table::resident_bytes
  std::size_t flow_slots;      ///< factory flow-table high-water
  std::size_t demux_slots;     ///< sum of per-host probe-table sizes
};

mem_snapshot snapshot(testbed& bed) {
  mem_snapshot s{};
  path_table& pt = bed.topo->paths();
  s.route_bytes = pt.resident_bytes();
  s.flow_slots = bed.flows->flows().size();
  for (std::uint32_t h = 0; h < bed.topo->n_hosts(); ++h) {
    s.demux_slots += pt.demux(h).table_size();
  }
  return s;
}

bool check(bool ok, const char* what) {
  std::printf("  %-52s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int main() {
  constexpr unsigned kK = 8;
  constexpr std::uint64_t kGenerations = 20;

  fabric_params fabric;
  fabric.proto = protocol::ndp;
  // Stale drops are counted in the telemetry plane, which must be attached
  // before the fabric is built.
  sim_env env(/*seed=*/11);
  const auto bp = make_fat_tree_blueprint(kK, fabric);
  env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  testbed bed(env, bp, fabric);
  const std::size_t n_hosts = bed.topo->n_hosts();
  std::printf("closed-loop churn: k=%u FatTree, %zu hosts, %llu+ generations\n",
              kK, n_hosts, static_cast<unsigned long long>(kGenerations));

  // Permutation-style pairs, cycled so every teardown reseeds its slot.
  const auto matrix = permutation_matrix(env.rng, n_hosts);
  std::uint64_t cursor = 0;
  auto pick_pair = [&matrix, &cursor](sim_env&) {
    const std::uint32_t src =
        static_cast<std::uint32_t>(cursor++ % matrix.size());
    return std::make_pair(src, matrix[src]);
  };

  // Routes are fabric properties: intern every pair's full path set up
  // front so the flatness check below measures churn, not lazy interning
  // (random 8-path subsets would otherwise keep discovering unbuilt path
  // indices for a few dozen generations).
  for (std::uint32_t h = 0; h < n_hosts; ++h) {
    (void)bed.topo->paths().all(h, matrix[h]);
  }

  recycler_config rc;
  rc.proto = protocol::ndp;
  rc.opts.bytes = 90'000;   // ~10 full packets per RPC
  rc.opts.max_paths = 8;    // capped subsets: each flow owns its arrays
  rc.linger = from_us(500); // drain window before teardown (~many RTTs)
  flow_recycler rec(env, *bed.topo, *bed.flows, rc, pick_pair);
  rec.start(n_hosts);

  // Warm up two full generations (interning, pool growth), then snapshot.
  while (rec.generations() < 2 && env.events.run_next_event()) {
  }
  const mem_snapshot warm = snapshot(bed);
  const std::size_t warm_live = bed.flows->live_count();
  std::printf("after %llu generations: %zu flow slots, %zu live, "
              "%.2f MB route state\n",
              static_cast<unsigned long long>(rec.generations()),
              warm.flow_slots, warm_live,
              static_cast<double>(warm.route_bytes) / 1e6);

  while (rec.generations() < kGenerations + 1 &&
         env.events.run_next_event()) {
  }
  rec.stop();
  const mem_snapshot done = snapshot(bed);

  std::printf("after %llu generations (%llu flows recycled):\n",
              static_cast<unsigned long long>(rec.generations()),
              static_cast<unsigned long long>(rec.flows_recycled()));

  // The acceptance gate: steady-state route/flow memory is *flat* — every
  // structure sits exactly where the warmup left it.
  bool ok = true;
  ok &= check(rec.generations() >= kGenerations, ">= 20 flow generations ran");
  ok &= check(done.route_bytes == warm.route_bytes,
              "route memory flat (resident_bytes unchanged)");
  ok &= check(done.flow_slots == warm.flow_slots,
              "flow table flat (slots recycled, not appended)");
  ok &= check(done.demux_slots <= warm.demux_slots,
              "demux registries flat (unbind shrinks tables)");
  ok &= check(bed.flows->live_count() <= warm_live + rec.lingering(),
              "live flows bounded by population + linger window");

  const fct_recorder& fcts = rec.fcts();
  std::printf("FCTs: %zu flows completed over %u epochs\n", fcts.completed(),
              fcts.max_epoch() + 1);
  for (std::uint32_t e = 0; e <= fcts.max_epoch() && e < 4; ++e) {
    sample_set s = fcts.fct_us_epoch(e);
    if (s.empty()) continue;
    std::printf("  epoch %u: %4zu flows, median %.1f us, p99 %.1f us\n", e,
                s.size(), s.median(), s.quantile(0.99));
  }
  std::printf("stale packets dropped at demuxes: %llu\n",
              static_cast<unsigned long long>(
                  env.telemetry->totals(telemetry_kind::demux).stale_drops));

  if (!ok) {
    std::printf("FAILED: churn leaked route/flow state\n");
    return 1;
  }
  std::printf("steady-state memory flat across %llu generations\n",
              static_cast<unsigned long long>(rec.generations()));
  return 0;
}
