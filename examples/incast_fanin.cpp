// Example: surviving a large fan-in (incast).
//
// The paper's motivating workload: a frontend fans a request out to many
// workers, and all the responses arrive at once.  This example runs a
// 60-to-1 incast of 450KB responses on a 128-host FatTree with NDP and
// shows (a) the first-RTT trimming storm, (b) receiver-paced recovery, and
// (c) completion within a few percent of the theoretical optimum — then
// contrasts the same fan-in over MPTCP.
//
//   ./examples/incast_fanin
#include <cstdio>

#include "harness/experiments.h"
#include "sim/telemetry.h"
#include "workload/traffic_matrix.h"

using namespace ndpsim;

namespace {

void run(protocol proto) {
  fabric_params fabric;
  fabric.proto = proto;
  // Switch trims are counted in the telemetry plane, which must be attached
  // before the fabric is built.
  sim_env env(7);
  const auto bp = make_fat_tree_blueprint(8, fabric);
  env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  testbed bed(env, bp, fabric);
  const std::size_t n = 60;
  const std::uint64_t bytes = 450'000;
  const auto senders =
      incast_senders(env.rng, bed.topo->n_hosts(), /*receiver=*/0, n);

  flow_options opts;
  opts.handshake = false;
  opts.min_rto = from_ms(10);
  const auto res =
      run_incast(bed, proto, senders, 0, bytes, opts, from_sec(30));

  const double optimal =
      incast_optimal_us(n, bytes, 9000, gbps(10), from_us(40));
  std::printf("--- %s ---\n", to_string(proto));
  std::printf("completed %zu/%zu flows\n", res.completed, n);
  std::printf("last flow done at %.2f ms (optimal %.2f ms, +%.1f%%)\n",
              res.last_fct_us / 1000.0, optimal / 1000.0,
              100.0 * (res.last_fct_us - optimal) / optimal);
  std::printf("fastest flow %.2f ms — fairness spread %.2fx\n",
              res.first_fct_us / 1000.0,
              res.last_fct_us / std::max(1.0, res.first_fct_us));
  if (proto == protocol::ndp) {
    const auto tor_down = bed.topo->aggregate_stats(link_level::tor_down);
    std::printf("switch trims at ToR->host ports: %llu "
                "(every one triggered an immediate NACK + later PULL)\n",
                static_cast<unsigned long long>(tor_down.trim_pkts));
    std::printf("retransmissions: %llu after NACK, %llu after "
                "return-to-sender, %llu after timeout\n",
                static_cast<unsigned long long>(res.rtx_after_nack),
                static_cast<unsigned long long>(res.rtx_after_bounce),
                static_cast<unsigned long long>(res.rtx_after_timeout));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("60-to-1 incast, 450KB responses, 128-host FatTree\n\n");
  run(protocol::ndp);
  run(protocol::mptcp);
  std::printf("NDP absorbs the synchronized burst via trimming; MPTCP "
              "loses whole windows and waits out retransmission timers.\n");
  return 0;
}
