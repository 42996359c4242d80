// Fig 22: permutation throughput when one core<->aggregation link silently
// negotiates down to 1Gb/s.  NDP's path scoreboard (ACK/NACK ratios per
// path) must detect and avoid the degraded paths; without the penalty
// mechanism NDP sprays into the black hole; MPTCP's per-path congestion
// control also copes; single-path DCTCP flows unlucky enough to hash onto
// the degraded link suffer.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiments.h"

namespace ndpsim {
namespace {

permutation_result run_degraded(protocol proto, bool ndp_penalty) {
  fabric_params fp;
  fp.proto = proto;
  // Degrade the first agg->core uplink and the matching core->agg downlink.
  auto override = [](link_level level, std::size_t index,
                     linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index == 0) return gbps(1);
    if (level == link_level::core_down && index == 0) return gbps(1);
    return def;
  };
  auto bed =
      make_fat_tree_testbed(22, bench::default_k(), fp, 1, override);
  flow_options o;
  o.handshake = false;
  o.subflows = 8;
  o.path_penalty = ndp_penalty;
  return run_permutation(*bed, proto, o, from_ms(4), from_ms(8));
}

void run_case(protocol proto, bool penalty) {
  const permutation_result res = run_degraded(proto, penalty);
  std::string label = to_string(proto);
  if (proto == protocol::ndp && !penalty) label += " (no path penalty)";
  std::printf("%-24s per-flow Gb/s deciles:", label.c_str());
  for (int d = 0; d <= 10; ++d) {
    const std::size_t i =
        std::min(res.flow_gbps.size() - 1, d * res.flow_gbps.size() / 10);
    std::printf(" %.2f", res.flow_gbps[i]);
  }
  std::printf("\n");
  bench::print_row(label,
                   {{"utilization_pct", res.utilization * 100},
                    {"min_gbps", res.flow_gbps.front()},
                    {"p10_gbps", res.flow_gbps[res.flow_gbps.size() / 10]},
                    {"median_gbps", res.flow_gbps[res.flow_gbps.size() / 2]}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 22: permutation with one core link degraded to 1Gb/s",
      "NDP with the path penalty and MPTCP route around the failure (near "
      "Fig 14 throughput); NDP without the penalty leaves many flows at a "
      "few Gb/s; a few DCTCP flows collapse to <1Gb/s");
  run_case(protocol::ndp, true);
  run_case(protocol::ndp, false);
  run_case(protocol::mptcp, true);
  run_case(protocol::dctcp, true);
  return 0;
}
