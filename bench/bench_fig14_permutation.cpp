// Fig 14: per-flow throughput under a permutation traffic matrix on the
// FatTree, for NDP, MPTCP (8 subflows), DCTCP and DCQCN.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiments.h"

namespace ndpsim {
namespace {

void run_case(protocol proto) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(42, bench::default_k(), fp);
  flow_options o;
  o.handshake = false;
  o.subflows = 8;
  const permutation_result res = run_permutation(
      *bed, proto, o, from_ms(3), from_ms(bench::paper_scale() ? 20 : 8));
  // Print the sorted per-flow series (deciles) — the figure's curve.
  std::printf("%-6s per-flow Gb/s deciles:", to_string(proto));
  for (int d = 0; d <= 10; ++d) {
    const std::size_t i =
        std::min(res.flow_gbps.size() - 1, d * res.flow_gbps.size() / 10);
    std::printf(" %.2f", res.flow_gbps[i]);
  }
  std::printf("\n");
  bench::print_row(to_string(proto),
                   {{"utilization_pct", res.utilization * 100},
                    {"mean_gbps", res.mean_gbps},
                    {"min_gbps", res.flow_gbps.front()},
                    {"p10_gbps", res.flow_gbps[res.flow_gbps.size() / 10]},
                    {"median_gbps", res.flow_gbps[res.flow_gbps.size() / 2]},
                    {"max_gbps", res.flow_gbps.back()}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 14: per-flow throughput, permutation traffic matrix",
      "NDP ~92%+ utilization with even the slowest flow near 9Gb/s; MPTCP "
      "~89%; DCTCP/DCQCN ~40% mean with some flows under 1Gb/s (per-flow "
      "ECMP collisions)");
  for (const protocol proto :
       {protocol::ndp, protocol::mptcp, protocol::dctcp, protocol::dcqcn}) {
    run_case(proto);
  }
  return 0;
}
