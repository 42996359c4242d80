// Fig 19: collateral damage of a 64:1 incast on a long flow to a *different*
// host on the same ToR, for DCTCP, DCQCN and NDP.  Prints the goodput
// time-series of the long flow and the incast aggregate.
//
// DCTCP: the incast overflows shared buffers; the long flow dips and
// recovers slowly.  DCQCN: no loss, but PFC pause frames cascade up and
// repeatedly stall the long flow (the paper's key indictment of lossless
// Ethernet).  NDP: a sub-millisecond dip during the incast's first RTT, then
// full throughput.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiments.h"
#include "stats/rate_sampler.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

void run_case(protocol proto) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(19, bench::default_k(), fp);
  const std::size_t n_hosts = bed->topo->n_hosts();
  // Hosts 0 and 1 share a ToR; the long flow's source is in another pod.
  flow_options lo;
  lo.handshake = false;
  flow& long_flow =
      bed->flows->create(proto, static_cast<std::uint32_t>(n_hosts - 1), 0, lo);

  rate_sampler sampler(
      bed->env, [&long_flow] { return long_flow.payload_received(); },
      from_ms(1));
  sampler.start(0);

  bed->env.events.run_until(from_ms(20));  // long flow at steady state
  // 64:1 incast to host 1 (same ToR as the long flow's destination).
  std::vector<std::uint32_t> senders;
  for (std::uint32_t h = 2; h < n_hosts && senders.size() < 64; ++h) {
    if (h != n_hosts - 1) senders.push_back(h);
  }
  for (auto s : senders) {
    flow_options o;
    o.bytes = 900'000;
    o.handshake = false;
    o.min_rto = from_us(500);
    o.start = bed->env.now();
    bed->flows->create(proto, s, 1, o);
  }
  bed->env.events.run_until(from_ms(60));

  const auto& series = sampler.samples();
  // Long-flow dip during/after the incast window.
  double long_flow_min_gbps = 99;
  double long_flow_mean_after_gbps = 0;
  int count_after = 0;
  for (const auto& smp : series) {
    if (smp.at > from_ms(20)) {
      long_flow_min_gbps = std::min(long_flow_min_gbps, smp.rate_bps / 1e9);
      long_flow_mean_after_gbps += smp.rate_bps / 1e9;
      ++count_after;
    }
  }
  if (count_after > 0) long_flow_mean_after_gbps /= count_after;
  std::printf("%s long-flow goodput (Gb/s) per ms from t=18ms:\n  ",
              to_string(proto));
  for (const auto& smp : series) {
    if (smp.at >= from_ms(18) && smp.at <= from_ms(40)) {
      std::printf("%.1f ", smp.rate_bps / 1e9);
    }
  }
  std::printf("\n");
  bench::print_row(to_string(proto),
                   {{"longflow_min_gbps", long_flow_min_gbps},
                    {"longflow_mean_gbps_after_incast",
                     long_flow_mean_after_gbps}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 19: collateral damage of a 64:1 incast on a same-ToR long flow",
      "DCTCP: dip and slow recovery (losses at ToR and agg); DCQCN: repeated "
      "stalls from cascading PFC pauses; NDP: <1ms dip then full rate");
  for (const protocol proto :
       {protocol::dctcp, protocol::dcqcn, protocol::ndp}) {
    run_case(proto);
  }
  return 0;
}
