// Fig 15: FCT of repeated 90KB transfers between two otherwise-idle hosts
// while every other host sources four long-running flows to random
// destinations — measures the standing-queue penalty each protocol imposes
// on innocent short flows.
#include "bench_util.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

sample_set run_short_fcts(protocol proto, std::uint64_t seed) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(seed, bench::default_k(), fp);
  const std::size_t n = bed->topo->n_hosts();
  // Hosts 0 and 1 (different pods for generality) exchange the short flows.
  const std::uint32_t a = 0;
  const std::uint32_t b = static_cast<std::uint32_t>(n - 1);

  // Background: every other host sources 4 long flows to random dests.
  flow_options bg;
  bg.handshake = false;
  for (std::uint32_t h = 0; h < n; ++h) {
    if (h == a || h == b) continue;
    for (int i = 0; i < 4; ++i) {
      std::uint32_t dst;
      do {
        dst = static_cast<std::uint32_t>(bed->env.rand_below(n));
      } while (dst == h || dst == a || dst == b);
      flow_options o = bg;
      o.start = static_cast<simtime_t>(bed->env.rand_below(1000)) * kMicrosecond / 10;
      bed->flows->create(proto, h, dst, o);
    }
  }
  bed->env.events.run_until(from_ms(3));  // background reaches steady state

  // Repeated 90KB transfers, one at a time.
  sample_set fct_ms;
  const int reps = bench::paper_scale() ? 60 : 25;
  for (int r = 0; r < reps; ++r) {
    flow_options o;
    o.bytes = 90'000;
    o.handshake = false;
    o.start = bed->env.now() + from_us(10);
    flow& f = bed->flows->create(proto, r % 2 == 0 ? a : b,
                                 r % 2 == 0 ? b : a, o);
    run_until_complete(bed->env, {&f}, bed->env.now() + from_ms(200));
    if (f.complete()) fct_ms.add(f.fct_us() / 1000.0);
  }
  return fct_ms;
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 15: 90KB flow FCTs under random background load",
      "NDP worst case ~2x the idle optimum; DCTCP ~3x NDP's median and ~4x "
      "at the 99th; DCQCN slightly worse than DCTCP (sporadic PFC pauses); "
      "MPTCP ~10x NDP (it fills every buffer)");
  for (const protocol proto :
       {protocol::ndp, protocol::dctcp, protocol::dcqcn, protocol::mptcp}) {
    const sample_set s = run_short_fcts(proto, 77);
    bench::print_row(to_string(proto),
                     {{"median_ms", s.median()},
                      {"p90_ms", s.quantile(0.90)},
                      {"p99_ms", s.quantile(0.99)},
                      {"completed", static_cast<double>(s.size())}});
  }
  return 0;
}
