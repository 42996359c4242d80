// §6.2 "Larger topologies" (in-text): permutation utilization with 8-packet
// buffers, IW 30 and 9K MTU, as the FatTree grows.  The paper reports a
// gentle decrease from 98% at 128 hosts to 90% at 8192 hosts.
#include "bench_util.h"
#include "harness/experiments.h"

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Text §6.2: permutation utilization vs topology size",
      "utilization decreases gently with size (98% at 128 hosts -> 90% at "
      "8192 in the paper) while buffers stay at 8 packets");
  std::vector<unsigned> ks = {4, 6, 8};
  if (bench::paper_scale()) ks = {4, 8, 12, 16};
  for (const unsigned k : ks) {
    fabric_params fp;
    fp.proto = protocol::ndp;
    auto bed = make_fat_tree_testbed(61, k, fp);
    flow_options o;
    o.iw_packets = 30;
    const permutation_result res =
        run_permutation(*bed, protocol::ndp, o, from_ms(3), from_ms(6));
    bench::print_row("k=" + std::to_string(k),
                     {{"hosts", static_cast<double>(k) * k * k / 4},
                      {"utilization_pct", res.utilization * 100},
                      {"min_gbps", res.flow_gbps.front()}});
  }
  return 0;
}
