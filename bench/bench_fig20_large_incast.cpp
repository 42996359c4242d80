// Fig 20: very large incasts (up to 8000 flows at paper scale), 270KB per
// flow: (a) completion-time overhead over the theoretical optimum and
// (b) retransmissions per packet, split by trigger (NACK vs return-to-sender
// bounce), for IW in {1, 10, 23}.
#include "bench_util.h"
#include "harness/experiments.h"
#include "sim/assert.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

unsigned big_k() { return bench::paper_scale() ? 16 : 8; }

void run_case(std::size_t n, std::uint32_t iw) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(20, big_k(), fp);
  NDPSIM_ASSERT_MSG(n <= bed->topo->n_hosts() - 1,
                    "incast larger than topology");
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 0, n);
  flow_options o;
  o.iw_packets = iw;
  const incast_result res =
      run_incast(*bed, protocol::ndp, senders, 0, 270'000, o, from_sec(60));
  const double opt = incast_optimal_us(n, 270'000, 9000, gbps(10), from_us(45));
  const double total_pkts = static_cast<double>(res.packets_sent);
  bench::print_row(
      "IW=" + std::to_string(iw) + " n=" + std::to_string(n),
      {{"overhead_pct", 100.0 * (res.last_fct_us - opt) / opt},
       {"rtx_per_pkt_nack", static_cast<double>(res.rtx_after_nack) / total_pkts},
       {"rtx_per_pkt_bounce",
        static_cast<double>(res.rtx_after_bounce) / total_pkts},
       {"rtx_per_pkt_timeout",
        static_cast<double>(res.rtx_after_timeout) / total_pkts},
       {"completed", static_cast<double>(res.completed)}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 20: large-incast overhead and retransmission mechanisms",
      "(a) IW=23: worst overhead on *small* incasts yet within ~2% of "
      "optimal, negligible for large n; IW=1 bad below ~8 flows (cannot fill "
      "the receiver link); (b) NACKs dominate small incasts, return-to-sender "
      "takes over above ~100 flows; mean rtx/packet stays around or below 1");
  std::vector<std::size_t> sizes = {1, 4, 16, 64, 120};
  if (bench::paper_scale()) sizes = {1, 4, 16, 64, 256, 1000};
  for (const std::uint32_t iw : {23, 10, 1}) {
    for (const std::size_t n : sizes) run_case(n, iw);
  }
  return 0;
}
