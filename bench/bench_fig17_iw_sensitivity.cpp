// Fig 17: sensitivity of permutation throughput to NDP's two parameters —
// the initial window and the switch buffer size (6/8/10 packets at 9K MTU,
// and 8 packets at 1.5K MTU).
#include "bench_util.h"
#include "harness/experiments.h"

namespace ndpsim {
namespace {

void run_case(std::uint32_t iw, std::uint32_t buf_pkts, std::uint32_t mtu) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  fp.mtu_bytes = mtu;
  fp.ndp_data_pkts = buf_pkts;
  auto bed = make_fat_tree_testbed(17, bench::default_k(), fp);
  flow_options o;
  o.mss_bytes = mtu;
  o.iw_packets = iw;
  const permutation_result res =
      run_permutation(*bed, protocol::ndp, o, from_ms(3), from_ms(6));
  bench::print_row(std::to_string(buf_pkts) + "pkt buffer, " +
                       std::to_string(mtu / 1000) + "K MTU, IW=" +
                       std::to_string(iw),
                   {{"utilization_pct", res.utilization * 100}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 17: permutation utilization vs IW and buffer size",
      "IW~20 needed for full utilization at 9K MTU (30 at 1.5K); 6-packet "
      "buffers ~90%, 8-packet ~95%+; overshooting IW reduces throughput "
      "slightly (more trimmed headers)");
  struct cfg {
    std::uint32_t buf;
    std::uint32_t mtu;
  };
  for (const cfg c : {cfg{6, 9000}, cfg{8, 9000}, cfg{10, 9000}, cfg{8, 1500}}) {
    for (const std::uint32_t iw : {5, 10, 15, 20, 25, 30, 40}) {
      run_case(iw, c.buf, c.mtu);
    }
  }
  return 0;
}
