// Fig 16: incast completion time vs the number of backend servers, 450KB
// responses, for MPTCP, DCTCP, DCQCN and NDP. Reports both the last and the
// first flow's completion (the spread is the fairness of the scheme).
#include "bench_util.h"
#include "harness/experiments.h"
#include "sim/assert.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

void run_case(protocol proto, std::size_t n) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(16, bench::default_k(), fp);
  NDPSIM_ASSERT_MSG(n <= bed->topo->n_hosts() - 1,
                    "incast larger than topology");
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 0, n);
  flow_options o;
  o.handshake = false;
  o.min_rto = from_us(200);  // Vasudevan-style aggressive timers for TCPs
  const incast_result res =
      run_incast(*bed, proto, senders, 0, 450'000, o, from_sec(20));
  bench::print_row(
      std::string(to_string(proto)) + " n=" + std::to_string(n),
      {{"last_fct_ms", res.last_fct_us / 1000.0},
       {"first_fct_ms", res.first_fct_us / 1000.0},
       {"optimal_ms",
        incast_optimal_us(n, 450'000, 9000, gbps(10), from_us(40)) / 1000.0},
       {"completed", static_cast<double>(res.completed)}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 16: incast completion time vs number of senders (450KB each)",
      "completion grows linearly with n for NDP/DCQCN (~1% over optimal) and "
      "DCTCP (~5% over); MPTCP far above with huge spread (synchronized "
      "losses); NDP's first/last spread within ~20%");
  std::vector<std::size_t> sizes = {8, 16, 32, 64, 100};
  if (bench::paper_scale()) sizes = {8, 16, 32, 64, 128, 256, 400};
  for (const protocol proto :
       {protocol::mptcp, protocol::dctcp, protocol::dcqcn, protocol::ndp}) {
    for (const std::size_t n : sizes) run_case(proto, n);
  }
  return 0;
}
