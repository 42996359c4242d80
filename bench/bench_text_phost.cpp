// §6.2 "Who needs packet trimming?" (in-text): pHost — receiver-driven like
// NDP but over plain 8-packet drop-tail switches — compared on the
// permutation matrix and on a large incast.
#include "bench_util.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

void run_permutation_case(protocol proto) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(71, bench::default_k(), fp);
  flow_options o;
  if (proto == protocol::phost) {
    o.bytes = 100'000'000;  // pHost needs finite flows (RTS carries size)
  }
  const permutation_result res =
      run_permutation(*bed, proto, o, from_ms(3), from_ms(8));
  bench::print_row(std::string(to_string(proto)) + " permutation",
                   {{"utilization_pct", res.utilization * 100}});
}

void run_incast_case(protocol proto) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(72, bench::default_k(), fp);
  const std::size_t n = std::min<std::size_t>(
      bench::paper_scale() ? 400 : 100, bed->topo->n_hosts() - 1);
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 0, n);
  flow_options o;
  // Short responses: loss recovery (token timeouts for pHost, NACK+PULL
  // for NDP) dominates, which is where trimming pays.
  const incast_result res =
      run_incast(*bed, proto, senders, 0, 90'000, o, from_sec(30));
  bench::print_row(
      std::string(to_string(proto)) + " incast n=" + std::to_string(n),
      {{"last_fct_ms", res.last_fct_us / 1000.0},
       {"completed", static_cast<double>(res.completed)},
       {"optimal_ms",
        incast_optimal_us(n, 90'000, 9000, gbps(10), from_us(40)) / 1000.0}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Text §6.2: pHost vs NDP (is trimming needed?)",
      "pHost ~70% permutation utilization vs NDP ~95%; on the large incast "
      "pHost is ~10x slower than NDP (first-RTT drops cost token timeouts)");
  run_permutation_case(protocol::phost);
  run_permutation_case(protocol::ndp);
  run_incast_case(protocol::phost);
  run_incast_case(protocol::ndp);
  return 0;
}
