// Fig 21: sender-limited traffic.  Host A sends to B, C, D and E; host F
// also sends to E.  A's NIC is the bottleneck for its four flows, so E's
// fair queuing of its pull queue must give F the residual capacity of E's
// link while A's flows split A's link evenly — with no wasted pulls.
#include <cstdio>

#include "bench_util.h"
#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "topo/micro_topo.h"

namespace ndpsim {
namespace {

void run_sender_limited() {
  // Hosts: A=0, B=1, C=2, D=3, E=4, F=5.
  sim_env env(21);
  fabric_params fp;
  fp.proto = protocol::ndp;
  single_switch topo(env, 6, gbps(10), from_us(1), make_queue_factory(env, fp));
  flow_factory flows(env, topo);
  std::vector<flow*> fs;
  flow_options o;  // unbounded
  fs.push_back(&flows.create(protocol::ndp, 0, 1, o));  // A->B
  fs.push_back(&flows.create(protocol::ndp, 0, 2, o));  // A->C
  fs.push_back(&flows.create(protocol::ndp, 0, 3, o));  // A->D
  fs.push_back(&flows.create(protocol::ndp, 0, 4, o));  // A->E
  fs.push_back(&flows.create(protocol::ndp, 5, 4, o));  // F->E

  env.events.run_until(from_ms(5));
  std::vector<std::uint64_t> base;
  for (flow* f : fs) base.push_back(f->payload_received());
  env.events.run_until(from_ms(25));
  std::vector<double> gbps_measured(fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    gbps_measured[i] = static_cast<double>(fs[i]->payload_received() - base[i]) *
                       8 / to_sec(from_ms(20)) / 1e9;
  }

  const char* names[] = {"A->B", "A->C", "A->D", "A->E", "F->E"};
  const double paper[] = {2.51, 2.50, 2.51, 2.38, 7.55};
  std::printf("%-6s %-10s %-10s\n", "flow", "measured", "paper");
  double total_a = 0, total_e = 0;
  for (int i = 0; i < 5; ++i) {
    std::printf("%-6s %-10.2f %-10.2f\n", names[i], gbps_measured[i], paper[i]);
    if (i < 4) total_a += gbps_measured[i];
    if (i >= 3) total_e += gbps_measured[i];
  }
  std::printf("total from A: %.2f (paper 9.90)  total to E: %.2f (paper 9.93)\n",
              total_a, total_e);
  bench::print_row("BM_sender_limited", {{"A_to_E_gbps", gbps_measured[3]},
                                         {"F_to_E_gbps", gbps_measured[4]},
                                         {"total_from_A_gbps", total_a},
                                         {"total_to_E_gbps", total_e}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 21: sender-limited topology (A->B,C,D,E and F->E)",
      "A's four flows each ~2.4-2.5Gb/s (A's link full and evenly split); "
      "F->E ~7.5Gb/s (E's link full); no pulls wasted");
  run_sender_limited();
  return 0;
}
