// Fig 8: time to perform a 1KB RPC over NDP, TCP Fast Open and TCP, with and
// without deep CPU sleep states (host-artifact model; see DESIGN.md).
#include "bench_util.h"
#include "host/rpc_latency_model.h"

namespace ndpsim {
namespace {

void run_case(rpc_stack stack, bool sleep) {
  sim_env env(7);
  const sample_set s = simulate_rpc_latency(env, stack, sleep, 20000);
  const char* name = stack == rpc_stack::ndp   ? "NDP"
                     : stack == rpc_stack::tfo ? "TFO"
                                               : "TCP";
  bench::print_row(std::string(name) + (sleep ? "" : " (no sleep)"),
                   {{"median_us", s.median()},
                    {"p10_us", s.quantile(0.10)},
                    {"p90_us", s.quantile(0.90)}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 8: 1KB RPC latency, NDP vs TFO vs TCP (+- deep sleep)",
      "NDP median ~62us; TFO ~4x and TCP ~5x NDP with sleep states; with "
      "sleep disabled TFO ~2x and TCP ~3x NDP");
  run_case(rpc_stack::ndp, true);
  run_case(rpc_stack::tfo, false);
  run_case(rpc_stack::tcp, false);
  run_case(rpc_stack::tfo, true);
  run_case(rpc_stack::tcp, true);
  return 0;
}
