// Fig 12: distribution of the spacing between PULL packets for 1500B and
// 9000B data packets, replaying the measured imperfect pacing of the Linux
// prototype (host-artifact model, see src/host/artifacts.h).
#include "bench_util.h"
#include "host/artifacts.h"
#include "stats/cdf.h"

namespace ndpsim {
namespace {

void run_case(std::uint32_t pkt) {
  const simtime_t nominal = serialization_time(pkt, gbps(10));
  sim_env env(8);
  auto jitter = make_pull_jitter(env, pkt);
  sample_set s;
  for (int i = 0; i < 100000; ++i) s.add(to_us(jitter(nominal)));
  bench::print_row(std::to_string(pkt) + "B packets",
                   {{"target_us", to_us(nominal)},
                    {"p05_us", s.quantile(0.05)},
                    {"median_us", s.median()},
                    {"p90_us", s.quantile(0.90)},
                    {"p99_us", s.quantile(0.99)}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 12: PULL spacing at the sender for 1500B and 9000B packets",
      "medians match the 1.2us / 7.2us targets; the 1500B curve has early "
      "back-to-back pulls and a multi-x tail, the 9000B curve is tight");
  run_case(1500);
  run_case(9000);
  return 0;
}
