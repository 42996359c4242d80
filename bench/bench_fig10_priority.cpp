// Fig 10: receiver-driven prioritization.  A host receives one 200KB short
// flow while six long flows hammer it.  With the short flow's PULLs placed
// in a higher priority class, its completion time stays within tens of
// microseconds of the idle-network time; without, it gets a 1/7 fair share.
#include "bench_util.h"
#include "harness/experiments.h"
#include "harness/flow_factory.h"
#include "topo/micro_topo.h"

namespace ndpsim {
namespace {

enum class mode { idle, with_priority, without_priority };

sample_set run_mode(mode m, std::uint64_t bytes, int trials) {
  sample_set fct_us;
  for (int t = 0; t < trials; ++t) {
    sim_env env(500 + t);
    fabric_params fp;
    fp.proto = protocol::ndp;
    single_switch topo(env, 8, gbps(10), from_us(1),
                       make_queue_factory(env, fp));
    flow_factory flows(env, topo);
    if (m != mode::idle) {
      for (std::uint32_t s = 0; s < 6; ++s) {
        flow_options o;  // unbounded long flows
        o.start = 0;
        flows.create(protocol::ndp, s, 7, o);
      }
      env.events.run_until(from_ms(1));  // long flows reach steady state
    }
    flow_options so;
    so.bytes = bytes;
    so.start = env.now() + static_cast<simtime_t>(env.rand_below(2000)) *
                               kNanosecond;
    so.pull_class = m == mode::with_priority ? 1 : 0;
    flow& f = flows.create(protocol::ndp, 6, 7, so);
    run_until_complete(env, {&f}, env.now() + from_ms(100));
    fct_us.add(f.fct_us());
  }
  return fct_us;
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 10: prioritizing a 200KB flow over six long flows to one host",
      "FCT with priority within ~50us of idle; without priority ~500us "
      "slower (fair 1/7 share)");
  for (const mode m :
       {mode::idle, mode::with_priority, mode::without_priority}) {
    const sample_set s = run_mode(m, 200'000, 15);
    bench::print_row(m == mode::idle               ? "idle"
                     : m == mode::with_priority    ? "with prioritization"
                                                   : "without prioritization",
                     {{"fct_us_median", s.median()},
                      {"fct_us_p90", s.quantile(0.90)}});
  }
  return 0;
}
