#include "workload/closed_loop.h"

#include <cmath>

namespace ndpsim {

closed_loop_generator::closed_loop_generator(
    sim_env& env, std::size_t n_hosts, unsigned flows_per_host,
    const flow_size_distribution& sizes, simtime_t median_gap,
    flow_starter starter)
    : event_source(env.events),
      env_(env),
      n_hosts_(n_hosts),
      flows_per_host_(flows_per_host),
      sizes_(sizes),
      // median of Exp(lambda) = ln2 / lambda
      gap_lambda_(std::log(2.0) / to_sec(median_gap)),
      starter_(std::move(starter)) {
  NDPSIM_ASSERT(n_hosts_ >= 2);
  NDPSIM_ASSERT(flows_per_host_ >= 1);
}

void closed_loop_generator::start() {
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    for (unsigned i = 0; i < flows_per_host_; ++i) {
      // Stagger initial launches to avoid a synthetic synchronized burst.
      const simtime_t jitter =
          static_cast<simtime_t>(env_.rand_unit() * to_ns(from_us(100))) *
          kNanosecond;
      launch_flow(h, env_.now() + jitter);
    }
  }
}

void closed_loop_generator::launch_flow(std::uint32_t src, simtime_t at) {
  std::uint32_t dst;
  do {
    dst = static_cast<std::uint32_t>(env_.rand_below(n_hosts_));
  } while (dst == src);
  const std::uint64_t bytes = std::max<std::uint64_t>(1, sizes_.sample(env_.rng));
  const std::uint32_t id = next_id_++;
  fcts_.flow_started(id, at, bytes);
  starter_(src, dst, bytes, at, [this, id, src] {
    fcts_.flow_completed(id, env_.now());
    if (stopped_) return;
    const double u = std::max(1e-12, env_.rand_unit());
    const double gap_s = -std::log(u) / gap_lambda_;
    launch_flow(src, env_.now() + from_sec(gap_s));
  });
}

}  // namespace ndpsim
