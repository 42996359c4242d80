#include "stats/rate_sampler.h"

namespace ndpsim {

rate_sampler::rate_sampler(sim_env& env,
                           std::function<std::uint64_t()> counter,
                           simtime_t interval)
    : event_source(env.events),
      env_(env),
      counter_(std::move(counter)),
      interval_(interval) {
  NDPSIM_ASSERT(interval_ > 0);
}

void rate_sampler::start(simtime_t at) {
  timer_ = events().schedule_at(*this, at);
}

void rate_sampler::do_next_event() {
  const std::uint64_t count = counter_();
  if (first_poll_ < 0) {
    first_poll_ = env_.now();
    first_count_ = count;
  } else {
    const double bits = static_cast<double>(count - last_count_) * 8.0;
    samples_.push_back(
        sample{env_.now(), bits / to_sec(interval_) / 1.0});
  }
  last_count_ = count;
  timer_ = events().schedule_in(*this, interval_);
}

double rate_sampler::overall_rate_bps() const {
  if (first_poll_ < 0 || samples_.empty()) return 0.0;
  const simtime_t span = samples_.back().at - first_poll_;
  if (span <= 0) return 0.0;
  const double bits =
      static_cast<double>(last_count_ - first_count_) * 8.0;
  return bits / to_sec(span);
}

}  // namespace ndpsim
