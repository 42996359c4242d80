// Periodic goodput sampler: polls byte counters at a fixed interval and
// records per-interval rates (the time-series plots, e.g. Fig 19).
#pragma once

#include <functional>
#include <vector>

#include "net/sim_env.h"
#include "sim/eventlist.h"

namespace ndpsim {

class rate_sampler final : public event_source {
 public:
  /// `counter` returns a monotonically non-decreasing byte count.
  rate_sampler(sim_env& env, std::function<std::uint64_t()> counter,
               simtime_t interval);

  void start(simtime_t at);
  /// Stop polling (cancels the pending poll timer).
  void stop() { events().cancel(timer_); }
  void do_next_event() override;

  struct sample {
    simtime_t at;     ///< end of the interval
    double rate_bps;  ///< average rate over the interval
  };
  [[nodiscard]] const std::vector<sample>& samples() const { return samples_; }
  /// Average rate between the first and the last poll.
  [[nodiscard]] double overall_rate_bps() const;

 private:
  sim_env& env_;
  std::function<std::uint64_t()> counter_;
  simtime_t interval_;
  timer_handle timer_;
  std::uint64_t last_count_ = 0;
  simtime_t first_poll_ = -1;
  std::uint64_t first_count_ = 0;
  std::vector<sample> samples_;
};

}  // namespace ndpsim
