// The per-host NDP pull pacer (paper §3.2).
//
// Each receiving host has exactly one pull queue shared by all connections it
// terminates.  One PULL is owed per arriving data packet or header.  PULLs
// are released paced so the data they elicit arrives at the host's link rate,
// serviced fairly (deficit round robin, quantum one pull) across connections
// within a priority class, and strictly by priority class across classes —
// which is how a receiver prioritizes straggler traffic (Fig 10).
#pragma once

#include <array>
#include <functional>

#include "net/ring_fifo.h"
#include "net/sim_env.h"
#include "sim/eventlist.h"

namespace ndpsim {

class ndp_sink;

inline constexpr std::size_t kPullClasses = 4;  ///< 0 = lowest priority

class pull_pacer final : public event_source {
 public:
  pull_pacer(sim_env& env, linkspeed_bps link_rate);

  /// One more pull owed to `sink`'s sender.
  void enqueue(ndp_sink& sink);

  /// Remove all pulls owed on behalf of `sink` (its transfer completed).
  /// The ring entry itself is dropped lazily, so the sink must stay alive
  /// until the pacer next rotates past it — use `remove` for teardown.
  void purge(ndp_sink& sink);

  /// Eagerly purge AND drop the ring entry: after this the pacer holds no
  /// pointer to `sink`, making it safe to destroy (flow recycling).
  void remove(ndp_sink& sink);

  /// Optional jitter on the pacing interval, used to replay the measured
  /// imperfect pull spacing of the Linux implementation (Figs 12/13).
  /// Receives the nominal interval, returns the interval to use.
  void set_interval_jitter(std::function<simtime_t(simtime_t)> jitter) {
    jitter_ = std::move(jitter);
  }

  void do_next_event() override;

  [[nodiscard]] std::size_t backlog() const { return backlog_; }
  [[nodiscard]] linkspeed_bps link_rate() const { return rate_; }

 private:
  void send_one();
  [[nodiscard]] bool any_pending() const;
  void schedule_if_needed();

  sim_env& env_;
  linkspeed_bps rate_;
  std::array<ring_fifo<ndp_sink*>, kPullClasses> rings_;
  std::function<simtime_t(simtime_t)> jitter_;
  simtime_t next_send_ = 0;
  simtime_t ideal_next_ = 0;  ///< unjittered schedule (rate conservation)
  timer_handle timer_;        ///< the one armed release timer
  std::size_t backlog_ = 0;
};

}  // namespace ndpsim
