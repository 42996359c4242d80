// Sender-side multipath selection (paper §3.1.1) and the path scoreboard
// robustness optimization (paper §3.2.3).
//
// Default mode walks a random permutation of the path list, reshuffling after
// each full pass: packets spread exactly evenly over paths while avoiding
// inter-sender synchronization.  `random_per_packet` models switch-based
// per-packet ECMP (iid uniform choice) for the load-balancing comparison.
//
// The scoreboard counts per-path ACKs, NACKs and losses.  When reshuffling,
// paths whose NACK fraction or loss count is an outlier are temporarily
// excluded (they re-enter after `penalty_time`), which is what lets NDP route
// around a degraded link (Fig 22).
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "net/sim_env.h"
#include "sim/time.h"

namespace ndpsim {

enum class path_mode : std::uint8_t {
  permutation,        ///< shuffled round robin (NDP default)
  random_per_packet,  ///< iid uniform (models switch per-packet ECMP)
  single,             ///< always path 0 (single-path transports)
};

/// When to retire a path (the thresholds themselves are constants in
/// `path_selector::evaluate_penalties`).
struct path_penalty_config {
  bool enabled = true;
  /// Minimum ACK+NACK samples on a path before it can be judged.  The
  /// counters decay by 0.98 per reshuffle, so a path's steady-state sample
  /// count is ~50; this must stay well below it or penalties never trigger.
  std::uint32_t min_samples = 16;
  simtime_t penalty_time = from_ms(2.0);
};

class path_selector {
 public:
  path_selector(sim_env& env, std::size_t n_paths, path_mode mode,
                path_penalty_config penalty = {});

  /// Pick the path for the next packet.
  [[nodiscard]] std::uint16_t next();

  /// Pick a path different from `avoid` (used for retransmissions, which the
  /// paper always sends on a different path).
  [[nodiscard]] std::uint16_t next_avoiding(std::uint16_t avoid);

  void record_ack(std::uint16_t path);
  void record_nack(std::uint16_t path);
  void record_loss(std::uint16_t path);

  [[nodiscard]] std::size_t n_paths() const { return stats_.size(); }
  [[nodiscard]] std::size_t n_usable() const { return order_.size(); }
  [[nodiscard]] bool is_excluded(std::uint16_t path) const;

 private:
  void reshuffle();
  void evaluate_penalties();

  struct path_stat {
    double acks = 0;
    double nacks = 0;
    double losses = 0;
    simtime_t excluded_until = 0;
  };

  sim_env& env_;
  path_mode mode_;
  path_penalty_config penalty_;
  std::vector<path_stat> stats_;
  std::vector<std::uint16_t> order_;  ///< current permutation (usable paths)
  std::size_t cursor_ = 0;
};

}  // namespace ndpsim
