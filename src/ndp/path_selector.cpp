#include "ndp/path_selector.h"

#include <algorithm>

namespace ndpsim {

path_selector::path_selector(sim_env& env, std::size_t n_paths, path_mode mode,
                             path_penalty_config penalty)
    : env_(env), mode_(mode), penalty_(penalty), stats_(n_paths) {
  NDPSIM_ASSERT_MSG(n_paths > 0, "need at least one path");
  NDPSIM_ASSERT(n_paths <= UINT16_MAX);
  reshuffle();
}

std::uint16_t path_selector::next() {
  switch (mode_) {
    case path_mode::single:
      return 0;
    case path_mode::random_per_packet:
      return static_cast<std::uint16_t>(env_.rand_below(stats_.size()));
    case path_mode::permutation:
      break;
  }
  if (cursor_ >= order_.size()) reshuffle();
  return order_[cursor_++];
}

std::uint16_t path_selector::next_avoiding(std::uint16_t avoid) {
  if (stats_.size() == 1) return 0;
  std::uint16_t p = next();
  if (p == avoid) p = next();
  return p;
}

void path_selector::record_ack(std::uint16_t path) {
  NDPSIM_ASSERT(path < stats_.size());
  stats_[path].acks += 1;
}

void path_selector::record_nack(std::uint16_t path) {
  NDPSIM_ASSERT(path < stats_.size());
  stats_[path].nacks += 1;
}

void path_selector::record_loss(std::uint16_t path) {
  NDPSIM_ASSERT(path < stats_.size());
  stats_[path].losses += 1;
}

bool path_selector::is_excluded(std::uint16_t path) const {
  NDPSIM_ASSERT(path < stats_.size());
  return stats_[path].excluded_until > env_.now();
}

void path_selector::reshuffle() {
  if (penalty_.enabled) evaluate_penalties();
  order_.clear();
  for (std::uint16_t i = 0; i < stats_.size(); ++i) {
    if (!is_excluded(i)) order_.push_back(i);
  }
  if (order_.empty()) {
    // Everything penalized: fall back to the full set rather than stalling.
    order_.resize(stats_.size());
    std::iota(order_.begin(), order_.end(), std::uint16_t{0});
  }
  std::shuffle(order_.begin(), order_.end(), env_.rng);
  cursor_ = 0;
}

void path_selector::evaluate_penalties() {
  // Exclude a path when its NACK fraction exceeds the rest's
  // * kNackFactor + kNackOffset, or its losses exceed the rest's mean
  // * kLossFactor + kLossOffset.
  constexpr double kNackFactor = 2.0;
  constexpr double kNackOffset = 0.10;
  constexpr double kLossFactor = 3.0;
  constexpr double kLossOffset = 2.0;
  // Per-reshuffle decay of the counters, so judgements track recent
  // behaviour ("temporarily removes outliers").
  constexpr double kDecay = 0.98;
  double total_acks = 0;
  double total_nacks = 0;
  double total_losses = 0;
  for (const auto& s : stats_) {
    total_acks += s.acks;
    total_nacks += s.nacks;
    total_losses += s.losses;
  }
  for (auto& s : stats_) {
    // Compare each path against the rest of the set (leave-one-out), so a
    // single bad path cannot hide by inflating the global average.
    const double other_samples = (total_acks - s.acks) + (total_nacks - s.nacks);
    const double other_frac =
        other_samples > 0 ? (total_nacks - s.nacks) / other_samples : 0.0;
    bool exclude = false;
    const double samples = s.acks + s.nacks;
    if (samples >= penalty_.min_samples) {
      const double frac = s.nacks / samples;
      if (frac > other_frac * kNackFactor + kNackOffset) {
        exclude = true;
      }
    }
    const double other_losses =
        (total_losses - s.losses) / std::max(1.0, double(stats_.size() - 1));
    if (s.losses > other_losses * kLossFactor + kLossOffset) {
      exclude = true;
    }
    if (exclude) {
      s.excluded_until = env_.now() + penalty_.penalty_time;
      // The evidence has been acted on: judge the path afresh when it
      // re-enters after penalty_time, instead of letting the stale NACK/loss
      // history (only slowly decaying while the path carries no traffic)
      // immediately re-trigger the exclusion — that livelock would retire a
      // recovered path forever.
      s.acks = 0;
      s.nacks = 0;
      s.losses = 0;
    }
    s.acks *= kDecay;
    s.nacks *= kDecay;
    s.losses *= kDecay;
  }
}

}  // namespace ndpsim
