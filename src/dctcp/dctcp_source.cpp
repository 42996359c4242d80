#include "dctcp/dctcp_source.h"

#include <algorithm>

namespace ndpsim {

void dctcp_source::ecn_feedback(std::uint64_t newly_acked, bool echo) {
  constexpr double kG = 1.0 / 16.0;  // alpha's EWMA gain
  window_acked_ += newly_acked;
  if (echo) window_marked_ += newly_acked;

  // One observation window ~= one cwnd of acked bytes.
  if (bytes_acked() >= window_end_) {
    const double f =
        window_acked_ > 0
            ? static_cast<double>(window_marked_) /
                  static_cast<double>(window_acked_)
            : 0.0;
    alpha_ = (1.0 - kG) * alpha_ + kG * f;
    window_acked_ = 0;
    window_marked_ = 0;
    window_end_ = bytes_acked() + cwnd_;
    cut_this_window_ = false;
  }

  if (echo && !cut_this_window_) {
    cut_this_window_ = true;
    const auto cut = static_cast<std::uint64_t>(
        static_cast<double>(cwnd_) * alpha_ / 2.0);
    cwnd_ = std::max<std::uint64_t>(cwnd_ - cut, 2 * payload_per_packet());
    ssthresh_ = cwnd_;
  }
}

}  // namespace ndpsim
