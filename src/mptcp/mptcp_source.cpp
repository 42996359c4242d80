#include "mptcp/mptcp_source.h"

#include <algorithm>

namespace ndpsim {

std::uint32_t mptcp_subflow::claim_payload(std::uint32_t max) {
  return parent_.claim(max);
}

void mptcp_subflow::increase_window(std::uint64_t newly_acked) {
  if (cwnd_ < ssthresh_) {
    // Subflows slow-start independently, like regular TCP.
    tcp_source::increase_window(newly_acked);
    return;
  }
  const auto [w_total, w_max] = parent_.window_totals();
  const double mss = static_cast<double>(payload_per_packet());
  const double w_r = static_cast<double>(cwnd_) / mss;
  if (w_total <= 0 || w_r <= 0) return;
  const double alpha = w_max / w_total;  // equal-RTT LIA
  const double inc_mss = std::min(alpha / (w_total / mss), 1.0 / w_r) *
                         (static_cast<double>(newly_acked) / mss);
  cwnd_ += static_cast<std::uint64_t>(inc_mss * mss);
  cwnd_ = std::min<std::uint64_t>(
      cwnd_, static_cast<std::uint64_t>(config().max_cwnd_mss) *
                 payload_per_packet());
}

void mptcp_subflow::on_bytes_acked(std::uint64_t newly_acked) {
  parent_.note_acked(newly_acked);
}

mptcp_source::mptcp_source(sim_env& env, tcp_config cfg, std::uint32_t flow_id)
    : endpoint(env, flow_id), cfg_(cfg) {}

void mptcp_source::connect(path_set paths, unsigned n_subflows,
                           std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint64_t flow_bytes, simtime_t start) {
  NDPSIM_ASSERT_MSG(!paths.empty(), "need at least one path");
  const std::size_t k = n_subflows == 0 ? paths.size() : n_subflows;
  flow_bytes_ = flow_bytes;
  remaining_ = flow_bytes == 0 ? UINT64_MAX : flow_bytes;
  for (std::size_t i = 0; i < k; ++i) {
    auto& sub = subflows_.emplace_back(std::make_unique<mptcp_subflow>(
        env_, cfg_, flow_id_ + static_cast<std::uint32_t>(i), *this));
    auto& sink = sinks_.emplace_back(std::make_unique<tcp_sink>(
        env_, flow_id_ + static_cast<std::uint32_t>(i)));
    // Subflows get an unbounded budget; actual allocation happens through
    // claim(), and completion is tracked at the connection level.
    sub->connect(*sink, paths.slice(i % paths.size()), src_host, dst_host,
                 /*flow_bytes=*/0, start);
  }
}

std::pair<double, double> mptcp_source::window_totals() const {
  double total = 0;
  double w_max = 0;
  for (const auto& s : subflows_) {
    const double w = static_cast<double>(s->cwnd_bytes());
    total += w;
    w_max = std::max(w_max, w);
  }
  return {total, w_max};
}

std::uint32_t mptcp_source::claim(std::uint32_t max) {
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(max, remaining_));
  remaining_ -= n;
  return n;
}

void mptcp_source::note_acked(std::uint64_t bytes) {
  total_acked_ += bytes;
  if (!complete() && flow_bytes_ > 0 && total_acked_ >= flow_bytes_) {
    mark_complete();
  }
}

std::uint64_t mptcp_source::payload_received() const {
  std::uint64_t total = 0;
  for (const auto& s : sinks_) total += s->payload_received();
  return total;
}

}  // namespace ndpsim
