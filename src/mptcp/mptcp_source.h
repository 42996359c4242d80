// Multipath TCP with LIA coupled congestion control (Raiciu et al.,
// SIGCOMM 2011) — the paper's high-throughput baseline (8 subflows).
//
// Each subflow is a TCP NewReno instance pinned to one path.  Subflows claim
// payload from the shared connection-level stream, so a finite flow finishes
// when the union of subflow progress covers it.  Subflows slow-start
// independently (standard MPTCP); in congestion avoidance the increase is
// coupled:
//   w_r += min( alpha / w_total , 1 / w_r )  per MSS acked,
//   alpha = w_total * max_s(w_s / rtt_s^2) / (sum_s w_s / rtt_s)^2
// which for equal datacenter RTTs reduces to alpha = max_s(w_s) / w_total.
#pragma once

#include <memory>
#include <vector>

#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"

namespace ndpsim {

class mptcp_source;

/// One MPTCP subflow: TCP with the coupled increase, claiming payload from
/// the parent connection.
class mptcp_subflow final : public tcp_source {
 public:
  mptcp_subflow(sim_env& env, tcp_config cfg, std::uint32_t flow_id,
                mptcp_source& parent)
      : tcp_source(env, cfg, flow_id), parent_(parent) {}

 protected:
  std::uint32_t claim_payload(std::uint32_t max) override;
  void increase_window(std::uint64_t newly_acked) override;
  void on_bytes_acked(std::uint64_t newly_acked) override;

 private:
  mptcp_source& parent_;
};

/// The connection: owns the subflows and their sinks (subflow i has flow id
/// `flow_id() + i`) and completes (the endpoint's record) when the subflows'
/// acked bytes cover a finite flow.  It sends and receives nothing itself.
class mptcp_source final : public endpoint {
 public:
  mptcp_source(sim_env& env, tcp_config cfg, std::uint32_t flow_id);

  /// One subflow per path (typically 8): subflow i is pinned to path
  /// i % paths.size() of the borrowed set, so more subflows than distinct
  /// paths share routes (which interning makes free).  `n_subflows == 0`
  /// means one subflow per path.
  void connect(path_set paths, unsigned n_subflows, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start);

  /// Teardown hook (flow recycling): disconnect every subflow (cancel its
  /// timers, unbind its demux entries).  Idempotent.
  void disconnect() override {
    for (auto& sf : subflows_) sf->disconnect();
  }

  [[nodiscard]] std::uint64_t bytes_acked() const { return total_acked_; }
  [[nodiscard]] std::size_t n_subflows() const { return subflows_.size(); }
  [[nodiscard]] tcp_source& subflow(std::size_t i) { return *subflows_[i]; }
  /// The counters of every subflow and its sink, summed (the connection
  /// itself sends and receives nothing).
  [[nodiscard]] transport_counters subflow_stats() const;
  /// Payload received over every subflow.
  [[nodiscard]] std::uint64_t payload_received() const override {
    return subflow_stats().payload_bytes;
  }

  /// {sum of subflow windows, max subflow window}, in bytes.
  [[nodiscard]] std::pair<double, double> window_totals() const;

 private:
  friend class mptcp_subflow;
  [[nodiscard]] std::uint32_t claim(std::uint32_t max);
  void note_acked(std::uint64_t bytes);

  tcp_config cfg_;
  std::vector<std::unique_ptr<mptcp_subflow>> subflows_;
  std::vector<std::unique_ptr<tcp_sink>> sinks_;
  std::uint64_t flow_bytes_ = 0;
  std::uint64_t remaining_ = 0;
  std::uint64_t total_acked_ = 0;
};

}  // namespace ndpsim
