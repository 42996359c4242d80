// DCQCN (Zhu et al., SIGCOMM 2015): rate-based congestion control for RoCEv2
// over lossless (PFC) Ethernet — the paper's low-latency RDMA baseline.
//
//  CP (switch): RED-style ECN marking (red_ecn_queue in net/).
//  NP (receiver, dcqcn_sink): on a CE-marked packet, send a CNP at most once
//     per 50us per flow.
//  RP (sender, dcqcn_source): paced at rate Rc.
//     On CNP:  Rt = Rc; Rc *= (1 - alpha/2); alpha = (1-g)*alpha + g.
//     Increase events fire on a timer (55us) and a byte counter (10 MiB); the
//     first F = 5 events are fast recovery (Rc = (Rt+Rc)/2), then additive
//     (Rt += Rai, 40 Mb/s), then hyper increase (Rt += Rhai, 400 Mb/s).
//     alpha decays by (1-g) every 55us without CNPs; g = 1/256.
//
// The fabric never drops (PFC), so reliability is trivial: cumulative ACKs
// confirm delivery and an RTO backstop exists only for completeness.
#pragma once

#include <cstdint>

#include "net/endpoint.h"
#include "sim/eventlist.h"

namespace ndpsim {

class dcqcn_sink;

struct dcqcn_config {
  std::uint32_t mss_bytes = 9000;
  linkspeed_bps line_rate = gbps(10);
};

struct dcqcn_stats {
  std::uint64_t cnps_received = 0;
};

/// Completes (the endpoint's record) when a finite flow's last packet is
/// cumulatively acked.
class dcqcn_source final : public packet_sink,
                           public event_source,
                           public endpoint {
 public:
  dcqcn_source(sim_env& env, dcqcn_config cfg, std::uint32_t flow_id);
  ~dcqcn_source() override;

  /// Single path (RoCE flows are pinned): path 0 of the borrowed set.
  void connect(dcqcn_sink& sink, path_set paths, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start);

  /// Teardown hook (flow recycling): cancel the pending start/pacing timer,
  /// then unbind and drop the paths as every endpoint does.  Also invoked by
  /// the destructor.
  void disconnect() override;

  void receive(packet& p) override;  // ACKs and CNPs
  void do_next_event() override;     // pacing + timers

  [[nodiscard]] linkspeed_bps current_rate() const { return rc_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] const dcqcn_stats& stats() const { return stats_; }

 private:
  void send_next_packet();
  void schedule_pacing();
  void on_cnp();
  void rate_increase_event();
  [[nodiscard]] std::uint32_t payload_per_packet() const {
    return cfg_.mss_bytes - kHeaderBytes;
  }

  dcqcn_config cfg_;

  std::uint64_t flow_bytes_ = 0;
  std::uint64_t total_packets_ = UINT64_MAX;
  std::uint64_t next_seq_ = 1;
  std::uint64_t acked_cum_ = 0;

  // RP rate state.
  linkspeed_bps rc_;  ///< current rate
  linkspeed_bps rt_;  ///< target rate
  double alpha_ = 1.0;
  unsigned timer_stage_ = 0;
  unsigned byte_stage_ = 0;
  std::uint64_t bytes_since_increase_ = 0;
  simtime_t last_increase_timer_ = 0;
  simtime_t last_alpha_update_ = 0;
  simtime_t last_cnp_ = -1;

  simtime_t next_send_ = 0;
  timer_handle pace_timer_;
  bool started_ = false;

  dcqcn_stats stats_;
};

/// NP: acks every data packet (cumulatively) and emits CNPs for CE marks at
/// most once per 50us, both on the reverse route of path 0.
class dcqcn_sink final : public packet_sink, public endpoint {
 public:
  dcqcn_sink(sim_env& env, std::uint32_t flow_id) : endpoint(env, flow_id) {}

  void receive(packet& p) override;

  [[nodiscard]] std::uint64_t payload_received() const override {
    return payload_;
  }
  [[nodiscard]] std::uint64_t cnps_sent() const { return cnps_; }

 private:
  void send_control(packet_type type, std::uint64_t ackno);

  seq_tracker received_;
  std::uint64_t payload_ = 0;
  std::uint64_t cnps_ = 0;
  simtime_t last_cnp_ = -from_sec(1);
};

}  // namespace ndpsim
