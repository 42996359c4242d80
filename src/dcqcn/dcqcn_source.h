// DCQCN (Zhu et al., SIGCOMM 2015): rate-based congestion control for RoCEv2
// over lossless (PFC) Ethernet — the paper's low-latency RDMA baseline.
//
//  CP (switch): RED-style ECN marking (red_ecn_queue in net/).
//  NP (receiver): on a CE-marked packet, send a CNP at most once per
//     `cnp_interval` (50us) per flow — see dcqcn_sink.
//  RP (sender, this class): paced at rate Rc.
//     On CNP:  Rt = Rc; Rc *= (1 - alpha/2); alpha = (1-g)*alpha + g.
//     Increase events fire on a timer (55us) and a byte counter; the first
//     `f_stages` events are fast recovery (Rc = (Rt+Rc)/2), then additive
//     (Rt += Rai), then hyper increase (Rt += Rhai).
//     alpha decays by (1-g) every `alpha_timer` without CNPs.
//
// The fabric never drops (PFC), so reliability is trivial: cumulative ACKs
// confirm delivery and an RTO backstop exists only for completeness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "net/packet.h"
#include "net/path_set.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "sim/eventlist.h"

namespace ndpsim {

class dcqcn_sink;

struct dcqcn_config {
  std::uint32_t mss_bytes = 9000;
  linkspeed_bps line_rate = gbps(10);
  linkspeed_bps min_rate = mbps(10);
  linkspeed_bps rai = mbps(40);    ///< additive increase step
  linkspeed_bps rhai = mbps(400);  ///< hyper increase step
  double g = 1.0 / 256.0;
  simtime_t increase_timer = from_us(55);
  simtime_t alpha_timer = from_us(55);
  std::uint64_t byte_counter = 10u * 1024 * 1024;
  unsigned f_stages = 5;
};

struct dcqcn_stats {
  std::uint64_t packets_sent = 0;
  std::uint64_t cnps_received = 0;
};

class dcqcn_source final : public packet_sink, public event_source {
 public:
  dcqcn_source(sim_env& env, dcqcn_config cfg, std::uint32_t flow_id);
  ~dcqcn_source() override;

  /// Single path (RoCE flows are pinned): path 0 of the borrowed set.
  void connect(dcqcn_sink& sink, path_set paths, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start);

  /// Teardown hook (flow recycling): cancel the pending start/pacing timer
  /// and unbind both demux endpoints.  Idempotent; also invoked by the
  /// destructor.
  void disconnect();

  void receive(packet& p) override;  // ACKs and CNPs
  void do_next_event() override;     // pacing + timers

  void set_complete_callback(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  [[nodiscard]] linkspeed_bps current_rate() const { return rc_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] const dcqcn_stats& stats() const { return stats_; }
  [[nodiscard]] bool complete() const { return completed_; }
  [[nodiscard]] simtime_t completion_time() const { return completion_time_; }
  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }

 private:
  void send_next_packet();
  void schedule_pacing();
  void on_cnp();
  void rate_increase_event();
  [[nodiscard]] std::uint32_t payload_per_packet() const {
    return cfg_.mss_bytes - kHeaderBytes;
  }

  sim_env& env_;
  dcqcn_config cfg_;
  std::uint32_t flow_id_;
  dcqcn_sink* sink_ = nullptr;
  path_set paths_;  ///< borrowed; path 0 is the flow's route pair
  const route* fwd_route_ = nullptr;
  const route* rev_route_ = nullptr;
  std::uint32_t src_host_ = 0;
  std::uint32_t dst_host_ = 0;

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
  simtime_t start_time_ = 0;
  bool started_ = false;
  bool completed_ = false;
  simtime_t completion_time_ = -1;

  dcqcn_stats stats_;
  std::function<void()> on_complete_;
};

/// NP: acks every data packet (cumulatively) and emits CNPs for CE marks at
/// most once per `cnp_interval`.
class dcqcn_sink final : public packet_sink {
 public:
  dcqcn_sink(sim_env& env, std::uint32_t flow_id,
             simtime_t cnp_interval = from_us(50))
      : env_(env), flow_id_(flow_id), cnp_interval_(cnp_interval) {}

  void bind(const route* rev_route, std::uint32_t local_host,
            std::uint32_t remote_host) {
    rev_route_ = rev_route;
    local_host_ = local_host;
    remote_host_ = remote_host;
  }

  void receive(packet& p) override;

  [[nodiscard]] std::uint64_t payload_received() const { return payload_; }
  [[nodiscard]] std::uint64_t cnps_sent() const { return cnps_; }

 private:
  void send_control(packet_type type, std::uint64_t ackno);

  sim_env& env_;
  std::uint32_t flow_id_;
  simtime_t cnp_interval_;
  const route* rev_route_ = nullptr;
  std::uint32_t local_host_ = 0;
  std::uint32_t remote_host_ = 0;
  std::uint64_t cum_ = 0;
  std::set<std::uint64_t> ooo_;
  std::uint64_t payload_ = 0;
  std::uint64_t cnps_ = 0;
  simtime_t last_cnp_ = -from_sec(1);
};

}  // namespace ndpsim
