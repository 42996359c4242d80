// TCP NewReno sender: slow start, congestion avoidance, fast
// retransmit/recovery with NewReno partial-ACK handling, RTO with exponential
// backoff, optional SYN handshake (TFO-style zero-handshake when disabled)
// and optional ECN.  Single path (per-flow ECMP, chosen by the harness).
//
// Virtual hooks let DCTCP (ECN reaction) and MPTCP subflows (coupled window
// increase, connection-level data allocation) specialize behaviour.
#pragma once

#include <cstdint>
#include <map>

#include "net/endpoint.h"
#include "sim/eventlist.h"

namespace ndpsim {

class tcp_sink;

struct tcp_config {
  std::uint32_t mss_bytes = 9000;  ///< wire size of a full segment
  std::uint32_t iw_mss = 2;
  simtime_t min_rto = from_ms(200);  ///< Linux default; 200us = "aggressive"
  std::uint32_t max_cwnd_mss = 200;  ///< receive-window bound (~paper buffers)
  bool handshake = true;  ///< false = TFO-like: data in the first packet
  bool ecn = false;       ///< set ECT on data, react to ECN echoes
};

/// Completes (the endpoint's record) when a finite flow's last byte is
/// cumulatively acked.
class tcp_source : public packet_sink, public event_source, public endpoint {
 public:
  tcp_source(sim_env& env, tcp_config cfg, std::uint32_t flow_id);
  ~tcp_source() override;

  /// Wire up over a borrowed path set; single path (per-flow ECMP), so path
  /// 0 of the set is used. Registers the endpoints with the set's demuxes.
  /// `flow_bytes == 0` means unbounded.
  void connect(tcp_sink& sink, path_set paths, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start);

  /// Teardown hook (flow recycling): cancel the pending start/RTO timer,
  /// then unbind and drop the paths as every endpoint does.  Also invoked by
  /// the destructor, so a connected source can be destroyed at any point
  /// without dangling event-list entries or demux bindings.
  void disconnect() override;

  void receive(packet& p) override;  // ACKs
  void do_next_event() override;     // start + RTO timer

  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return snd_una_; }
  [[nodiscard]] simtime_t srtt() const { return srtt_; }
  [[nodiscard]] const tcp_config& config() const { return cfg_; }

 protected:
  /// Allocate up to `max` new payload bytes to this (sub)flow.  The base
  /// implementation serves the flow's own byte budget; MPTCP subflows claim
  /// from the connection-level stream instead.
  [[nodiscard]] virtual std::uint32_t claim_payload(std::uint32_t max);
  /// Grow cwnd after `newly_acked` bytes (slow start / AIMD).  MPTCP
  /// overrides with the coupled (LIA) increase.
  virtual void increase_window(std::uint64_t newly_acked);
  /// React to an ECN echo. Base TCP halves once per RTT; DCTCP overrides
  /// with the fractional alpha cut. Called for every ACK when ecn is on.
  virtual void ecn_feedback(std::uint64_t newly_acked, bool echo);
  /// Called when `newly_acked` bytes are cumulatively acknowledged (MPTCP
  /// aggregates sub-flow progress here).
  virtual void on_bytes_acked(std::uint64_t newly_acked);

  void enter_slow_start_after_timeout();
  [[nodiscard]] std::uint64_t inflight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint32_t payload_per_packet() const {
    return cfg_.mss_bytes - kHeaderBytes;
  }

  tcp_config cfg_;
  std::uint64_t cwnd_ = 0;      ///< bytes
  std::uint64_t ssthresh_ = 0;  ///< bytes

 private:
  struct segment {
    std::uint32_t len;
    simtime_t sent;
    bool retransmitted;
  };

  void start_flow();
  void try_send();
  void send_segment(std::uint64_t start, std::uint32_t len, bool is_rtx);
  void send_syn();
  void handle_ack(const packet& p);
  void retransmit_head();
  void arm_rto();
  void update_rtt(simtime_t sample);
  void check_complete();

  std::uint64_t flow_bytes_ = 0;  ///< 0 = unbounded
  std::uint64_t remaining_ = 0;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::map<std::uint64_t, segment> segments_;  ///< start -> in-flight segment

  bool established_ = false;
  bool syn_outstanding_ = false;
  unsigned dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  simtime_t srtt_ = 0;
  simtime_t rttvar_ = 0;
  simtime_t rto_ = 0;
  timer_handle rto_timer_;  ///< rescheduled on every ACK, cancelled when idle
  simtime_t last_ecn_cut_ = -1;

  bool started_ = false;
};

}  // namespace ndpsim
