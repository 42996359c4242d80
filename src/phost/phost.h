// pHost (Gao et al., CoNEXT 2015): receiver-driven scheduling over a plain
// drop-tail fabric with per-packet spraying — the paper's §6.2 "who needs
// packet trimming?" baseline.
//
// Model (faithful to pHost's structure, simplified bookkeeping):
//  * the sender announces a flow with an RTS carrying its size, and bursts a
//    "free token" window at line rate in the first RTT;
//  * the receiver paces tokens at its link rate, round-robin across active
//    flows; a token carries a cumulative credit plus the lowest sequence the
//    receiver is still missing (its loss-recovery hint);
//  * tokens stop being issued for a flow once enough credit is outstanding
//    (12 tokens); credit is replenished by arrivals or, after a 300us token
//    timeout, assumed lost and re-issued.  Data lost in the fabric (there is
//    no trimming, and buffers are 8 packets) therefore costs at least a
//    token timeout — exactly the failure mode the paper contrasts NDP
//    against.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "net/endpoint.h"
#include "ndp/path_selector.h"
#include "sim/eventlist.h"

namespace ndpsim {

class phost_sink;

struct phost_config {
  std::uint32_t mss_bytes = 9000;
};

class phost_source final : public packet_sink,
                           public event_source,
                           public endpoint {
 public:
  phost_source(sim_env& env, phost_config cfg, std::uint32_t flow_id);
  ~phost_source() override;

  /// Wire up over a borrowed multipath set (data is sprayed per packet).
  void connect(phost_sink& sink, path_set paths, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start);

  /// Teardown hook (flow recycling): cancel the pending start event, then
  /// unbind and drop the paths as every endpoint does.  Also invoked by the
  /// destructor.
  void disconnect() override;

  void receive(packet& p) override;  // tokens
  void do_next_event() override;     // start

 private:
  void send_data(std::uint64_t seqno);
  [[nodiscard]] std::uint32_t payload_for(std::uint64_t seqno) const;

  phost_config cfg_;
  std::unique_ptr<path_selector> selector_;
  std::uint64_t flow_bytes_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t next_unsent_ = 1;
  std::uint64_t credit_used_ = 0;
  timer_handle start_timer_;  ///< the one scheduled start event
  bool started_ = false;
};

/// Per-receiving-host token pacer: round-robin across its active flows.
class phost_token_pacer final : public event_source {
 public:
  phost_token_pacer(sim_env& env, linkspeed_bps rate);

  void activate(phost_sink& sink);
  void deactivate(phost_sink& sink);
  /// Eagerly deactivate AND drop the ring entry: after this the pacer holds
  /// no pointer to `sink`, making it safe to destroy (flow recycling).
  void remove(phost_sink& sink);
  void kick();  ///< re-evaluate after state changes

  void do_next_event() override;

 private:
  [[nodiscard]] phost_sink* pick_next();

  sim_env& env_;
  linkspeed_bps rate_;
  std::deque<phost_sink*> ring_;
  simtime_t next_send_ = 0;
  timer_handle timer_;
};

/// Completes (the endpoint's record) when every packet of the flow has been
/// received; tokens ride the reverse routes of its paths.
class phost_sink final : public packet_sink, public endpoint {
 public:
  phost_sink(sim_env& env, phost_token_pacer& pacer, phost_config cfg,
             std::uint32_t flow_id);

  void receive(packet& p) override;  // RTS + data

  /// Teardown hook (flow recycling): leave the token pacer's ring eagerly,
  /// then unbind and drop the paths.  Idempotent.
  void disconnect() override;

  // pacer interface
  [[nodiscard]] bool wants_token() const;
  void issue_token();
  [[nodiscard]] std::uint32_t token_wire_bytes() const {
    return cfg_.mss_bytes;
  }

 private:
  friend class phost_token_pacer;

  phost_token_pacer& pacer_;
  phost_config cfg_;

  bool active_ = false;     ///< RTS seen, not complete
  bool in_ring_ = false;
  std::uint64_t total_packets_ = 0;
  seq_tracker received_;
  std::uint64_t tokens_granted_ = 0;  ///< cumulative credit sent
  simtime_t last_arrival_ = 0;
};

}  // namespace ndpsim
