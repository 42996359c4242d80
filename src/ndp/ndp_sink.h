// NDP receiver endpoint (paper §3.2).
//
// For every arriving data packet it immediately returns an ACK; for every
// trimmed header an immediate NACK (both high priority, unpaced, so the
// sender learns each packet's fate as early as possible).  For every arrival
// it owes one PULL, queued on the host's shared `pull_pacer`.  ACKs and NACKs
// echo the data packet's path id so the sender can keep its path scoreboard.
#pragma once

#include <cstdint>

#include "net/endpoint.h"
#include "ndp/pull_pacer.h"

namespace ndpsim {

struct ndp_sink_config {
  std::uint32_t mss_bytes = 9000;  ///< wire size of a full data packet
  std::uint8_t pull_class = 0;     ///< pull priority (0 = default/lowest)
};

/// Completes (the endpoint's record) when every packet of a finite flow has
/// been received; control packets ride the reverse routes of its paths.
class ndp_sink final : public packet_sink, public endpoint {
 public:
  ndp_sink(sim_env& env, pull_pacer& pacer, ndp_sink_config cfg,
           std::uint32_t flow_id);

  /// Teardown hook (flow recycling): leave the pull pacer's rings eagerly so
  /// the pacer holds no pointer to this sink, then unbind and drop the
  /// paths.  Idempotent; after this the sink can be destroyed safely even if
  /// the pacer lives on.
  void disconnect() override;

  void receive(packet& p) override;

  /// Fixed at construction (`ndp_sink_config::pull_class`).
  [[nodiscard]] std::uint8_t pull_class() const { return cfg_.pull_class; }

  // --- pull_pacer interface ---------------------------------------------
  /// Build and transmit one PULL packet (called by the pacer).
  void issue_pull();
  /// Wire size of the data packet one PULL elicits (pacing interval basis).
  [[nodiscard]] std::uint32_t pulled_wire_bytes() const {
    return cfg_.mss_bytes;
  }

 private:
  friend class pull_pacer;

  void send_control(packet_type type, std::uint64_t seqno,
                    std::uint16_t echo_path);
  void note_arrival_for_pull();

  pull_pacer& pacer_;
  ndp_sink_config cfg_;

  seq_tracker received_;
  std::uint64_t total_packets_ = 0;     ///< 0 until the `last` flag is seen
  std::uint64_t pull_counter_ = 0;

  // pacer bookkeeping
  std::uint64_t pulls_pending_ = 0;
  bool in_ring_ = false;
};

}  // namespace ndpsim
