// NDP receiver endpoint (paper §3.2).
//
// For every arriving data packet it immediately returns an ACK; for every
// trimmed header an immediate NACK (both high priority, unpaced, so the
// sender learns each packet's fate as early as possible).  For every arrival
// it owes one PULL, queued on the host's shared `pull_pacer`.  ACKs and NACKs
// echo the data packet's path id so the sender can keep its path scoreboard.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "net/packet.h"
#include "net/path_set.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "ndp/pull_pacer.h"

namespace ndpsim {

struct ndp_sink_config {
  std::uint32_t mss_bytes = 9000;  ///< wire size of a full data packet
  std::uint8_t pull_class = 0;     ///< pull priority (0 = default/lowest)
};

struct ndp_sink_stats {
  std::uint64_t duplicate_packets = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t payload_bytes = 0;
};

class ndp_sink final : public packet_sink {
 public:
  ndp_sink(sim_env& env, pull_pacer& pacer, ndp_sink_config cfg,
           std::uint32_t flow_id);

  /// Bind the path set whose reverse routes are the control routes towards
  /// the sender. Borrowed; the path owner keeps the routes alive.
  void bind(path_set paths, std::uint32_t local_host,
            std::uint32_t remote_host);

  /// Teardown hook (flow recycling): leave the pull pacer's rings eagerly so
  /// the pacer holds no pointer to this sink, and drop the borrowed path
  /// view.  Idempotent; after this the sink can be destroyed safely even if
  /// the pacer lives on.
  void disconnect();

  void receive(packet& p) override;

  /// Fires once, when every packet of a finite flow has been received.
  void set_complete_callback(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  /// Fixed at construction (`ndp_sink_config::pull_class`).
  [[nodiscard]] std::uint8_t pull_class() const { return cfg_.pull_class; }

  [[nodiscard]] bool complete() const {
    return total_packets_ != 0 && cum_received_ == total_packets_;
  }
  [[nodiscard]] const ndp_sink_stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t payload_received() const {
    return stats_.payload_bytes;
  }
  [[nodiscard]] simtime_t completion_time() const { return completion_time_; }
  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }

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
  void advance_cumulative();

  sim_env& env_;
  pull_pacer& pacer_;
  ndp_sink_config cfg_;
  std::uint32_t flow_id_;
  std::uint32_t local_host_ = 0;
  std::uint32_t remote_host_ = 0;
  path_set paths_;  ///< control packets ride paths_.reverse(i)

  std::uint64_t cum_received_ = 0;      ///< all packets 1..cum received
  std::set<std::uint64_t> ooo_;         ///< received beyond cum
  std::uint64_t total_packets_ = 0;     ///< 0 until the `last` flag is seen
  std::uint64_t pull_counter_ = 0;
  simtime_t completion_time_ = -1;

  // pacer bookkeeping
  std::uint64_t pulls_pending_ = 0;
  bool in_ring_ = false;

  ndp_sink_stats stats_;
  std::function<void()> on_complete_;
};

}  // namespace ndpsim
