// NDP sender endpoint (paper §3.2).
//
// Zero-RTT start: a full initial window is pushed at line rate, every packet
// of it carrying SYN plus its offset (so the connection can be established by
// whichever packet arrives first).  After that the sender only transmits in
// response to PULLs: retransmissions queued by NACKs first, then new data.
// Each data packet is sprayed on the next path of a random permutation; a
// per-path scoreboard temporarily retires underperforming paths (§3.2.3).
// Return-to-sender headers (§3.2.4) are resent immediately only when no more
// PULLs are expected or when ACKs dominate NACKs (asymmetric network);
// otherwise they queue for the next PULL, avoiding an incast echo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/endpoint.h"
#include "ndp/path_selector.h"
#include "sim/eventlist.h"

namespace ndpsim {

class ndp_sink;

struct ndp_source_config {
  std::uint32_t mss_bytes = 9000;  ///< full data packet wire size
  std::uint32_t iw_packets = 30;   ///< initial window (paper default, §6.2)
  simtime_t rto = from_ms(1.0);    ///< retransmission timeout backstop
  path_mode mode = path_mode::permutation;
  path_penalty_config penalty = {};
};

/// The former name of the NDP source's counters, still used by the
/// benchmark's `ndp_totals`.
using ndp_source_stats = transport_counters;

class ndp_source final : public packet_sink,
                         public event_source,
                         public endpoint {
 public:
  ndp_source(sim_env& env, ndp_source_config cfg, std::uint32_t flow_id);
  ~ndp_source() override;

  /// Wire up a connection over a borrowed multipath set (shared interned
  /// routes from `fabric_instance::paths()`, or a `manual_paths` build).
  /// Registers this source and the sink with the set's demuxes under the
  /// flow id, hands the control (reverse) routes to the sink and schedules
  /// the first-window push at `start`.  `flow_bytes == 0` means an unbounded
  /// flow.  If `rx_endpoint` is non-null it is registered as the receiving
  /// endpoint instead of the sink (used to interpose an `ndp_acceptor` for
  /// zero-RTT listen semantics); it must eventually hand packets to the sink.
  void connect(ndp_sink& sink, path_set paths, std::uint32_t src_host,
               std::uint32_t dst_host, std::uint64_t flow_bytes,
               simtime_t start, packet_sink* rx_endpoint = nullptr);

  /// Teardown hook (flow recycling): cancel the pending start/RTO timer,
  /// then unbind and drop the paths as every endpoint does.  Also invoked
  /// by the destructor, so a connected source can be destroyed at any point
  /// without leaving a dangling event-list entry or demux binding behind.
  void disconnect() override;

  void receive(packet& p) override;  // ACK/NACK/PULL/bounced headers
  void do_next_event() override;     // start push + RTO backstop

  /// Per-packet delivery latency samples (first send -> ACK seen), Fig 4.
  void set_latency_callback(std::function<void(simtime_t)> cb) {
    on_latency_ = std::move(cb);
  }

  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }

  static constexpr std::uint64_t kUnbounded = UINT64_MAX;

 private:
  enum class tx_state : std::uint8_t { inflight, nacked, bounced };

  static constexpr std::uint32_t kNoRtoPos = UINT32_MAX;

  struct sent_info {
    simtime_t first_sent = 0;
    simtime_t last_tx = 0;
    std::uint16_t last_path = 0;
    std::uint32_t rto_pos = kNoRtoPos;  ///< index into rto_heap_, or none
    tx_state state = tx_state::inflight;
  };

  /// Indexed min-heap entry: exactly one live deadline per outstanding
  /// packet.  `info` points at the packet's `outstanding_` node (node-based
  /// map, so the address is stable) and `info->rto_pos` tracks the entry's
  /// heap slot, making re-arm an in-place decrease/increase-key and ACK an
  /// O(log n) erase — no stale entries to pop and skip on timer fires.
  /// Ties order by seqno so heap order is data-independent of push history.
  struct rto_item {
    simtime_t deadline;
    std::uint64_t seqno;
    sent_info* info;
  };

  void start_flow();
  void handle_ack(const packet& p);
  void handle_nack(const packet& p);
  void handle_pull(const packet& p);
  void handle_bounce(packet& p);
  void send_data(std::uint64_t seqno, bool is_rtx);
  void send_next_from_pull();
  void queue_rtx(std::uint64_t seqno, tx_state why);
  void arm_rto(std::uint64_t seqno, sent_info& info, simtime_t deadline);
  void process_rto_heap();
  [[nodiscard]] static bool rto_before(const rto_item& a, const rto_item& b);
  void rto_sift_up(std::uint32_t i);
  void rto_sift_down(std::uint32_t i);
  void rto_fix(std::uint32_t i);
  /// Heap-only insert/update (no backstop-timer adjustment); arm_rto adds
  /// the timer handling on top.
  void rto_set_deadline(std::uint64_t seqno, sent_info& info,
                        simtime_t deadline);
  void rto_erase(sent_info& info);
  void rto_clear();
  [[nodiscard]] std::uint32_t payload_for(std::uint64_t seqno) const;
  void check_complete();

  ndp_source_config cfg_;
  std::uint32_t payload_per_packet_;

  std::unique_ptr<path_selector> selector_;

  std::uint64_t flow_bytes_ = 0;
  std::uint64_t total_packets_ = kUnbounded;
  std::uint64_t next_new_seq_ = 1;
  std::uint64_t highest_pull_ = 0;
  seq_tracker acked_;
  std::set<std::uint64_t> rtx_pending_;
  std::unordered_map<std::uint64_t, sent_info> outstanding_;
  std::vector<rto_item> rto_heap_;  ///< indexed min-heap (see rto_item)
  timer_handle rto_timer_;  ///< one backstop timer, armed for the earliest deadline

  bool started_ = false;
  bool first_window_phase_ = true;
  simtime_t last_pull_seen_ = -1;

  std::function<void(simtime_t)> on_latency_;
};

}  // namespace ndpsim
