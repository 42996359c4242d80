// NDP/TCP coexistence switch port (paper §3, "Limitations of NDP").
//
// The paper's deployment answer for mixed datacenters: "serve NDP and TCP
// from different queues, fair-queuing between them. The TCP queue will be
// larger (100s of packets) while NDP's will be small (8 packets), coupled
// with a similarly sized header queue."
//
// This port composes a full `ndp_queue` (trimming, WRR, return-to-sender)
// with a TCP-side queue (drop-tail, or ECN-threshold for DCTCP traffic) and
// schedules between the two classes with byte-deficit round robin, so
// neither transport can starve the other on a shared link.
#pragma once

#include <memory>

#include "net/fifo_queues.h"
#include "ndp/ndp_queue.h"

namespace ndpsim {

struct coexist_config {
  ndp_queue_config ndp = {};            ///< small trimming queue
  std::uint64_t tcp_capacity_bytes = 200ull * 9000;
  std::uint64_t tcp_ecn_threshold_bytes = 0;  ///< 0 = plain drop-tail
  std::uint32_t quantum_bytes = 9000;   ///< DRR quantum per class
};

class coexist_queue final : public queue_base {
 public:
  coexist_queue(sim_env& env, linkspeed_bps rate, coexist_config cfg);

  [[nodiscard]] std::uint64_t buffered_bytes() const override {
    return ndp_side_->buffered_bytes() + tcp_side_->buffered_bytes();
  }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return ndp_side_->buffered_packets() + tcp_side_->buffered_packets();
  }

  /// Bytes each class has put on the wire (fairness accounting).
  [[nodiscard]] std::uint64_t ndp_bytes_sent() const { return ndp_sent_; }
  [[nodiscard]] std::uint64_t tcp_bytes_sent() const { return tcp_sent_; }

  /// True if the packet is served from the TCP-side queue.
  [[nodiscard]] static bool is_tcp_class(const packet& p) {
    return p.type == packet_type::tcp_data || p.type == packet_type::tcp_ack;
  }

  /// The composite and both children share one telemetry slot: the port's
  /// enq/deq are counted by the composite's receive/service path (the
  /// children never get the wire), while drops, trims and ECN marks happen
  /// inside the children's admission hooks — all land in the same counters,
  /// so the port satisfies the queue conservation law as a whole.
  void set_telemetry(telemetry_slot t) override {
    queue_base::set_telemetry(t);
    ndp_side_->set_telemetry(t);
    tcp_side_->set_telemetry(t);
  }

 protected:
  void enqueue_arrival(packet& p) override;
  [[nodiscard]] packet* dequeue_next() override;

 private:
  coexist_config cfg_;
  std::unique_ptr<ndp_queue> ndp_side_;
  std::unique_ptr<queue_base> tcp_side_;  // drop_tail or ecn_threshold
  std::int64_t ndp_deficit_ = 0;
  std::int64_t tcp_deficit_ = 0;
  bool serve_ndp_next_ = true;
  std::uint64_t ndp_sent_ = 0;
  std::uint64_t tcp_sent_ = 0;
};

}  // namespace ndpsim
