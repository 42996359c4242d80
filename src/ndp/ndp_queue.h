// The NDP switch output port (paper §3.1).
//
// Two queues per port: a small low-priority queue for data packets and a
// high-priority queue for trimmed headers, ACKs, NACKs and PULLs.  Three
// changes relative to Cut Payload (CP):
//   1. headers/control are *priority* queued (earliest possible feedback);
//   2. weighted round robin between header and data queues (default 10
//      headers per data packet) prevents congestion collapse where headers
//      starve data;
//   3. on data overflow the switch trims either the arriving packet or the
//      packet at the tail of the data queue with 50% probability each,
//      breaking up phase effects.
// If the header queue itself overflows, the switch can return the header to
// its sender (return-to-sender) by reversing the packet onto the reverse
// route from this switch; otherwise the header is dropped.
#pragma once

#include "net/queue.h"
#include "net/ring_fifo.h"

namespace ndpsim {

struct ndp_queue_config {
  std::uint64_t data_capacity_bytes = 8 * 9000;    ///< paper: 8 full packets
  std::uint64_t header_capacity_bytes = 8 * 9000;  ///< same memory as data q
  unsigned wrr_headers_per_data = 10;  ///< WRR ratio under contention
  bool enable_rts = true;             ///< return-to-sender on header overflow
  bool enable_trimming = true;        ///< if false: drop-tail on data (ablation)
  bool random_trim_position = true;   ///< coin-flip arriving/tail (ablation)
};

class ndp_queue final : public queue_base {
 public:
  ndp_queue(sim_env& env, linkspeed_bps rate, ndp_queue_config cfg)
      : queue_base(env, rate), cfg_(cfg) {}

  [[nodiscard]] std::uint64_t buffered_bytes() const override {
    return data_bytes_ + hdr_bytes_;
  }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return data_.size() + hdr_.size();
  }
  [[nodiscard]] const ndp_queue_config& config() const { return cfg_; }

  /// Trim a data packet to a header in place (shared with the P4 pipeline
  /// emulation, which must behave identically).
  static void trim_packet(packet& p) {
    p.set_flag(pkt_flag::trimmed);
    p.size_bytes = kHeaderBytes;
    p.payload_bytes = 0;
  }

 protected:
  void enqueue_arrival(packet& p) override;
  [[nodiscard]] packet* dequeue_next() override;

 private:
  void admit_header(packet& p);
  void admit_data(packet& p);
  /// Send a header back towards its source (return-to-sender). Falls back to
  /// dropping when the packet cannot be reversed.
  void bounce_or_drop(packet& p);

  ndp_queue_config cfg_;
  ring_fifo<packet*> data_;
  ring_fifo<packet*> hdr_;
  std::uint64_t data_bytes_ = 0;
  std::uint64_t hdr_bytes_ = 0;
  unsigned hdrs_since_data_ = 0;
};

}  // namespace ndpsim
