// Cut Payload (CP) switch queue, as proposed by Cheng et al. (NSDI'14) and
// used as the baseline in the paper's Fig 2.
//
// A single FIFO: when the data buffer is full an arriving data packet is
// trimmed to its header, and the header joins the same FIFO at the tail.
// Headers are always admitted (they are 64 bytes against a multi-packet
// buffer; CP treats metadata as effectively free to store).  This is exactly
// what makes CP collapse under extreme overload: every offered packet
// forwards *something*, so at N-fold overload the link spends ~(N-1)*64
// bytes on headers per 9000-byte data packet — at large N only headers get
// forwarded.  Because the FIFO gives headers no priority, feedback is also
// delayed behind queued data ("tail loss costs at least one RTT"), and the
// deterministic trim-the-arrival rule preserves phase effects.  NDP's queue
// (ndp/ndp_queue.h) fixes all three.
#pragma once

#include "net/queue.h"
#include "net/ring_fifo.h"

namespace ndpsim {

class cp_queue final : public queue_base {
 public:
  /// `capacity_bytes` bounds buffered *data* bytes; headers and control
  /// packets are always admitted.
  cp_queue(sim_env& env, linkspeed_bps rate, std::uint64_t capacity_bytes)
      : queue_base(env, rate), capacity_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t buffered_bytes() const override {
    return bytes_;
  }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return fifo_.size();
  }
  [[nodiscard]] std::uint64_t buffered_data_bytes() const {
    return data_bytes_;
  }
  [[nodiscard]] std::uint64_t buffered_header_bytes() const {
    return header_bytes_;
  }

 protected:
  void enqueue_arrival(packet& p) override;
  [[nodiscard]] packet* dequeue_next() override;

 private:
  ring_fifo<packet*> fifo_;
  std::uint64_t bytes_ = 0;  ///< data + header total, kept incrementally
  std::uint64_t data_bytes_ = 0;
  std::uint64_t header_bytes_ = 0;
  std::uint64_t capacity_;
};

}  // namespace ndpsim
