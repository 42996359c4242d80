// FIFO queue family: plain drop-tail, DCTCP sharp-threshold ECN marking,
// DCQCN RED-style probabilistic ECN marking, and the two-band host priority
// queue used as end-host NICs.
#pragma once

#include "net/queue.h"
#include "net/ring_fifo.h"

namespace ndpsim {

/// Drop-tail FIFO with a byte capacity.
class drop_tail_queue : public queue_base {
 public:
  drop_tail_queue(sim_env& env, linkspeed_bps rate,
                  std::uint64_t capacity_bytes)
      : queue_base(env, rate), capacity_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t buffered_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return fifo_.size();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity_; }

 protected:
  void enqueue_arrival(packet& p) override {
    if (bytes_ + p.size_bytes > capacity_) {
      drop(p);
      return;
    }
    admit(p);
  }

  [[nodiscard]] packet* dequeue_next() override {
    if (fifo_.empty()) return nullptr;
    packet* p = fifo_.front();
    fifo_.pop_front();
    bytes_ -= p->size_bytes;
    return p;
  }

  void admit(packet& p) {
    bytes_ += p.size_bytes;
    p.enqueue_time = env_.now();
    fifo_.push_back(&p);
  }

  ring_fifo<packet*> fifo_;
  std::uint64_t bytes_ = 0;
  std::uint64_t capacity_;
};

/// DCTCP-style marking: CE is set on arriving ECT packets whenever the
/// instantaneous queue exceeds a sharp threshold K.
class ecn_threshold_queue final : public drop_tail_queue {
 public:
  ecn_threshold_queue(sim_env& env, linkspeed_bps rate,
                      std::uint64_t capacity_bytes, std::uint64_t mark_bytes)
      : drop_tail_queue(env, rate, capacity_bytes), mark_bytes_(mark_bytes) {}

 protected:
  void enqueue_arrival(packet& p) override {
    if (bytes_ + p.size_bytes > capacity_) {
      drop(p);
      return;
    }
    if (bytes_ > mark_bytes_ && p.has_flag(pkt_flag::ect)) {
      p.set_flag(pkt_flag::ce);
      count_mark();
    }
    admit(p);
  }

 private:
  std::uint64_t mark_bytes_;
};

/// RED-style probabilistic ECN marking (DCQCN congestion point): mark with
/// probability rising linearly from 0 at kmin to pmax at kmax, and always
/// above kmax.
class red_ecn_queue final : public drop_tail_queue {
 public:
  red_ecn_queue(sim_env& env, linkspeed_bps rate, std::uint64_t capacity_bytes,
                std::uint64_t kmin_bytes, std::uint64_t kmax_bytes, double pmax)
      : drop_tail_queue(env, rate, capacity_bytes),
        kmin_(kmin_bytes),
        kmax_(kmax_bytes),
        pmax_(pmax) {
    NDPSIM_ASSERT(kmin_ <= kmax_);
    NDPSIM_ASSERT(pmax_ >= 0.0 && pmax_ <= 1.0);
  }

 protected:
  void enqueue_arrival(packet& p) override {
    if (bytes_ + p.size_bytes > capacity_) {
      drop(p);
      return;
    }
    if (p.has_flag(pkt_flag::ect) && should_mark()) {
      p.set_flag(pkt_flag::ce);
      count_mark();
    }
    admit(p);
  }

 private:
  [[nodiscard]] bool should_mark() {
    if (bytes_ <= kmin_) return false;
    if (bytes_ >= kmax_) return true;
    const double frac = static_cast<double>(bytes_ - kmin_) /
                        static_cast<double>(kmax_ - kmin_);
    return env_.rand_unit() < frac * pmax_;
  }

  std::uint64_t kmin_;
  std::uint64_t kmax_;
  double pmax_;
};

/// End-host NIC queue: strict priority for control packets over data.
/// `data_capacity_bytes` bounds buffered data (0 = unbounded): window-based
/// transports need a finite NIC so self-congestion surfaces as loss instead
/// of an invisible standing queue; receiver-paced transports (NDP, DCQCN
/// under PFC) never build one and may leave it unbounded.  Control packets
/// are always admitted (they are tiny and real NICs prioritize them).
class host_priority_queue final : public queue_base {
 public:
  host_priority_queue(sim_env& env, linkspeed_bps rate,
                      std::uint64_t data_capacity_bytes = 0)
      : queue_base(env, rate), data_capacity_(data_capacity_bytes) {}

  [[nodiscard]] std::uint64_t buffered_bytes() const override {
    return bytes_;
  }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return packets_;
  }

 protected:
  void enqueue_arrival(packet& p) override {
    if (p.is_header_class()) {
      bytes_ += p.size_bytes;
      ++packets_;
      p.enqueue_time = env_.now();
      ctrl_.push_back(&p);
      return;
    }
    if (data_capacity_ != 0 && data_bytes_ + p.size_bytes > data_capacity_) {
      drop(p);
      return;
    }
    bytes_ += p.size_bytes;
    data_bytes_ += p.size_bytes;
    ++packets_;
    p.enqueue_time = env_.now();
    data_.push_back(&p);
  }

  [[nodiscard]] packet* dequeue_next() override {
    packet* p = nullptr;
    if (!ctrl_.empty()) {
      p = ctrl_.front();
      ctrl_.pop_front();
    } else if (!data_.empty()) {
      p = data_.front();
      data_.pop_front();
      data_bytes_ -= p->size_bytes;
    }
    if (p != nullptr) {
      bytes_ -= p->size_bytes;
      --packets_;
    }
    return p;
  }

 private:
  ring_fifo<packet*> ctrl_;
  ring_fifo<packet*> data_;
  std::uint64_t bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
  std::size_t packets_ = 0;  ///< ctrl_+data_ depth, kept incrementally
  std::uint64_t data_capacity_;
};

}  // namespace ndpsim
