#include "ndp/ndp_source.h"

#include <algorithm>

#include "ndp/ndp_sink.h"

namespace ndpsim {

ndp_source::ndp_source(sim_env& env, ndp_source_config cfg,
                       std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      endpoint(env, flow_id),
      cfg_(cfg),
      payload_per_packet_(cfg.mss_bytes - kHeaderBytes) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  NDPSIM_ASSERT(cfg_.iw_packets >= 1);
}

ndp_source::~ndp_source() { disconnect(); }

void ndp_source::disconnect() {
  events().cancel(rto_timer_);  // start event or RTO backstop, whichever is armed
  rto_clear();
  endpoint::disconnect();
}

void ndp_source::connect(ndp_sink& sink, path_set paths,
                         std::uint32_t src_host, std::uint32_t dst_host,
                         std::uint64_t flow_bytes, simtime_t start,
                         packet_sink* rx_endpoint) {
  connect_to(sink, paths, src_host, dst_host, this,
             rx_endpoint != nullptr ? rx_endpoint : &sink);
  flow_bytes_ = flow_bytes;
  total_packets_ =
      flow_bytes == 0
          ? kUnbounded
          : (flow_bytes + payload_per_packet_ - 1) / payload_per_packet_;

  selector_ = std::make_unique<path_selector>(env_, paths_.size(), cfg_.mode,
                                              cfg_.penalty);
  // The start event shares the RTO backstop's handle: it is the only pending
  // event until the first send arms a real deadline, and keeping it in the
  // handle lets disconnect() cancel a not-yet-started flow cleanly.
  rto_timer_ = events().schedule_at(*this, start);
}

void ndp_source::do_next_event() {
  if (!started_) {
    started_ = true;
    start_flow();
    return;
  }
  // Only the RTO backstop timer remains, and it fires exactly at the
  // earliest live deadline — no state-checking wake-ups.
  process_rto_heap();
}

void ndp_source::start_flow() {
  // Zero-RTT: push the whole initial window at once; the host NIC queue
  // serializes it at line rate. Every packet carries SYN (§3.2.2).
  const std::uint64_t n =
      std::min<std::uint64_t>(cfg_.iw_packets, total_packets_);
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    send_data(seq, /*is_rtx=*/false);
  }
  next_new_seq_ = n + 1;
}

std::uint32_t ndp_source::payload_for(std::uint64_t seqno) const {
  if (total_packets_ == kUnbounded || seqno < total_packets_) {
    return payload_per_packet_;
  }
  NDPSIM_ASSERT(seqno == total_packets_);
  const std::uint64_t sent_before = (seqno - 1) * payload_per_packet_;
  return static_cast<std::uint32_t>(flow_bytes_ - sent_before);
}

void ndp_source::send_data(std::uint64_t seqno, bool is_rtx) {
  std::uint16_t path;
  auto it = outstanding_.find(seqno);
  if (is_rtx && it != outstanding_.end()) {
    // The paper always retransmits on a different path.
    path = selector_->next_avoiding(it->second.last_path);
  } else {
    path = selector_->next();
  }

  const std::uint32_t payload = payload_for(seqno);
  packet& p = make_packet(packet_type::ndp_data, payload + kHeaderBytes,
                          paths_.forward(path));
  p.seqno = seqno;
  p.payload_bytes = payload;
  p.path_id = path;
  if (first_window_phase_) p.set_flag(pkt_flag::syn);
  if (seqno == total_packets_) p.set_flag(pkt_flag::last);
  if (is_rtx) p.set_flag(pkt_flag::rtx);
  p.reverse_rt = paths_.reverse(path);

  sent_info& info = outstanding_[seqno];
  if (info.first_sent == 0) info.first_sent = env_.now();
  info.last_tx = env_.now();
  info.last_path = path;
  info.state = tx_state::inflight;
  p.first_sent = info.first_sent;

  arm_rto(seqno, info, env_.now() + cfg_.rto);

  send_to_next_hop(p);
}

void ndp_source::receive(packet& p) {
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  switch (p.type) {
    case packet_type::ndp_ack:
      handle_ack(p);
      env_.pool.release(&p);
      break;
    case packet_type::ndp_nack:
      handle_nack(p);
      env_.pool.release(&p);
      break;
    case packet_type::ndp_pull:
      handle_pull(p);
      env_.pool.release(&p);
      break;
    case packet_type::ndp_data:
      NDPSIM_ASSERT_MSG(p.has_flag(pkt_flag::bounced),
                        "source received non-bounced data");
      handle_bounce(p);
      env_.pool.release(&p);
      break;
    default:
      NDPSIM_ASSERT_MSG(false, "unexpected packet type at ndp_source");
  }
}

void ndp_source::handle_ack(const packet& p) {
  ++counters_.acks_received;
  first_window_phase_ = false;
  selector_->record_ack(p.path_id);

  const std::uint64_t seq = p.seqno;
  auto it = outstanding_.find(seq);
  if (it != outstanding_.end()) {
    if (on_latency_) on_latency_(env_.now() - it->second.first_sent);
    rto_erase(it->second);  // before erase: the heap entry points at the node
    outstanding_.erase(it);
  }
  rtx_pending_.erase(seq);

  acked_.add(seq);
  check_complete();
}

void ndp_source::handle_nack(const packet& p) {
  ++counters_.nacks_received;
  first_window_phase_ = false;
  selector_->record_nack(p.path_id);
  queue_rtx(p.seqno, tx_state::nacked);
}

void ndp_source::queue_rtx(std::uint64_t seqno, tx_state why) {
  auto it = outstanding_.find(seqno);
  if (it == outstanding_.end()) return;  // already ACKed
  it->second.state = why;
  rtx_pending_.insert(seqno);
  // The packet is accounted for (receiver will PULL it); extend the RTO
  // backstop in case the PULL itself is lost.
  arm_rto(seqno, it->second, env_.now() + 4 * cfg_.rto);
}

void ndp_source::handle_pull(const packet& p) {
  ++counters_.pulls_received;
  last_pull_seen_ = env_.now();
  first_window_phase_ = false;
  // PULL counters tolerate reordering: a delayed pull arriving after a newer
  // one pulls nothing extra (§3.2.1).
  if (p.pullno <= highest_pull_) return;
  std::uint64_t to_send = p.pullno - highest_pull_;
  highest_pull_ = p.pullno;
  while (to_send-- > 0) send_next_from_pull();
}

void ndp_source::send_next_from_pull() {
  // Retransmissions first, then new data (§3.2).
  if (!rtx_pending_.empty()) {
    const std::uint64_t seq = *rtx_pending_.begin();
    rtx_pending_.erase(rtx_pending_.begin());
    auto it = outstanding_.find(seq);
    if (it != outstanding_.end()) {
      if (it->second.state == tx_state::nacked) ++counters_.rtx_after_nack;
      if (it->second.state == tx_state::bounced) {
        ++counters_.rtx_after_bounce;
      }
      send_data(seq, /*is_rtx=*/true);
    }
    return;
  }
  if (total_packets_ == kUnbounded || next_new_seq_ <= total_packets_) {
    send_data(next_new_seq_++, /*is_rtx=*/false);
  }
  // Otherwise: nothing left to send; the pull is simply unused.
}

void ndp_source::handle_bounce(packet& p) {
  ++counters_.bounces_received;
  const std::uint64_t seq = p.seqno;
  selector_->record_loss(p.path_id);
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;  // raced with an ACK of an rtx copy

  // §3.2.4: resend immediately only if (a) we are not expecting more PULLs
  // (every ACKed/NACKed packet has been matched by a PULL already), or
  // (b) ACKs dominate NACKs, indicating an asymmetric network where trying a
  // different path at once is the right call.  Otherwise wait for a PULL,
  // avoiding an echo of the original incast.
  const std::int64_t pulls_owed =
      static_cast<std::int64_t>(counters_.acks_received +
                                counters_.nacks_received) -
      static_cast<std::int64_t>(counters_.pulls_received);
  constexpr double kAckDominance = 4.0;
  const bool acks_dominate =
      counters_.acks_received >
      kAckDominance * static_cast<double>(std::max<std::uint64_t>(
                          counters_.nacks_received, 1));
  if (pulls_owed <= 0 || acks_dominate) {
    ++counters_.rtx_after_bounce;
    send_data(seq, /*is_rtx=*/true);
  } else {
    it->second.state = tx_state::bounced;
    rtx_pending_.insert(seq);
    arm_rto(seq, it->second, env_.now() + 4 * cfg_.rto);
  }
}

// --- indexed RTO min-heap -------------------------------------------------
//
// One live entry per outstanding packet, located in O(1) through
// `sent_info::rto_pos`.  Re-arming is an in-place key change and an ACK is
// an eager erase, so — unlike the old push-and-invalidate priority_queue —
// a timer fire never pops dead entries, and `process_rto_heap` reaches each
// packet's `sent_info` through the stored node pointer instead of a hash
// lookup.  The backstop-timer policy is unchanged (arm moves it earlier
// only; fires re-arm it to the live top), which keeps the timer's event
// sequence identical to the old scheme.

bool ndp_source::rto_before(const rto_item& a, const rto_item& b) {
  return a.deadline < b.deadline ||
         (a.deadline == b.deadline && a.seqno < b.seqno);
}

void ndp_source::rto_sift_up(std::uint32_t i) {
  rto_item item = rto_heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!rto_before(item, rto_heap_[parent])) break;
    rto_heap_[i] = rto_heap_[parent];
    rto_heap_[i].info->rto_pos = i;
    i = parent;
  }
  rto_heap_[i] = item;
  item.info->rto_pos = i;
}

void ndp_source::rto_sift_down(std::uint32_t i) {
  const auto n = static_cast<std::uint32_t>(rto_heap_.size());
  rto_item item = rto_heap_[i];
  while (true) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && rto_before(rto_heap_[child + 1], rto_heap_[child])) {
      ++child;
    }
    if (!rto_before(rto_heap_[child], item)) break;
    rto_heap_[i] = rto_heap_[child];
    rto_heap_[i].info->rto_pos = i;
    i = child;
  }
  rto_heap_[i] = item;
  item.info->rto_pos = i;
}

void ndp_source::rto_fix(std::uint32_t i) {
  if (i > 0 && rto_before(rto_heap_[i], rto_heap_[(i - 1) / 2])) {
    rto_sift_up(i);
  } else {
    rto_sift_down(i);
  }
}

void ndp_source::rto_set_deadline(std::uint64_t seqno, sent_info& info,
                                  simtime_t deadline) {
  if (info.rto_pos == kNoRtoPos) {
    rto_heap_.push_back(rto_item{deadline, seqno, &info});
    info.rto_pos = static_cast<std::uint32_t>(rto_heap_.size() - 1);
    rto_sift_up(info.rto_pos);
  } else {
    NDPSIM_ASSERT(rto_heap_[info.rto_pos].info == &info);
    rto_heap_[info.rto_pos].deadline = deadline;
    rto_fix(info.rto_pos);
  }
}

void ndp_source::rto_erase(sent_info& info) {
  const std::uint32_t pos = info.rto_pos;
  if (pos == kNoRtoPos) return;
  info.rto_pos = kNoRtoPos;
  const auto last = static_cast<std::uint32_t>(rto_heap_.size() - 1);
  if (pos != last) {
    rto_heap_[pos] = rto_heap_[last];
    rto_heap_[pos].info->rto_pos = pos;
    rto_heap_.pop_back();
    rto_fix(pos);
  } else {
    rto_heap_.pop_back();
  }
}

void ndp_source::rto_clear() {
  for (const rto_item& item : rto_heap_) item.info->rto_pos = kNoRtoPos;
  rto_heap_.clear();
}

void ndp_source::arm_rto(std::uint64_t seqno, sent_info& info,
                         simtime_t deadline) {
  rto_set_deadline(seqno, info, deadline);
  // One backstop timer covers every outstanding packet: keep it armed for
  // the earliest deadline (O(log n) decrease-key, no extra event entries).
  if (!events().is_pending(rto_timer_) ||
      deadline < events().expiry(rto_timer_)) {
    events().reschedule(rto_timer_, *this, deadline);
  }
}

void ndp_source::process_rto_heap() {
  while (!rto_heap_.empty() && rto_heap_.front().deadline <= env_.now()) {
    const rto_item e = rto_heap_.front();
    e.info->rto_pos = kNoRtoPos;
    rto_heap_.front() = rto_heap_.back();
    rto_heap_.pop_back();
    if (!rto_heap_.empty()) {
      rto_heap_.front().info->rto_pos = 0;
      rto_sift_down(0);
    }
    sent_info& info = *e.info;
    if (info.state != tx_state::inflight && last_pull_seen_ >= 0 &&
        env_.now() - last_pull_seen_ <= cfg_.rto) {
      // NACKed/bounced packet queued for retransmission, and the receiver's
      // pull clock is visibly running: our turn is coming (large incasts can
      // queue pulls for many milliseconds). Only a silent pull clock means
      // the PULL itself was lost.  Heap-only re-arm: the old scheme left the
      // backstop untouched here too (the post-loop re-arm covers it).
      rto_set_deadline(e.seqno, info, env_.now() + cfg_.rto);
      continue;
    }
    // Genuine timeout: the packet (or its NACK/PULL) vanished — corruption or
    // failure. Retransmit directly on a different path (§3.2.3).
    selector_->record_loss(info.last_path);
    rtx_pending_.erase(e.seqno);
    ++counters_.rtx_after_timeout;
    send_data(e.seqno, /*is_rtx=*/true);
  }
  if (rto_heap_.empty()) {
    events().cancel(rto_timer_);
  } else {
    events().reschedule(rto_timer_, *this, rto_heap_.front().deadline);
  }
}

void ndp_source::check_complete() {
  if (complete() || acked_.cumulative() != total_packets_) return;
  // Every packet is ACKed: the RTO backstop has nothing left to guard.
  events().cancel(rto_timer_);
  rto_clear();
  mark_complete();
}

}  // namespace ndpsim
