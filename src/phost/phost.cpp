#include "phost/phost.h"

#include <algorithm>

namespace ndpsim {

// ---------------------------------------------------------------- phost_source

namespace {
constexpr std::uint32_t kFreeTokens = 8;  // first-RTT line-rate burst (packets)
/// Credit outstanding this long without an arrival is assumed lost.
constexpr simtime_t kTokenTimeout = from_us(300);
}  // namespace

phost_source::phost_source(sim_env& env, phost_config cfg,
                           std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      endpoint(env, flow_id),
      cfg_(cfg) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
}

phost_source::~phost_source() { disconnect(); }

void phost_source::disconnect() {
  events().cancel(start_timer_);
  endpoint::disconnect();
}

void phost_source::connect(phost_sink& sink, path_set paths,
                           std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint64_t flow_bytes, simtime_t start) {
  NDPSIM_ASSERT_MSG(flow_bytes > 0, "phost needs finite flows (RTS size)");
  connect_to(sink, paths, src_host, dst_host, this, &sink);
  flow_bytes_ = flow_bytes;
  const std::uint32_t ppp = cfg_.mss_bytes - kHeaderBytes;
  total_packets_ = (flow_bytes + ppp - 1) / ppp;
  selector_ = std::make_unique<path_selector>(
      env_, paths_.size(), path_mode::random_per_packet,
      path_penalty_config{.enabled = false});
  start_timer_ = events().schedule_at(*this, start);
}

void phost_source::do_next_event() {
  NDPSIM_ASSERT(!started_);  // only the one start event is ever scheduled
  started_ = true;
  // RTS announcing the flow size.
  packet& rts = make_packet(packet_type::phost_rts, kHeaderBytes,
                            paths_.forward(selector_->next()));
  rts.pullno = total_packets_;  // flow size in packets
  send_to_next_hop(rts);
  // Free-token first-RTT burst.
  const std::uint64_t burst =
      std::min<std::uint64_t>(kFreeTokens, total_packets_);
  for (std::uint64_t s = 1; s <= burst; ++s) send_data(s);
  next_unsent_ = burst + 1;
  credit_used_ = burst;
}

std::uint32_t phost_source::payload_for(std::uint64_t seqno) const {
  const std::uint32_t ppp = cfg_.mss_bytes - kHeaderBytes;
  if (seqno < total_packets_) return ppp;
  return static_cast<std::uint32_t>(flow_bytes_ - (seqno - 1) * ppp);
}

void phost_source::send_data(std::uint64_t seqno) {
  const std::uint32_t payload = payload_for(seqno);
  packet& p = make_packet(packet_type::phost_data, payload + kHeaderBytes,
                          paths_.forward(selector_->next()));
  p.seqno = seqno;
  p.payload_bytes = payload;
  if (seqno == total_packets_) p.set_flag(pkt_flag::last);
  send_to_next_hop(p);
}

void phost_source::receive(packet& p) {
  NDPSIM_ASSERT(p.type == packet_type::phost_token);
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  // Token: credit up to p.pullno total sends; p.seqno hints the lowest
  // sequence the receiver is missing (loss recovery).
  while (credit_used_ < p.pullno) {
    ++credit_used_;
    if (p.seqno != 0 && p.seqno < next_unsent_) {
      send_data(p.seqno);  // retransmission requested by the receiver
    } else if (next_unsent_ <= total_packets_) {
      send_data(next_unsent_++);
    } else {
      break;  // nothing new to send; credit goes unused
    }
  }
  env_.pool.release(&p);
}

// ----------------------------------------------------------- phost_token_pacer

phost_token_pacer::phost_token_pacer(sim_env& env, linkspeed_bps rate)
    : event_source(env.events, dispatch_class::pacer_tick),
      env_(env),
      rate_(rate) {}

void phost_token_pacer::activate(phost_sink& sink) {
  if (!sink.in_ring_) {
    sink.in_ring_ = true;
    ring_.push_back(&sink);
  }
  kick();
}

void phost_token_pacer::deactivate(phost_sink& sink) { sink.active_ = false; }

void phost_token_pacer::remove(phost_sink& sink) {
  sink.active_ = false;
  if (sink.in_ring_) {
    ring_.erase(std::remove(ring_.begin(), ring_.end(), &sink), ring_.end());
    sink.in_ring_ = false;
  }
}

void phost_token_pacer::kick() {
  if (ring_.empty() || events().is_pending(timer_)) return;
  events().reschedule(timer_, *this, std::max(env_.now(), next_send_));
}

phost_sink* phost_token_pacer::pick_next() {
  // One full rotation at most.
  for (std::size_t i = 0, n = ring_.size(); i < n; ++i) {
    phost_sink* s = ring_.front();
    ring_.pop_front();
    if (!s->active_) {
      s->in_ring_ = false;
      continue;
    }
    ring_.push_back(s);
    if (s->wants_token()) return s;
  }
  return nullptr;
}

void phost_token_pacer::do_next_event() {
  phost_sink* s = pick_next();
  if (s == nullptr) {
    // Nothing currently wants a token; retry after a timeout tick so token
    // expiry can refresh demand (the only wake-up that can find no work).
    if (!ring_.empty()) {
      timer_ = events().schedule_in(*this, from_us(50));
    }
    return;
  }
  s->issue_token();
  next_send_ =
      std::max(env_.now(), next_send_) +
      serialization_time(s->token_wire_bytes(), rate_);
  kick();
}

// ------------------------------------------------------------------ phost_sink

phost_sink::phost_sink(sim_env& env, phost_token_pacer& pacer,
                       phost_config cfg, std::uint32_t flow_id)
    : endpoint(env, flow_id), pacer_(pacer), cfg_(cfg) {}

void phost_sink::disconnect() {
  pacer_.remove(*this);
  endpoint::disconnect();
}

bool phost_sink::wants_token() const {
  constexpr std::uint32_t kMaxOutstandingTokens = 12;
  if (!active_ || complete()) return false;
  const std::uint64_t outstanding = tokens_granted_ - received_.arrived();
  if (tokens_granted_ >= total_packets_ + 4 * kMaxOutstandingTokens) {
    return false;  // hard cap on re-grants, avoids infinite token loops
  }
  if (outstanding < kMaxOutstandingTokens &&
      tokens_granted_ < total_packets_) {
    return true;
  }
  // Token expiry: no arrival for a while but credit outstanding -> assume
  // the data (or token) was lost and re-issue.
  return outstanding > 0 && env_.now() - last_arrival_ > kTokenTimeout;
}

void phost_sink::issue_token() {
  ++tokens_granted_;
  // Loss-recovery hint: only point the sender at the lowest missing sequence
  // when this grant was triggered by a token timeout — otherwise tokens
  // fetch new data and the hint would cause duplicate storms.
  const std::uint64_t missing = received_.cumulative() + 1;
  const bool recovering = env_.now() - last_arrival_ > kTokenTimeout;
  packet& t = make_packet(packet_type::phost_token, kHeaderBytes,
                          paths_.reverse(env_.rand_below(paths_.size())));
  t.pullno = tokens_granted_;
  t.seqno = recovering && missing <= total_packets_ ? missing : 0;
  send_to_next_hop(t);
}

void phost_sink::receive(packet& p) {
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  if (p.type == packet_type::phost_rts) {
    total_packets_ = p.pullno;
    // The sender's free-token first-RTT burst counts as pre-granted credit,
    // keeping the token counter aligned between the two sides.
    tokens_granted_ = std::max<std::uint64_t>(
        tokens_granted_, std::min<std::uint64_t>(kFreeTokens, total_packets_));
    active_ = true;
    last_arrival_ = env_.now();
    pacer_.activate(*this);
    env_.pool.release(&p);
    return;
  }
  NDPSIM_ASSERT(p.type == packet_type::phost_data);
  last_arrival_ = env_.now();
  if (total_packets_ == 0) {
    // Data raced ahead of the RTS; learn what we can and activate.
    if (p.has_flag(pkt_flag::last)) total_packets_ = p.seqno;
    active_ = true;
    pacer_.activate(*this);
  }
  if (received_.add(p.seqno)) payload_ += p.payload_bytes;
  if (!complete() && total_packets_ != 0 &&
      received_.arrived() == total_packets_) {
    pacer_.deactivate(*this);
    mark_complete();
  } else {
    pacer_.kick();
  }
  env_.pool.release(&p);
}

}  // namespace ndpsim
