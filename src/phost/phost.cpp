#include "phost/phost.h"

#include <algorithm>

namespace ndpsim {

// ---------------------------------------------------------------- phost_source

phost_source::phost_source(sim_env& env, phost_config cfg,
                           std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      env_(env),
      cfg_(cfg),
      flow_id_(flow_id) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
}

phost_source::~phost_source() { disconnect(); }

void phost_source::disconnect() {
  events().cancel(start_timer_);
  if (sink_ != nullptr) {
    net_paths_.unbind(flow_id_);
    sink_ = nullptr;
  }
  net_paths_ = path_set{};
}

void phost_source::connect(phost_sink& sink, path_set paths,
                           std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint64_t flow_bytes, simtime_t start) {
  NDPSIM_ASSERT_MSG(!paths.empty(), "need at least one path");
  NDPSIM_ASSERT_MSG(flow_bytes > 0, "phost needs finite flows (RTS size)");
  sink_ = &sink;
  net_paths_ = paths;
  net_paths_.bind_dst(flow_id_, sink_);
  net_paths_.bind_src(flow_id_, this);
  sink_->bind(net_paths_, dst_host, src_host);
  src_host_ = src_host;
  dst_host_ = dst_host;
  flow_bytes_ = flow_bytes;
  const std::uint32_t ppp = cfg_.mss_bytes - kHeaderBytes;
  total_packets_ = (flow_bytes + ppp - 1) / ppp;
  paths_ = std::make_unique<path_selector>(env_, net_paths_.size(),
                                           path_mode::random_per_packet,
                                           path_penalty_config{.enabled = false});
  start_time_ = start;
  start_timer_ = events().schedule_at(*this, start);
}

void phost_source::do_next_event() {
  NDPSIM_ASSERT(!started_);  // only the one start event is ever scheduled
  started_ = true;
  // RTS announcing the flow size.
  packet* rts = env_.pool.alloc();
  rts->type = packet_type::phost_rts;
  rts->priority = 1;
  rts->flow_id = flow_id_;
  rts->src = src_host_;
  rts->dst = dst_host_;
  rts->size_bytes = kHeaderBytes;
  rts->pullno = total_packets_;  // flow size in packets
  rts->rt = net_paths_.forward(paths_->next());
  rts->next_hop = 0;
  send_to_next_hop(*rts);
  // Free-token first-RTT burst.
  const std::uint64_t burst =
      std::min<std::uint64_t>(cfg_.free_tokens, total_packets_);
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
  packet* p = env_.pool.alloc();
  p->type = packet_type::phost_data;
  p->flow_id = flow_id_;
  p->src = src_host_;
  p->dst = dst_host_;
  p->seqno = seqno;
  p->payload_bytes = payload_for(seqno);
  p->size_bytes = p->payload_bytes + kHeaderBytes;
  if (seqno == total_packets_) p->set_flag(pkt_flag::last);
  p->rt = net_paths_.forward(paths_->next());
  p->next_hop = 0;
  ++packets_sent_;
  send_to_next_hop(*p);
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
    : env_(env), pacer_(pacer), cfg_(cfg), flow_id_(flow_id) {}

void phost_sink::bind(path_set paths, std::uint32_t local_host,
                      std::uint32_t remote_host) {
  NDPSIM_ASSERT_MSG(!paths.empty(), "sink needs at least one ctrl route");
  paths_ = paths;
  local_host_ = local_host;
  remote_host_ = remote_host;
}

void phost_sink::disconnect() {
  pacer_.remove(*this);
  paths_ = path_set{};
}

bool phost_sink::wants_token() const {
  if (!active_ || complete()) return false;
  const std::uint64_t outstanding = tokens_granted_ - received_;
  if (tokens_granted_ >= total_packets_ + 4 * cfg_.max_outstanding_tokens) {
    return false;  // hard cap on re-grants, avoids infinite token loops
  }
  if (outstanding < cfg_.max_outstanding_tokens &&
      tokens_granted_ < total_packets_) {
    return true;
  }
  // Token expiry: no arrival for a while but credit outstanding -> assume
  // the data (or token) was lost and re-issue.
  return outstanding > 0 &&
         env_.now() - last_arrival_ > cfg_.token_timeout;
}

void phost_sink::issue_token() {
  ++tokens_granted_;
  packet* t = env_.pool.alloc();
  t->type = packet_type::phost_token;
  t->priority = 1;
  t->flow_id = flow_id_;
  t->src = local_host_;
  t->dst = remote_host_;
  t->size_bytes = kHeaderBytes;
  t->pullno = tokens_granted_;
  // Loss-recovery hint: only point the sender at the lowest missing sequence
  // when this grant was triggered by a token timeout — otherwise tokens
  // fetch new data and the hint would cause duplicate storms.
  const bool recovering = env_.now() - last_arrival_ > cfg_.token_timeout;
  t->seqno = recovering && cum_ + 1 <= total_packets_ ? cum_ + 1 : 0;
  t->rt = paths_.reverse(env_.rand_below(paths_.size()));
  t->next_hop = 0;
  send_to_next_hop(*t);
}

void phost_sink::receive(packet& p) {
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  if (p.type == packet_type::phost_rts) {
    total_packets_ = p.pullno;
    // The sender's free-token first-RTT burst counts as pre-granted credit,
    // keeping the token counter aligned between the two sides.
    tokens_granted_ = std::max<std::uint64_t>(
        tokens_granted_,
        std::min<std::uint64_t>(cfg_.free_tokens, total_packets_));
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
  const bool is_new = p.seqno > cum_ && ooo_.find(p.seqno) == ooo_.end();
  if (is_new) {
    ++received_;
    payload_ += p.payload_bytes;
    if (p.seqno == cum_ + 1) {
      ++cum_;
      auto it = ooo_.begin();
      while (it != ooo_.end() && *it == cum_ + 1) {
        ++cum_;
        it = ooo_.erase(it);
      }
    } else {
      ooo_.insert(p.seqno);
    }
  }
  if (complete() && completion_time_ < 0) {
    completion_time_ = env_.now();
    pacer_.deactivate(*this);
    if (on_complete_) on_complete_();
  } else {
    pacer_.kick();
  }
  env_.pool.release(&p);
}

}  // namespace ndpsim
