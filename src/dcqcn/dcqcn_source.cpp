#include "dcqcn/dcqcn_source.h"

#include <algorithm>

#include "dcqcn/dcqcn_sink.h"

namespace ndpsim {

dcqcn_source::dcqcn_source(sim_env& env, dcqcn_config cfg,
                           std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      env_(env),
      cfg_(cfg),
      flow_id_(flow_id),
      rc_(cfg.line_rate),
      rt_(cfg.line_rate) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  NDPSIM_ASSERT(cfg_.line_rate > 0 && cfg_.min_rate > 0);
}

dcqcn_source::~dcqcn_source() { disconnect(); }

void dcqcn_source::disconnect() {
  events().cancel(pace_timer_);  // pending start event or pacing tick
  if (sink_ != nullptr) {
    paths_.unbind(flow_id_);
    sink_ = nullptr;
  }
  paths_ = path_set{};
}

void dcqcn_source::connect(dcqcn_sink& sink, path_set paths,
                           std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint64_t flow_bytes, simtime_t start) {
  NDPSIM_ASSERT_MSG(!paths.empty(), "need at least one path");
  sink_ = &sink;
  paths_ = paths;
  fwd_route_ = paths_.forward(0);
  rev_route_ = paths_.reverse(0);
  paths_.bind_dst(flow_id_, sink_);
  paths_.bind_src(flow_id_, this);
  sink_->bind(rev_route_, dst_host, src_host);
  src_host_ = src_host;
  dst_host_ = dst_host;
  flow_bytes_ = flow_bytes;
  total_packets_ =
      flow_bytes == 0
          ? UINT64_MAX
          : (flow_bytes + payload_per_packet() - 1) / payload_per_packet();
  start_time_ = start;
  // The start event shares the pacing handle so disconnect() can cancel a
  // flow that never started.
  pace_timer_ = events().schedule_at(*this, start);
}

void dcqcn_source::do_next_event() {
  if (!started_) {
    started_ = true;
    last_increase_timer_ = env_.now();
    last_alpha_update_ = env_.now();
    next_send_ = env_.now();
    // This very event doubles as the first send.
  }
  if (completed_ || next_seq_ > total_packets_) return;

  // Timer-driven state updates are piggybacked on pacing events, which fire
  // at least every mss/min_rate.
  while (env_.now() - last_increase_timer_ >= cfg_.increase_timer) {
    last_increase_timer_ += cfg_.increase_timer;
    ++timer_stage_;
    rate_increase_event();
  }
  while (env_.now() - last_alpha_update_ >= cfg_.alpha_timer) {
    last_alpha_update_ += cfg_.alpha_timer;
    // alpha decays whenever a full alpha_timer passes without a CNP.
    if (last_cnp_ < 0 || env_.now() - last_cnp_ > cfg_.alpha_timer) {
      alpha_ *= (1.0 - cfg_.g);
    }
  }

  send_next_packet();
  schedule_pacing();
}

void dcqcn_source::send_next_packet() {
  packet* p = env_.pool.alloc();
  p->type = packet_type::dcqcn_data;
  p->flow_id = flow_id_;
  p->src = src_host_;
  p->dst = dst_host_;
  p->seqno = next_seq_;
  p->payload_bytes =
      next_seq_ == total_packets_ && flow_bytes_ > 0
          ? static_cast<std::uint32_t>(flow_bytes_ -
                                       (next_seq_ - 1) * payload_per_packet())
          : payload_per_packet();
  p->size_bytes = p->payload_bytes + kHeaderBytes;
  p->set_flag(pkt_flag::ect);
  if (next_seq_ == total_packets_) p->set_flag(pkt_flag::last);
  p->rt = fwd_route_;
  p->next_hop = 0;
  ++next_seq_;
  ++stats_.packets_sent;
  bytes_since_increase_ += p->size_bytes;
  if (bytes_since_increase_ >= cfg_.byte_counter) {
    bytes_since_increase_ = 0;
    ++byte_stage_;
    rate_increase_event();
  }
  send_to_next_hop(*p);
}

void dcqcn_source::schedule_pacing() {
  if (completed_ || next_seq_ > total_packets_ ||
      events().is_pending(pace_timer_)) {
    return;
  }
  const simtime_t gap = serialization_time(cfg_.mss_bytes, rc_);
  next_send_ = std::max(env_.now(), next_send_) + gap;
  events().reschedule(pace_timer_, *this, next_send_);
}

void dcqcn_source::receive(packet& p) {
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  switch (p.type) {
    case packet_type::dcqcn_ack: {
      acked_cum_ = std::max(acked_cum_, p.ackno);
      if (!completed_ && flow_bytes_ > 0 && acked_cum_ >= total_packets_) {
        completed_ = true;
        completion_time_ = env_.now();
        events().cancel(pace_timer_);  // no more sends will happen
        if (on_complete_) on_complete_();
      }
      break;
    }
    case packet_type::dcqcn_cnp:
      on_cnp();
      break;
    default:
      NDPSIM_ASSERT_MSG(false, "unexpected packet at dcqcn_source");
  }
  env_.pool.release(&p);
}

void dcqcn_source::on_cnp() {
  ++stats_.cnps_received;
  last_cnp_ = env_.now();
  rt_ = rc_;
  rc_ = static_cast<linkspeed_bps>(static_cast<double>(rc_) *
                                   (1.0 - alpha_ / 2.0));
  rc_ = std::max(rc_, cfg_.min_rate);
  alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g;
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_since_increase_ = 0;
  last_increase_timer_ = env_.now();
}

void dcqcn_source::rate_increase_event() {
  // DCQCN stages (Zhu et al., Fig/Alg 1): fast recovery for the first F
  // events of either counter; additive increase once either counter passes
  // F; hyper increase when both have.
  if (std::max(timer_stage_, byte_stage_) <= cfg_.f_stages) {
    // Fast recovery: move halfway back to the target rate.
  } else if (std::min(timer_stage_, byte_stage_) <= cfg_.f_stages) {
    rt_ = std::min<linkspeed_bps>(rt_ + cfg_.rai, cfg_.line_rate);
  } else {
    rt_ = std::min<linkspeed_bps>(rt_ + cfg_.rhai, cfg_.line_rate);
  }
  rc_ = (rt_ + rc_) / 2;
  rc_ = std::clamp(rc_, cfg_.min_rate, cfg_.line_rate);
}

}  // namespace ndpsim
