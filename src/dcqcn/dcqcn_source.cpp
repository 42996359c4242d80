#include "dcqcn/dcqcn_source.h"

#include <algorithm>

namespace ndpsim {

namespace {
// Reaction-point (sender) parameters; see the header comment.
constexpr linkspeed_bps kMinRate = mbps(10);
constexpr linkspeed_bps kRai = mbps(40);    // additive increase step
constexpr linkspeed_bps kRhai = mbps(400);  // hyper increase step
constexpr double kG = 1.0 / 256.0;          // alpha's EWMA gain
constexpr simtime_t kIncreaseTimer = from_us(55);
constexpr simtime_t kAlphaTimer = from_us(55);
constexpr std::uint64_t kByteCounter = 10u * 1024 * 1024;
constexpr unsigned kFastRecoveryStages = 5;
}  // namespace

dcqcn_source::dcqcn_source(sim_env& env, dcqcn_config cfg,
                           std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      endpoint(env, flow_id),
      cfg_(cfg),
      rc_(cfg.line_rate),
      rt_(cfg.line_rate) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  NDPSIM_ASSERT(cfg_.line_rate > 0);
}

dcqcn_source::~dcqcn_source() { disconnect(); }

void dcqcn_source::disconnect() {
  events().cancel(pace_timer_);  // pending start event or pacing tick
  endpoint::disconnect();
}

void dcqcn_source::connect(dcqcn_sink& sink, path_set paths,
                           std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint64_t flow_bytes, simtime_t start) {
  connect_to(sink, paths, src_host, dst_host, this, &sink);
  flow_bytes_ = flow_bytes;
  total_packets_ =
      flow_bytes == 0
          ? UINT64_MAX
          : (flow_bytes + payload_per_packet() - 1) / payload_per_packet();
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
  if (complete() || next_seq_ > total_packets_) return;

  // Timer-driven state updates are piggybacked on pacing events, which fire
  // at least every mss/kMinRate.
  while (env_.now() - last_increase_timer_ >= kIncreaseTimer) {
    last_increase_timer_ += kIncreaseTimer;
    ++timer_stage_;
    rate_increase_event();
  }
  while (env_.now() - last_alpha_update_ >= kAlphaTimer) {
    last_alpha_update_ += kAlphaTimer;
    // alpha decays whenever a full alpha timer passes without a CNP.
    if (last_cnp_ < 0 || env_.now() - last_cnp_ > kAlphaTimer) {
      alpha_ *= (1.0 - kG);
    }
  }

  send_next_packet();
  schedule_pacing();
}

void dcqcn_source::send_next_packet() {
  const std::uint32_t payload =
      next_seq_ == total_packets_ && flow_bytes_ > 0
          ? static_cast<std::uint32_t>(flow_bytes_ -
                                       (next_seq_ - 1) * payload_per_packet())
          : payload_per_packet();
  packet& p = make_packet(packet_type::dcqcn_data, payload + kHeaderBytes,
                          paths_.forward(0));
  p.seqno = next_seq_;
  p.payload_bytes = payload;
  p.set_flag(pkt_flag::ect);
  if (next_seq_ == total_packets_) p.set_flag(pkt_flag::last);
  ++next_seq_;
  bytes_since_increase_ += p.size_bytes;
  if (bytes_since_increase_ >= kByteCounter) {
    bytes_since_increase_ = 0;
    ++byte_stage_;
    rate_increase_event();
  }
  send_to_next_hop(p);
}

void dcqcn_source::schedule_pacing() {
  if (complete() || next_seq_ > total_packets_ ||
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
      if (!complete() && flow_bytes_ > 0 && acked_cum_ >= total_packets_) {
        events().cancel(pace_timer_);  // no more sends will happen
        mark_complete();
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
  ++counters_.ecn_echoes;
  last_cnp_ = env_.now();
  rt_ = rc_;
  rc_ = static_cast<linkspeed_bps>(static_cast<double>(rc_) *
                                   (1.0 - alpha_ / 2.0));
  rc_ = std::max(rc_, kMinRate);
  alpha_ = (1.0 - kG) * alpha_ + kG;
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_since_increase_ = 0;
  last_increase_timer_ = env_.now();
}

void dcqcn_source::rate_increase_event() {
  // DCQCN stages (Zhu et al., Fig/Alg 1): fast recovery for the first F
  // events of either counter; additive increase once either counter passes
  // F; hyper increase when both have.
  if (std::max(timer_stage_, byte_stage_) <= kFastRecoveryStages) {
    // Fast recovery: move halfway back to the target rate.
  } else if (std::min(timer_stage_, byte_stage_) <= kFastRecoveryStages) {
    rt_ = std::min<linkspeed_bps>(rt_ + kRai, cfg_.line_rate);
  } else {
    rt_ = std::min<linkspeed_bps>(rt_ + kRhai, cfg_.line_rate);
  }
  rc_ = (rt_ + rc_) / 2;
  rc_ = std::clamp(rc_, kMinRate, cfg_.line_rate);
}

}  // namespace ndpsim
