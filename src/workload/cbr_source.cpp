#include "workload/cbr_source.h"

namespace ndpsim {

cbr_source::cbr_source(sim_env& env, linkspeed_bps rate,
                       std::uint32_t mss_bytes, std::uint32_t flow_id,
                       double jitter_frac)
    : event_source(env.events, dispatch_class::pacer_tick),
      endpoint(env, flow_id),
      rate_(rate),
      mss_bytes_(mss_bytes),
      jitter_frac_(jitter_frac) {
  NDPSIM_ASSERT(rate_ > 0);
  NDPSIM_ASSERT(mss_bytes_ > kHeaderBytes);
  NDPSIM_ASSERT(jitter_frac_ >= 0.0 && jitter_frac_ < 1.0);
}

cbr_source::~cbr_source() { disconnect(); }

void cbr_source::start(path_set paths, packet_sink* rx, std::uint32_t src,
                       std::uint32_t dst, simtime_t start_at) {
  bind(paths, src, dst);
  paths.bind_dst(flow_id_, rx);
  timer_ = events().schedule_at(*this, start_at);
}

void cbr_source::do_next_event() {
  packet& p = make_packet(packet_type::cbr_data, mss_bytes_, paths_.forward(0));
  p.seqno = counters_.packets_sent;  // counted by make_packet: 1, 2, ...
  p.payload_bytes = mss_bytes_ - kHeaderBytes;
  send_to_next_hop(p);
  simtime_t period = serialization_time(mss_bytes_, rate_);
  if (jitter_frac_ > 0.0) {
    const double noise = (env_.rand_unit() - 0.5) * jitter_frac_;
    period = static_cast<simtime_t>(static_cast<double>(period) * (1.0 + noise));
  }
  timer_ = events().schedule_in(*this, period);
}

}  // namespace ndpsim
