// DCTCP (Alizadeh et al., SIGCOMM 2010): TCP with a fractional ECN response.
//
// The switch marks with a sharp threshold K (instantaneous queue).  The
// receiver echoes CE per packet.  The sender maintains
//    alpha <- (1 - g) * alpha + g * F
// where F is the fraction of acked bytes that were marked over the last
// observation window (~1 RTT), and on a marked window cuts
//    cwnd <- cwnd * (1 - alpha / 2)
// at most once per window.
#pragma once

#include "tcp/tcp_source.h"

namespace ndpsim {

class dctcp_source final : public tcp_source {
 public:
  dctcp_source(sim_env& env, tcp_config cfg, std::uint32_t flow_id)
      : tcp_source(env, [&] { cfg.ecn = true; return cfg; }(), flow_id) {}

  [[nodiscard]] double alpha() const { return alpha_; }

 protected:
  void ecn_feedback(std::uint64_t newly_acked, bool echo) override;

 private:
  double alpha_ = 1.0;  ///< start conservative, as the paper does
  std::uint64_t window_acked_ = 0;
  std::uint64_t window_marked_ = 0;
  std::uint64_t window_end_ = 0;  ///< observation window boundary (snd_una)
  bool cut_this_window_ = false;
};

}  // namespace ndpsim
