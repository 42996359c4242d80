// TCP receiver: cumulative ACK generation with out-of-order interval
// tracking; echoes CE marks back to the sender (per-packet echo, which is
// what DCTCP needs).
#pragma once

#include <cstdint>
#include <map>

#include "net/endpoint.h"

namespace ndpsim {

/// ACKs ride the reverse route of path 0 (the source's single path).
class tcp_sink final : public packet_sink, public endpoint {
 public:
  tcp_sink(sim_env& env, std::uint32_t flow_id) : endpoint(env, flow_id) {}

  void receive(packet& p) override;

  [[nodiscard]] std::uint64_t cumulative_acked() const { return cum_; }

 private:
  void send_ack(bool syn_ack, bool ecn_echo);

  std::uint64_t cum_ = 0;  ///< all bytes < cum_ received
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< start -> end, disjoint
};

}  // namespace ndpsim
