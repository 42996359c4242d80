// TCP receiver: cumulative ACK generation with out-of-order interval
// tracking; echoes CE marks back to the sender (per-packet echo, which is
// what DCTCP needs).
#pragma once

#include <cstdint>
#include <map>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"

namespace ndpsim {

class tcp_sink final : public packet_sink {
 public:
  explicit tcp_sink(sim_env& env, std::uint32_t flow_id)
      : env_(env), flow_id_(flow_id) {}

  /// Called by tcp_source::connect.
  void bind(const route* rev_route, std::uint32_t local_host,
            std::uint32_t remote_host) {
    rev_route_ = rev_route;
    local_host_ = local_host;
    remote_host_ = remote_host;
  }

  void receive(packet& p) override;

  [[nodiscard]] std::uint64_t cumulative_acked() const { return cum_; }
  [[nodiscard]] std::uint64_t payload_received() const { return payload_; }
  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }

 private:
  void send_ack(bool syn_ack, bool ecn_echo);

  sim_env& env_;
  std::uint32_t flow_id_;
  const route* rev_route_ = nullptr;
  std::uint32_t local_host_ = 0;
  std::uint32_t remote_host_ = 0;

  std::uint64_t cum_ = 0;  ///< all bytes < cum_ received
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< start -> end, disjoint
  std::uint64_t payload_ = 0;
};

}  // namespace ndpsim
