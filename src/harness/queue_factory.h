// Per-protocol fabric configuration: which queue discipline runs at switch
// egress ports, with the paper's buffer sizings as defaults (§6.1):
//   NDP    : 8-packet data queue + equal-byte header queue, WRR 10:1, RTS
//   DCTCP  : 200-packet drop-tail with sharp ECN threshold at 30 packets
//   MPTCP/TCP: 200-packet drop-tail
//   DCQCN  : effectively-lossless queue (PFC) with RED marking from 20 pkts
//   pHost  : 8-packet drop-tail (its published configuration)
// Host NICs are always two-band priority queues (control over data).
#pragma once

#include "net/sim_env.h"
#include "topo/fat_tree.h"
#include "topo/topology.h"

namespace ndpsim {

enum class protocol : std::uint8_t { ndp, tcp, dctcp, mptcp, dcqcn, phost };

[[nodiscard]] constexpr const char* to_string(protocol p) {
  switch (p) {
    case protocol::ndp: return "NDP";
    case protocol::tcp: return "TCP";
    case protocol::dctcp: return "DCTCP";
    case protocol::mptcp: return "MPTCP";
    case protocol::dcqcn: return "DCQCN";
    case protocol::phost: return "pHost";
  }
  return "?";
}

/// The sizings callers vary; the other §6.1 values are constants in
/// queue_factory.cpp.
struct fabric_params {
  protocol proto = protocol::ndp;
  std::uint32_t mtu_bytes = 9000;
  std::uint32_t ndp_data_pkts = 8;    ///< the header queue holds as many bytes
  std::uint32_t droptail_pkts = 200;  ///< TCP/MPTCP/DCTCP switch and NIC queues
};

/// Egress-queue factory for this fabric (host NICs get priority queues).
[[nodiscard]] queue_factory make_queue_factory(sim_env& env,
                                               const fabric_params& params);

/// DCQCN runs over PFC; everything else does not.
[[nodiscard]] bool fabric_is_lossless(protocol p);

/// PFC thresholds matched to the fabric MTU.
[[nodiscard]] pfc_config default_pfc(const fabric_params& params);

}  // namespace ndpsim
