#include "harness/queue_factory.h"

#include "cp/cp_queue.h"
#include "net/fifo_queues.h"
#include "ndp/ndp_queue.h"

namespace ndpsim {

namespace {
// §6.1 sizings no caller varies, in packets of the fabric MTU.
constexpr std::uint64_t kEcnThresholdPkts = 30;  ///< DCTCP sharp marking
constexpr std::uint64_t kPhostPkts = 8;          ///< pHost's published queue
constexpr std::uint64_t kRedKminPkts = 20;       ///< DCQCN RED marking start
constexpr std::uint64_t kRedKmaxPkts = 100;      ///< DCQCN RED marking end
constexpr double kRedPmax = 0.1;                 ///< marking probability at kmax
/// DCQCN runs over PFC; this capacity is only a "never drops" backstop.
constexpr std::uint64_t kLosslessCapacityPkts = 4000;
}  // namespace

queue_factory make_queue_factory(sim_env& env, const fabric_params& params) {
  return [&env, params](link_level level, std::size_t /*index*/,
                        linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    const std::uint64_t mtu = params.mtu_bytes;
    if (level == link_level::host_up) {
      // Window-based transports get a finite NIC (same sizing as the fabric
      // buffers); receiver-driven/PFC transports never build a NIC backlog.
      const bool windowed = params.proto == protocol::tcp ||
                            params.proto == protocol::dctcp ||
                            params.proto == protocol::mptcp;
      const std::uint64_t cap = windowed ? params.droptail_pkts * mtu : 0;
      return std::make_unique<host_priority_queue>(env, rate, cap);
    }
    switch (params.proto) {
      case protocol::ndp: {
        ndp_queue_config qc;
        qc.data_capacity_bytes = params.ndp_data_pkts * mtu;
        qc.header_capacity_bytes = qc.data_capacity_bytes;
        return std::make_unique<ndp_queue>(env, rate, qc);
      }
      case protocol::tcp:
      case protocol::mptcp:
        return std::make_unique<drop_tail_queue>(env, rate,
                                                 params.droptail_pkts * mtu);
      case protocol::dctcp:
        return std::make_unique<ecn_threshold_queue>(
            env, rate, params.droptail_pkts * mtu, kEcnThresholdPkts * mtu);
      case protocol::dcqcn:
        return std::make_unique<red_ecn_queue>(
            env, rate, kLosslessCapacityPkts * mtu, kRedKminPkts * mtu,
            kRedKmaxPkts * mtu, kRedPmax);
      case protocol::phost:
        return std::make_unique<drop_tail_queue>(env, rate, kPhostPkts * mtu);
    }
    NDPSIM_ASSERT_MSG(false, "unknown protocol");
    return nullptr;
  };
}

bool fabric_is_lossless(protocol p) { return p == protocol::dcqcn; }

pfc_config default_pfc(const fabric_params& params) {
  pfc_config pfc;
  pfc.enabled = fabric_is_lossless(params.proto);
  pfc.xoff_bytes = 25ull * params.mtu_bytes;
  pfc.xon_bytes = 23ull * params.mtu_bytes;
  return pfc;
}

}  // namespace ndpsim
