// Protocol-neutral simulated packet and packet pool.
//
// A single flat struct represents every packet type in the simulator (NDP
// data/ACK/NACK/PULL, TCP segments, DCQCN CNPs, pHost tokens, ...).  Queues
// and pipes only look at `size_bytes` and the trimmed/control distinction
// (`is_header_class`), so they can carry any transport.  Packets are pooled
// to avoid allocation churn in large simulations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/assert.h"
#include "sim/time.h"

namespace ndpsim {

class route;
class pfc_ingress;

/// Simulated wire header size for all protocols; a trimmed NDP packet and all
/// control packets are exactly this many bytes (paper: 64-byte headers).
inline constexpr std::uint32_t kHeaderBytes = 64;

enum class packet_type : std::uint8_t {
  ndp_data,
  ndp_ack,
  ndp_nack,
  ndp_pull,
  tcp_data,
  tcp_ack,
  dcqcn_data,
  dcqcn_ack,
  dcqcn_cnp,
  phost_rts,
  phost_data,
  phost_token,
  cbr_data,
};

/// True for packet types that ride the high-priority/control queue.
[[nodiscard]] constexpr bool is_control(packet_type t) {
  switch (t) {
    case packet_type::ndp_data:
    case packet_type::tcp_data:
    case packet_type::dcqcn_data:
    case packet_type::phost_data:
    case packet_type::cbr_data:
      return false;
    default:
      return true;
  }
}

/// Packet flag bits.
namespace pkt_flag {
inline constexpr std::uint16_t syn = 1u << 0;      ///< first-RTT packet (NDP)
inline constexpr std::uint16_t last = 1u << 1;     ///< last packet of the flow
inline constexpr std::uint16_t trimmed = 1u << 2;  ///< payload cut by a switch
inline constexpr std::uint16_t bounced = 1u << 3;  ///< returned to sender
inline constexpr std::uint16_t ect = 1u << 4;      ///< ECN-capable transport
inline constexpr std::uint16_t ce = 1u << 5;       ///< congestion experienced
inline constexpr std::uint16_t rtx = 1u << 6;      ///< is a retransmission
inline constexpr std::uint16_t fin = 1u << 7;      ///< TCP fin equivalent
}  // namespace pkt_flag

// Hot/cold field split: every per-hop touch — pipe delivery (`rt`,
// `next_hop`), queue admission (`type`/`flags`, `size_bytes`,
// `enqueue_time`), WRR dequeue and service (`size_bytes`), demux
// (`flow_id`) and the common sink reads (`seqno`, `payload_bytes`,
// `path_id`) — lands in the first cache line, so a forwarded packet costs
// the memory system one line, not two.  Rarely-touched state (per-protocol
// ack/pull counters, bounce reverse route, latency timestamp, PFC context)
// lives behind it.  `alignas(64)` pins the hot header to a line boundary in
// the pool's slabs; the static_asserts below are the layout contract.
struct alignas(64) packet {
  // --- hot header: first cache line ------------------------------------
  const route* rt = nullptr;    ///< forward route being followed
  std::uint32_t next_hop = 0;   ///< index of next sink in `rt`
  std::uint32_t size_bytes = 0; ///< current wire size (after any trim)
  std::uint64_t seqno = 0;   ///< packet index (NDP/pHost/DCQCN) or byte seq (TCP)
  std::uint32_t flow_id = 0;
  std::uint32_t payload_bytes = 0;  ///< application bytes carried (0 if trimmed)
  packet_type type = packet_type::ndp_data;
  // (1 byte pad)
  std::uint16_t flags = 0;
  std::uint16_t path_id = 0;  ///< sender's path index (scoreboard bookkeeping)
  bool in_pool = false;  ///< owned by packet_pool's free list (double-free check)
  // (1 byte pad)
  std::uint32_t pool_index = 0;  ///< slab slot; pool-owned, survives resets
  std::uint32_t src = 0;  ///< host id
  std::uint32_t dst = 0;  ///< host id
  simtime_t enqueue_time = 0;  ///< scratch for queue-delay accounting

  // --- cold tail: second cache line -------------------------------------
  const route* reverse_rt = nullptr;  ///< reverse of `rt` (for bounces)
  std::uint64_t ackno = 0;   ///< cumulative ack (TCP) / acked seq (others)
  std::uint64_t pullno = 0;  ///< NDP pull counter / pHost token count
  std::uint64_t data_seq = 0;  ///< MPTCP data-level sequence / scratch
  simtime_t first_sent = 0;    ///< time the original copy entered the network
  pfc_ingress* ingress = nullptr;  ///< PFC buffer-accounting context

  [[nodiscard]] bool has_flag(std::uint16_t f) const { return (flags & f) != 0; }
  void set_flag(std::uint16_t f) { flags |= f; }
  void clear_flag(std::uint16_t f) { flags &= static_cast<std::uint16_t>(~f); }
  [[nodiscard]] bool is_header_class() const {
    return is_control(type) || has_flag(pkt_flag::trimmed);
  }
};

// Layout contract for the hot/cold split.  If a change to `packet` trips
// one of these, re-balance the fields instead of deleting the assert: the
// flat batch handlers' prefetch pipeline assumes the per-hop working set is
// exactly the first line of a line-aligned object.
static_assert(alignof(packet) == 64, "hot header must start a cache line");
static_assert(sizeof(packet) == 128, "packet should stay two cache lines");
static_assert(offsetof(packet, rt) < 64, "per-hop field outside hot line");
static_assert(offsetof(packet, next_hop) + sizeof(std::uint32_t) <= 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, size_bytes) + sizeof(std::uint32_t) <= 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, seqno) + sizeof(std::uint64_t) <= 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, flow_id) + sizeof(std::uint32_t) <= 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, payload_bytes) + sizeof(std::uint32_t) <= 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, type) < 64 && offsetof(packet, flags) < 64,
              "classification bits outside hot line");
static_assert(offsetof(packet, path_id) < 64 && offsetof(packet, in_pool) < 64,
              "per-hop field outside hot line");
static_assert(offsetof(packet, enqueue_time) + sizeof(simtime_t) <= 64,
              "queue admission scratch outside hot line");
static_assert(offsetof(packet, reverse_rt) >= 64,
              "cold tail must stay off the hot line");

/// Slab-backed packet pool.  Not thread-safe (the simulator is single
/// threaded by design).
///
/// Packets live in fixed 1024-slot slabs and are identified by a dense
/// `pool_index` (slab * kBlock + slot).  The free list is a LIFO stack of
/// those indices with no reordering pass: a just-released packet is the next
/// one handed out, so the steady-state working set rides whatever is already
/// hot in cache, and both `alloc()` and `release()` are O(1).  Only a fresh
/// slab is handed out in ascending address order.  Re-sorting the stack into
/// address order at every flow retirement was tried and removed: it was half
/// the run time of a k=8 NDP RPC churn, and the only fabric whose working
/// set exceeds L3 (k=32) never recycles flows.  Nothing in the
/// simulator reads packet addresses, so results do not depend on the order.
class packet_pool {
 public:
  packet_pool() = default;
  packet_pool(const packet_pool&) = delete;
  packet_pool& operator=(const packet_pool&) = delete;

  /// Get a value-initialized packet from the top of the free stack (the
  /// most recently released slot).
  [[nodiscard]] packet* alloc() {
    if (free_.empty()) grow();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    packet* p = slot(idx);
    *p = packet{};
    p->pool_index = idx;
    ++outstanding_;
    return p;
  }

  /// Return a packet to the pool.  Re-releasing a pointer that is already in
  /// the pool is detected per-packet (the `outstanding_` counter alone would
  /// miss a double free interleaved with an alloc of a different packet).
  void release(packet* p) {
    NDPSIM_ASSERT(p != nullptr);
    NDPSIM_ASSERT_MSG(!p->in_pool, "double free of packet");
    NDPSIM_ASSERT_MSG(outstanding_ > 0, "release with nothing outstanding");
    NDPSIM_ASSERT_MSG(slot(p->pool_index) == p, "foreign packet released");
    --outstanding_;
    poison(*p);
    free_.push_back(p->pool_index);
  }

  /// Packets currently alive (for leak detection in tests).
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t capacity() const { return blocks_.size() * kBlock; }

 private:
  static constexpr std::size_t kBlock = 1024;

  [[nodiscard]] packet* slot(std::uint32_t idx) const {
    NDPSIM_ASSERT(idx < blocks_.size() * kBlock);
    return &blocks_[idx / kBlock][idx % kBlock];
  }

  void grow() {
    const auto base = static_cast<std::uint32_t>(blocks_.size() * kBlock);
    auto& block = blocks_.emplace_back(std::make_unique<packet[]>(kBlock));
    free_.reserve(free_.size() + kBlock);
    // Push the new block's indices in reverse so pop_back hands out the
    // fresh slab front to back (ascending addresses).
    for (std::uint32_t i = 0; i < kBlock; ++i) {
      block[i].in_pool = true;
      block[i].pool_index = base + i;
      free_.push_back(base + kBlock - 1 - i);
    }
  }

  /// Mark a released packet and (in debug builds) scribble over its fields so
  /// use-after-release reads fail loudly instead of looking plausible.  The
  /// pool's own bookkeeping (`pool_index`) is never scribbled.
  static void poison(packet& p) {
    p.in_pool = true;
#ifndef NDEBUG
    p.type = static_cast<packet_type>(0xEF);  // no such type: switches throw
    p.flags = 0xDEAD;
    p.flow_id = 0xDEADDEAD;
    p.seqno = 0xDEADDEADDEADDEADull;
    p.ackno = 0xDEADDEADDEADDEADull;
    p.size_bytes = 0xDEADDEAD;
    p.payload_bytes = 0xDEADDEAD;
    p.rt = nullptr;
    p.reverse_rt = nullptr;
    p.ingress = nullptr;
#endif
  }

  std::vector<std::unique_ptr<packet[]>> blocks_;
  std::vector<std::uint32_t> free_;  ///< LIFO stack of free pool indices
  std::size_t outstanding_ = 0;
};

/// Deliver `p` to the next sink on its route, advancing the hop index.
void send_to_next_hop(packet& p);

}  // namespace ndpsim
