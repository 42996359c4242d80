// Bundle of per-simulation state: the event list, the RNG and the packet
// pool. One `sim_env` per experiment; passed by reference to all components
// so nothing in the library is a global.
#pragma once

#include <memory>
#include <random>

#include "net/packet.h"
#include "sim/eventlist.h"

namespace ndpsim {

class telemetry_plane;

/// Defined in net/flat_dispatch.cpp: registers the pipe/queue batch
/// handlers on a fresh event list.
void install_flat_handlers(event_list& events);

struct sim_env {
  explicit sim_env(std::uint64_t seed = 1) : rng(seed) {
    install_flat_handlers(events);
  }

  event_list events;
  std::mt19937_64 rng;
  packet_pool pool;

  /// Optional telemetry plane for this simulation, and the only store of
  /// fabric counters (queue drops, trims and marks; pipe and demux
  /// deliveries; stale drops).  Attach BEFORE building the fabric:
  /// registration happens at component construction (queues, pipes) and at
  /// demux mount time, and components built while this is null stay
  /// unarmed — the "off" mode of the telemetry cost contract (see
  /// sim/telemetry.h): they count nothing, and reading their counters
  /// throws.  shared_ptr so a `parallel_runner` job's plane outlives its env
  /// on the experiment outcome.
  std::shared_ptr<telemetry_plane> telemetry;

  [[nodiscard]] simtime_t now() const { return events.now(); }

  /// Uniform integer in [0, n).  Lemire's multiply-shift reduction: one
  /// 128-bit multiply on the hot path, no per-call distribution object, and
  /// the rejection branch is taken with probability < n / 2^64 (never for the
  /// small fan-outs the simulator draws).
  [[nodiscard]] std::uint64_t rand_below(std::uint64_t n) {
    NDPSIM_ASSERT(n > 0);
    using u128 = unsigned __int128;
    u128 m = u128(rng()) * n;
    if (static_cast<std::uint64_t>(m) < n) [[unlikely]] {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = u128(rng()) * n;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }
  /// Uniform double in [0, 1): the top 53 bits of one draw, scaled.
  [[nodiscard]] double rand_unit() {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }
  /// Fair coin.
  [[nodiscard]] bool rand_coin() { return rand_below(2) == 0; }
};

}  // namespace ndpsim
