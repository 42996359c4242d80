// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "sim/telemetry.h"
#include "topo/fabric_instance.h"

namespace ndpsim::testing {

/// Terminal sink that records what arrives (type, seq, size, time) and
/// releases the packets.
class recording_sink final : public packet_sink {
 public:
  explicit recording_sink(sim_env& env) : env_(env) {}

  struct arrival {
    packet_type type;
    std::uint64_t seqno;
    std::uint32_t size_bytes;
    std::uint16_t flags;
    simtime_t at;
  };

  void receive(packet& p) override {
    arrivals_.push_back(
        arrival{p.type, p.seqno, p.size_bytes, p.flags, env_.now()});
    env_.pool.release(&p);
  }

  [[nodiscard]] const std::vector<arrival>& arrivals() const {
    return arrivals_;
  }
  [[nodiscard]] std::size_t count() const { return arrivals_.size(); }

 private:
  sim_env& env_;
  std::vector<arrival> arrivals_;
};

/// Arm a standalone component (queue, pipe or demux) with a private
/// one-slot telemetry plane, the only place its counters are kept.  The
/// returned plane owns the counters: keep it alive while reading them.
template <class Component>
[[nodiscard]] std::unique_ptr<telemetry_plane> arm(
    Component& c, telemetry_kind kind = telemetry_kind::queue) {
  auto plane = std::make_unique<telemetry_plane>(1);
  c.set_telemetry(plane->arm(0, kind));
  return plane;
}

/// Attach a plane of `n_slots` to `env` so a fabric built on it afterwards
/// arms every queue, pipe and demux.  Size it from the fabric's blueprint,
/// e.g. `fabric_blueprint::single_switch(...)->n_slots()`.
inline telemetry_plane& attach_plane(sim_env& env, std::size_t n_slots) {
  env.telemetry = std::make_shared<telemetry_plane>(n_slots);
  return *env.telemetry;
}

/// Allocate a data packet with sane defaults for queue-level tests.
inline packet* make_data(sim_env& env, const route* rt,
                         std::uint32_t size_bytes = 9000,
                         std::uint64_t seq = 1) {
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->size_bytes = size_bytes;
  p->payload_bytes = size_bytes - kHeaderBytes;
  p->seqno = seq;
  p->rt = rt;
  p->next_hop = 0;
  return p;
}

/// One direction of a fabric path as a standalone route: the blueprint's
/// slot sequence resolved through the instance's sink table, without the
/// demux terminal, so a test can append its own endpoint.
inline std::unique_ptr<owned_route> fabric_route(const fabric_instance& f,
                                                 std::uint32_t src,
                                                 std::uint32_t dst,
                                                 std::size_t path) {
  std::vector<std::uint32_t> slots;
  f.blueprint()->build_path(src, dst, path, slots);
  auto r = std::make_unique<owned_route>();
  for (const std::uint32_t s : slots) r->push_back(f.sink_table()[s]);
  return r;
}

}  // namespace ndpsim::testing
