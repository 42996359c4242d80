// Span tracing recorded from outside the library.
//
// ndpbench opens a span around each call it makes into a library layer
// (`topo.blueprint`, `harness.flow_create`, `sim.loop`, ...).  A span's
// layer is the part of its name before the first '.'.  Spans stay in memory
// and are written as Chrome trace-event JSON when the run ends.
//
// The ledger splits a wall-clock window among the spans open in it: each
// instant goes to the innermost open spans ("leaves": open spans with no
// open child), shared equally when several threads have one, and to
// `unattributed` when no span is open.  A span whose children run on other
// threads is therefore charged only while none of them is open (the
// campaign span's self time).  Single-threaded, this is the usual "span
// minus the part its children cover", and the shares plus `unattributed`
// always add up to the window exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock_type::time_point a,
                                            clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct span {
  const char* name;  ///< static "layer.what" string
  std::int64_t start_ns;
  std::int64_t end_ns;  ///< -1 while open
  std::int32_t parent;  ///< index into the span list, -1 for a root
  std::uint32_t thread;
};

class tracer {
 public:
  /// Parent argument meaning "the innermost span open on this thread".
  static constexpr std::int32_t kCurrent = -2;

  tracer() : epoch_(clock_type::now()) {}
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  /// Open a span and make it the calling thread's innermost one.  Returns
  /// its index.  Thread-safe.
  std::int32_t open(const char* name, std::int32_t parent = kCurrent);
  /// Close the calling thread's innermost span, which must be `id`.
  void close(std::int32_t id);

  [[nodiscard]] std::int64_t ns(clock_type::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<span> spans() const;

 private:
  clock_type::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<span> spans_;  // guarded by mu_
};

/// RAII span; does nothing when `t` is null (untraced runs).
class scope {
 public:
  scope(tracer* t, const char* name, std::int32_t parent = tracer::kCurrent)
      : t_(t), id_(t != nullptr ? t->open(name, parent) : -1) {}
  ~scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  tracer* t_;
  std::int32_t id_;
};

struct ledger {
  std::map<std::string, double> name_s;  ///< attributed seconds per span name
  double unattributed_s = 0;
  double window_s = 0;
};

/// The layer of a span name: the part before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Attribute the window [t0_ns, t1_ns) among `spans` (see the file comment).
[[nodiscard]] ledger attribute(const std::vector<span>& spans,
                               std::int64_t t0_ns, std::int64_t t1_ns);

/// Summed durations of every span called `name`, in seconds.
[[nodiscard]] double total_s(const std::vector<span>& spans, const char* name);
/// Durations of every span called `name`, in seconds, in recording order.
[[nodiscard]] std::vector<double> durations_s(const std::vector<span>& spans,
                                              const char* name);

/// Write `spans` as Chrome trace-event JSON ("X" complete events; the span
/// index and parent index ride in `args`).  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans);

}  // namespace bench
