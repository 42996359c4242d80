// The benchmark's workloads.  Each runs one full iteration — set up, run
// to the end, drain, check and tear down — against the unmodified library,
// with spans around every call it makes into a library layer when traced.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace bench {

struct context {
  std::uint64_t seed = 1;
  tracer* tr = nullptr;  ///< null: untraced (no spans, no telemetry plane)
  std::string work_dir;  ///< working directory (campaign spill)
  unsigned threads = 1;  ///< campaign worker threads
  /// Stop after set-up (t_first_event), tear down and return.
  bool setup_only = false;
};

/// What one iteration measured and checked.
struct iteration {
  clock_type::time_point t_begin;        ///< before any library call
  clock_type::time_point t_first_event;  ///< setup done, event loop starts
  clock_type::time_point t_end;          ///< workload done, torn down
  std::uint64_t ops = 0;       ///< flows started (jobs for the campaign)
  std::uint64_t ops_done = 0;  ///< of which completed so far
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over the sorted completion records
  std::vector<std::string> failures;    ///< output checks that failed
  std::map<std::string, double> layer;  ///< per-layer metrics by name

  [[nodiscard]] double setup_s() const {
    return seconds_between(t_begin, t_first_event);
  }
  [[nodiscard]] double run_s() const {
    return seconds_between(t_first_event, t_end);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct workload {
  const char* name;
  void (*run)(const context&, iteration&);
};

[[nodiscard]] const std::vector<workload>& workloads();

}  // namespace bench
