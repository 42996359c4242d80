// Parallel scenario runner: fans a vector of experiment configs across a
// thread pool.
//
// Each job gets its own `sim_env` seeded only from its config, so a config's
// result is a pure function of that config — bitwise identical whether the
// sweep runs serially, on 2 threads or on 64, and in the same order either
// way (results are stored by config index, not completion order).  This is
// the scale-out story for the paper's figure sweeps: a 430-node FatTree
// permutation is single-threaded by design, but every figure is many
// independent scenarios, and those embarrass themselves in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "net/sim_env.h"
#include "sim/telemetry.h"
#include "stats/fct_recorder.h"

namespace ndpsim {

/// One scenario in a sweep: a label plus the seed that fully determines it.
struct experiment_config {
  std::string name;
  std::uint64_t seed = 1;
  std::int64_t param = 0;   ///< free-form scenario knob (fan-in, size, ...)
  double param2 = 0.0;      ///< second knob where one is not enough
};

/// What came back from one scenario.
///
/// Move-enabled by contract: the streaming collection path
/// (`run_streaming`) hands each outcome to the sink by rvalue so the
/// recorder's flow records and the telemetry plane transfer ownership
/// instead of being copied — a campaign sink reduces and drops them
/// without the payload ever existing twice.  Copying stays available for
/// the keep-everything `run` path.
struct experiment_outcome {
  experiment_config config;
  fct_recorder fcts;
  std::uint64_t events_processed = 0;
  simtime_t sim_end = 0;  ///< simulated time the run finished at
  /// The job's telemetry plane, if the body attached one to its env
  /// (salvaged before the per-job env dies).  Null when telemetry was off.
  std::shared_ptr<telemetry_plane> telemetry;

  experiment_outcome() = default;
  experiment_outcome(experiment_outcome&&) noexcept = default;
  experiment_outcome& operator=(experiment_outcome&&) noexcept = default;
  experiment_outcome(const experiment_outcome&) = default;
  experiment_outcome& operator=(const experiment_outcome&) = default;
};

/// The body of an experiment: build everything from `env` (already seeded
/// from the config), record completions into `fcts`.
using experiment_fn =
    std::function<void(const experiment_config&, sim_env& env,
                       fct_recorder& fcts)>;

/// Streaming consumer of finished jobs: called ON THE WORKER THREAD, once
/// per completed config, with the outcome moved in.  `index` is the
/// config's position in the sweep (jobs complete in claim order, which is
/// nondeterministic — the outcome's *content* is not; see the runner doc).
/// The sink owns whatever synchronization it needs; distinct calls for the
/// same sink may race only through the sink itself.
using outcome_sink =
    std::function<void(std::size_t index, experiment_outcome&& out)>;

class parallel_runner {
 public:
  /// `threads == 0` uses the hardware concurrency (min 1).
  explicit parallel_runner(unsigned threads = 0);

  /// Run `body` once per config.  Blocks until the whole sweep is done;
  /// outcome[i] corresponds to configs[i].  Keeps every outcome alive at
  /// once — for sweeps too long for that, use `run_streaming`.
  [[nodiscard]] std::vector<experiment_outcome> run(
      const std::vector<experiment_config>& configs,
      const experiment_fn& body) const;

  /// Bounded-memory variant: each finished job is moved into `sink` on the
  /// worker thread and then dropped, so peak memory tracks the number of
  /// *active* jobs (<= threads), not the sweep length.  `stop`, when
  /// non-null and set, keeps workers from claiming further configs (jobs
  /// already running finish and reach the sink) — the campaign engine's
  /// interruption hook.  Blocks until all claimed jobs are done; rethrows
  /// the first failed config's exception after the pool joins.
  void run_streaming(const std::vector<experiment_config>& configs,
                     const experiment_fn& body, const outcome_sink& sink,
                     const std::atomic<bool>* stop = nullptr) const;

  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  unsigned threads_;
};

/// Per-job telemetry planes folded into one by counter summation (outcome
/// order; jobs without a plane are skipped).  All planes present must share
/// one slot layout — true whenever the sweep's jobs instantiate the same
/// blueprint.  Returns null when no job carried telemetry.  Because each
/// job is a pure function of its config, the merged plane is bitwise
/// identical however the sweep was scheduled (asserted by
/// tests/test_telemetry.cpp).
[[nodiscard]] std::shared_ptr<telemetry_plane> merge_telemetry(
    const std::vector<experiment_outcome>& outcomes);

}  // namespace ndpsim
