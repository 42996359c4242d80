#include "harness/parallel_runner.h"

#include <atomic>
#include <thread>

namespace ndpsim {

parallel_runner::parallel_runner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

namespace {

void run_one(const experiment_config& cfg, const experiment_fn& body,
             experiment_outcome& out) {
  sim_env env(cfg.seed);
  fct_recorder fcts;
  body(cfg, env, fcts);
  out.config = cfg;
  out.fcts = std::move(fcts);
  out.telemetry = std::move(env.telemetry);  // outlive the per-job env
  out.events_processed = env.events.events_processed();
  out.sim_end = env.events.now();
}

}  // namespace

std::vector<experiment_outcome> parallel_runner::run(
    const std::vector<experiment_config>& configs,
    const experiment_fn& body) const {
  std::vector<experiment_outcome> outcomes(configs.size());
  // Keep-everything collection is just a streaming sink that parks each
  // outcome in its config's slot.  Slots are disjoint per index, so the
  // sink needs no lock.
  run_streaming(configs, body,
                [&outcomes](std::size_t i, experiment_outcome&& out) {
                  outcomes[i] = std::move(out);
                });
  return outcomes;
}

void parallel_runner::run_streaming(
    const std::vector<experiment_config>& configs, const experiment_fn& body,
    const outcome_sink& sink, const std::atomic<bool>* stop) const {
  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, configs.size()));
  // Work-stealing by atomic index: threads claim the next un-run config.
  // Which thread runs a config never affects its outcome (each one builds a
  // private sim_env from its own seed), so placement is free to be dynamic.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(configs.size());
  auto worker = [&] {
    for (;;) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      try {
        experiment_outcome out;
        run_one(configs[i], body, out);
        sink(i, std::move(out));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  if (n_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (unsigned t = 0; t < n_workers; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);  // surface the first failed config
  }
}

std::shared_ptr<telemetry_plane> merge_telemetry(
    const std::vector<experiment_outcome>& outcomes) {
  std::shared_ptr<telemetry_plane> merged;
  for (const auto& o : outcomes) {
    if (o.telemetry == nullptr) continue;
    if (merged == nullptr) {
      merged = std::make_shared<telemetry_plane>(*o.telemetry);
    } else {
      merged->merge_from(*o.telemetry);
    }
  }
  return merged;
}

}  // namespace ndpsim
