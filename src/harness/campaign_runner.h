// Campaign engine: thousand-config sweeps in bounded memory, with result
// spill, journaled resume and bitwise-reproducible merged output.
//
// `parallel_runner::run` keeps every job's full outcome (fct_recorder +
// telemetry plane) alive until the sweep joins, so a campaign's peak memory
// grows linearly with its length.  The campaign runner swaps collection for
// reduction: each finished job is folded — on the worker, via the
// move-aware `run_streaming` sink — into a compact `fct_summary`
// (stats/fct_summary.h) and appended to a JSONL spill file, after which the
// recorder and plane are freed.  Peak memory then tracks the number of
// *active* jobs (<= threads), not the campaign length — the property
// bench_eventcore's `campaign` section gates (RSS high-water strictly below
// the keep-everything baseline, and flat as the job count doubles).
//
// On-disk layout (all under campaign_config::dir):
//
//  * `shards.jsonl` — one `fct_summary::to_jsonl` line per finished job,
//    append-only, completion order (nondeterministic order, deterministic
//    content).
//  * `journal.jsonl` — the commit record: one line per finished job,
//    `{"job":N,"hash":"<16 hex>","crc":"<8 hex>"}`, appended strictly AFTER
//    the job's spill line is flushed, so a journaled job always has a
//    complete spill line.  `hash` is the FNV-1a hash of the job's config;
//    `crc` covers the rest of the line, so torn or corrupted lines are
//    rejected (and counted), never trusted.
//  * `results.jsonl` — written only when every job is done: the summaries
//    in ascending job order.  Because each job's summary is a pure function
//    of its config and serialization is deterministic, this file is
//    byte-identical however the campaign was scheduled, interrupted or
//    resumed.
//
// The resume contract (docs/ARCHITECTURE.md, lifetime contract 5): a job id
// is its index in the config list, so every invocation of the same campaign
// must pass the identical config list.  `resume = true` replays the
// journal, re-verifies each entry's config hash against the *current*
// config at that index (a mismatch re-runs the job rather than trusting a
// stale result) and requires the entry's spill line to parse — then runs
// only what is missing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/parallel_runner.h"
#include "stats/fct_summary.h"

namespace ndpsim {

/// FNV-1a, the repo's deterministic content hash for campaign identity
/// (config hashes, journal line CRCs).  Not cryptographic — it guards
/// against corruption and config drift, not adversaries.
[[nodiscard]] std::uint64_t fnv1a_64(const void* data, std::size_t len,
                                     std::uint64_t seed = 0xcbf29ce484222325ULL);
[[nodiscard]] std::uint32_t fnv1a_32(const void* data, std::size_t len,
                                     std::uint32_t seed = 0x811c9dc5U);

/// Hash of everything that determines a job's result: name bytes, seed,
/// param, param2 (bit patterns — -0.0 and 0.0 hash apart, NaNs stably).
[[nodiscard]] std::uint64_t config_hash(const experiment_config& cfg);

/// One journal line (no trailing newline): `{"job":N,"hash":...,"crc":...}`
/// with the CRC computed over everything before the crc field.
[[nodiscard]] std::string make_journal_line(std::uint64_t job,
                                            std::uint64_t hash);
/// Strict parse + CRC check of one journal line.
[[nodiscard]] bool parse_journal_line(std::string_view line,
                                      std::uint64_t& job, std::uint64_t& hash);

struct campaign_config {
  std::string dir;          ///< spill/journal/results directory (created)
  unsigned threads = 0;     ///< 0 = hardware concurrency
  bool resume = false;      ///< replay the journal instead of starting over
  /// Interruption hook: stop claiming new jobs once this many have finished
  /// in THIS invocation (0 = run to completion).  In-flight jobs still
  /// finish and are journaled, so a stopped campaign resumes cleanly.
  std::size_t max_jobs = 0;
};

struct campaign_result {
  std::size_t jobs_total = 0;
  std::size_t jobs_run = 0;      ///< executed in this invocation
  std::size_t jobs_skipped = 0;  ///< satisfied from the journal
  std::size_t journal_rejects = 0;  ///< corrupt/stale journal lines ignored
  std::size_t spill_rejects = 0;    ///< corrupt/stale spill lines ignored
  bool completed = false;  ///< every job done; results.jsonl written
  std::string merged_path;  ///< empty unless completed
  /// Per-job summaries, ascending job id.  Covers every finished job (all
  /// of them when `completed`).
  std::vector<fct_summary> summaries;

  /// Campaign-wide aggregate of `summaries` (exact totals add, sketches
  /// merge).  Meaningful once completed; job/hash/name are zeroed.
  [[nodiscard]] fct_summary total() const;
};

class campaign_runner {
 public:
  explicit campaign_runner(campaign_config cfg) : cfg_(std::move(cfg)) {}

  /// Run (or resume) the campaign.  The config list must be identical
  /// across invocations of one campaign directory — job ids are config
  /// indices (see the resume contract above).  Throws on I/O failure and
  /// rethrows the first failed job's exception.
  campaign_result run(const std::vector<experiment_config>& configs,
                      const experiment_fn& body) const;

 private:
  campaign_config cfg_;
};

}  // namespace ndpsim
