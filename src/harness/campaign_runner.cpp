#include "harness/campaign_runner.h"

#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

namespace ndpsim {

std::uint64_t fnv1a_64(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint32_t fnv1a_32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x01000193U;
  }
  return h;
}

std::uint64_t config_hash(const experiment_config& cfg) {
  std::uint64_t h = fnv1a_64(cfg.name.data(), cfg.name.size());
  h = fnv1a_64(&cfg.seed, sizeof cfg.seed, h);
  h = fnv1a_64(&cfg.param, sizeof cfg.param, h);
  std::uint64_t p2bits = 0;
  std::memcpy(&p2bits, &cfg.param2, sizeof p2bits);
  return fnv1a_64(&p2bits, sizeof p2bits, h);
}

std::string make_journal_line(std::uint64_t job, std::uint64_t hash) {
  char core[64];
  const int n = std::snprintf(core, sizeof core,
                              "{\"job\":%" PRIu64 ",\"hash\":\"%016" PRIx64
                              "\"",
                              job, hash);
  const std::uint32_t crc = fnv1a_32(core, static_cast<std::size_t>(n));
  char line[96];
  const int m = std::snprintf(line, sizeof line, "%s,\"crc\":\"%08" PRIx32
                              "\"}",
                              core, crc);
  return std::string(line, static_cast<std::size_t>(m));
}

bool parse_journal_line(std::string_view line, std::uint64_t& job,
                        std::uint64_t& hash) {
  constexpr std::string_view kCrcKey = ",\"crc\":\"";
  const std::size_t pos = line.rfind(kCrcKey);
  if (pos == std::string_view::npos) return false;
  const std::string_view core = line.substr(0, pos);
  const std::string_view rest = line.substr(pos + kCrcKey.size());
  // rest must be exactly 8 hex digits + `"}`.
  if (rest.size() != 10 || rest[8] != '"' || rest[9] != '}') return false;
  std::uint32_t crc = 0;
  {
    auto [next, ec] = std::from_chars(rest.data(), rest.data() + 8, crc, 16);
    if (ec != std::errc() || next != rest.data() + 8) return false;
  }
  if (crc != fnv1a_32(core.data(), core.size())) return false;
  // Strict parse of the CRC-verified core.
  constexpr std::string_view kJobKey = "{\"job\":";
  if (core.substr(0, kJobKey.size()) != kJobKey) return false;
  const char* p = core.data() + kJobKey.size();
  const char* end = core.data() + core.size();
  auto [next, ec] = std::from_chars(p, end, job);
  if (ec != std::errc() || next == p) return false;
  p = next;
  constexpr std::string_view kHashKey = ",\"hash\":\"";
  if (static_cast<std::size_t>(end - p) != kHashKey.size() + 17) return false;
  if (std::string_view(p, kHashKey.size()) != kHashKey) return false;
  p += kHashKey.size();
  auto [hnext, hec] = std::from_chars(p, p + 16, hash, 16);
  if (hec != std::errc() || hnext != p + 16) return false;
  return *(p + 16) == '"';
}

fct_summary campaign_result::total() const {
  if (summaries.empty()) return fct_summary();
  fct_summary t(summaries.front().sketch.alpha());
  for (const fct_summary& s : summaries) t.merge_from(s);
  t.job = 0;
  t.hash = 0;
  t.name.clear();
  return t;
}

namespace {

/// Apply `fn` to every non-empty line of `path` (absent file = no lines).
template <typename Fn>
void for_each_line(const std::filesystem::path& path, Fn&& fn) {
  std::ifstream in(path);
  if (!in.is_open()) return;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) fn(line);
  }
}

}  // namespace

campaign_result campaign_runner::run(
    const std::vector<experiment_config>& configs,
    const experiment_fn& body) const {
  namespace fs = std::filesystem;
  if (cfg_.dir.empty()) {
    throw std::runtime_error("campaign_runner: empty campaign directory");
  }
  const fs::path dir(cfg_.dir);
  fs::create_directories(dir);
  const fs::path journal_path = dir / "journal.jsonl";
  const fs::path shards_path = dir / "shards.jsonl";
  const fs::path merged_path = dir / "results.jsonl";

  campaign_result res;
  res.jobs_total = configs.size();

  // job id -> finished summary (ascending — the merge order).
  std::map<std::uint64_t, fct_summary> done;

  if (cfg_.resume) {
    // Pass 1: spill lines.  A line is trusted only if it parses strictly
    // AND its job/hash match the current config list — anything else
    // (torn write, corruption, config drift) is counted and the job re-run.
    std::map<std::uint64_t, fct_summary> spilled;
    for_each_line(shards_path, [&](const std::string& line) {
      fct_summary s;
      if (!fct_summary::from_jsonl(line, s) || s.job >= configs.size() ||
          s.hash != config_hash(configs[s.job])) {
        ++res.spill_rejects;
        return;
      }
      spilled[s.job] = std::move(s);
    });
    // Pass 2: the journal decides what counts as finished.  A journaled job
    // without a trusted spill line (crash between the two appends is
    // impossible by write order, but a corrupt spill line is not) re-runs.
    for_each_line(journal_path, [&](const std::string& line) {
      std::uint64_t job = 0;
      std::uint64_t hash = 0;
      if (!parse_journal_line(line, job, hash) || job >= configs.size() ||
          hash != config_hash(configs[job])) {
        ++res.journal_rejects;
        return;
      }
      auto it = spilled.find(job);
      if (it == spilled.end()) {
        ++res.journal_rejects;
        return;
      }
      done.insert_or_assign(job, std::move(it->second));
    });
  } else {
    // Fresh campaign: truncate any previous state.
    std::ofstream(journal_path, std::ios::trunc);
    std::ofstream(shards_path, std::ios::trunc);
    std::error_code ec;
    fs::remove(merged_path, ec);
  }
  res.jobs_skipped = done.size();

  std::vector<experiment_config> pending;
  std::vector<std::uint64_t> pending_ids;
  pending.reserve(configs.size() - done.size());
  pending_ids.reserve(configs.size() - done.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (done.find(i) == done.end()) {
      pending.push_back(configs[i]);
      pending_ids.push_back(i);
    }
  }

  if (!pending.empty()) {
    std::ofstream shards(shards_path, std::ios::app);
    std::ofstream journal(journal_path, std::ios::app);
    if (!shards.is_open() || !journal.is_open()) {
      throw std::runtime_error("campaign_runner: cannot open spill/journal in " +
                               cfg_.dir);
    }
    std::mutex mu;
    std::atomic<bool> stop{false};
    const parallel_runner runner(cfg_.threads);
    runner.run_streaming(
        pending, body,
        [&](std::size_t pi, experiment_outcome&& out) {
          const std::uint64_t job = pending_ids[pi];
          // Worker-side reduction: O(flows) recorder + O(slots) plane fold
          // into a few-hundred-byte summary, then the heavy payload is
          // freed BEFORE the spill lock — peak memory never holds more
          // than one full outcome per worker.
          fct_summary s = fct_summary::from_recorder(out.fcts);
          s.job = job;
          s.hash = config_hash(out.config);
          s.name = out.config.name;
          s.events = out.events_processed;
          if (out.telemetry != nullptr) s.set_telemetry(*out.telemetry);
          out.fcts = fct_recorder();
          out.telemetry.reset();
          const std::string line = s.to_jsonl();
          const std::lock_guard<std::mutex> lk(mu);
          // Spill first, flush, then journal: the journal only ever names
          // jobs whose spill line is complete on disk.
          shards << line << '\n';
          shards.flush();
          journal << make_journal_line(job, s.hash) << '\n';
          journal.flush();
          done.insert_or_assign(job, std::move(s));
          ++res.jobs_run;
          if (cfg_.max_jobs > 0 && res.jobs_run >= cfg_.max_jobs) {
            stop.store(true, std::memory_order_relaxed);
          }
        },
        &stop);
  }

  res.completed = done.size() == configs.size();
  res.summaries.reserve(done.size());
  for (auto& [job, s] : done) res.summaries.push_back(std::move(s));

  if (res.completed) {
    // The merged result: spill lines re-emitted in job order.  Re-emission
    // of a parsed line is byte-identical (fct_summary round-trip contract),
    // so resumed and uninterrupted campaigns write the same file.
    std::ofstream merged(merged_path, std::ios::trunc);
    if (!merged.is_open()) {
      throw std::runtime_error("campaign_runner: cannot write " +
                               merged_path.string());
    }
    for (const fct_summary& s : res.summaries) merged << s.to_jsonl() << '\n';
    merged.flush();
    res.merged_path = merged_path.string();
  }
  return res;
}

}  // namespace ndpsim
