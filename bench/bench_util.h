// Shared helpers for the per-figure benchmark binaries.
//
// Every binary reproduces one figure/table of the paper: it prints the
// paper's qualitative expectation, then one row per case with the measured
// counters.  Topology sizes default to laptop-friendly scale; set
// NDP_BENCH_SCALE=paper for the paper's sizes (432/8192-host FatTrees etc.).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace ndpsim::bench {

/// True when NDP_BENCH_SCALE=paper: run the paper's full topology sizes.
inline bool paper_scale() {
  const char* s = std::getenv("NDP_BENCH_SCALE");
  return s != nullptr && std::strcmp(s, "paper") == 0;
}

/// FatTree k for "the 432-host topology" experiments (k=12 at paper scale).
inline unsigned default_k() { return paper_scale() ? 12 : 8; }

inline void print_banner(const char* figure, const char* expectation) {
  std::printf("\n=== %s ===\n", figure);
  std::printf("paper expectation: %s\n", expectation);
  std::printf("scale: %s (set NDP_BENCH_SCALE=paper for full size)\n\n",
              paper_scale() ? "paper" : "reduced");
}

struct counter {
  const char* name;
  double value;
};

/// One case's result: its label, then each counter as `name=value`.
/// Flushed, so a case that fails leaves every finished row behind it.
inline void print_row(const std::string& label,
                      std::initializer_list<counter> counters) {
  std::printf("%-34s |", label.c_str());
  for (const counter& c : counters) std::printf(" %s=%.6g", c.name, c.value);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace ndpsim::bench
