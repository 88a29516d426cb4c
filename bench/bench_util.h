// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper and
// prints the same rows/series. BenchArgs::Parse reads the common flags
// (--help lists them; an unknown flag or a malformed value exits 2):
// --runs=N overrides the reduced default campaign sizes, --full selects the
// paper's injection counts (1000-5000 per fault type, Section VII-A), and
// --threads=0 (the default) uses all cores.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/campaign.h"
#include "sim/flags.h"

namespace nlh::bench {

struct BenchArgs {
  int runs = 0;       // 0 = per-bench default
  bool full = false;
  int threads = 0;
  std::uint64_t seed = 1000;

  // Parses the common flags; exits on --help (0) or a bad flag (2).
  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs a;
    std::uint64_t threads = 0;
    const std::vector<sim::Flag> flags = {
        sim::Flag::PositiveInt("--runs", &a.runs, "N", "runs per cell"),
        sim::Flag::Switch("--full", &a.full, "the paper's injection counts"),
        sim::Flag::U64("--threads", &threads, INT_MAX, "threads (0 = all)"),
        sim::Flag::U64("--seed", &a.seed, UINT64_MAX, "base seed (1000)"),
    };
    if (const std::optional<int> exit = sim::ParseFlags(argc, argv, flags)) {
      std::exit(*exit);
    }
    a.threads = static_cast<int>(threads);
    return a;
  }

  core::CampaignOptions MakeOptions(int default_runs, int full_runs) const {
    core::CampaignOptions o;
    o.runs = runs > 0 ? runs : (full ? full_runs : default_runs);
    o.threads = threads;
    o.seed0 = seed;
    return o;
  }
};

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(reproduces %s of \"Fast Hypervisor Recovery Without Reboot\","
              " DSN 2018)\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace nlh::bench
