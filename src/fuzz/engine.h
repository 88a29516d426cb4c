// The fuzzing engine: deterministic, coverage-guided search over scenarios
// with a differential oracle and automatic shrinking.
//
// Determinism contract: a campaign is a pure function of FuzzOptions
// (master_seed, iterations, batch, shrink budget). All rng draws happen on
// the coordinating thread in batch order; worker threads only execute runs
// (core::RunMany is thread-count-invariant), so the scenario stream, the
// coverage map, the divergence list, and every shrunk reproducer are
// byte-identical at any thread count — the property test_fuzz locks in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/coverage.h"
#include "fuzz/oracle.h"

namespace nlh::fuzz {

struct FuzzOptions {
  std::uint64_t master_seed = 1;
  int iterations = 200;      // scenarios to evaluate (one run per policy)
  int threads = 0;           // forwarded to core::RunMany (0 = hw threads)
  // Mechanisms each scenario is differentially evaluated under. Empty =
  // DefaultPolicies() (the historical NiLiHype/ReHype/baseline triple);
  // AllPolicies() adds snapres as a fourth variant.
  std::vector<core::Mechanism> policies;
  int batch = 16;            // scenarios evaluated per RunMany batch
  int max_shrink_evals = 64;  // oracle-eval budget per flagged scenario
  int max_corpus = 16;       // reproducers emitted per campaign
  std::string corpus_dir;    // "" = keep reproducers in memory only
  // Optional progress lines (batch summaries, shrink results).
  std::function<void(const std::string&)> on_progress;
};

struct FuzzReproducer {
  Scenario scenario;  // shrunk
  DivergenceKind kind = DivergenceKind::kNone;
  std::string detail;
  std::uint64_t divergence_signature = 0;
  int plan_elements = 0;
  int shrink_evals = 0;
  std::string path;  // written file, "" when corpus_dir unset or write failed
};

struct FuzzStats {
  int scenarios = 0;
  int divergent = 0;         // scenarios flagged by the oracle
  int unique_divergent = 0;  // distinct divergence signatures
  int shrink_evals = 0;
  std::size_t coverage = 0;          // distinct coverage signatures
  std::uint64_t coverage_hash = 0;   // canonical digest of the coverage map
  std::vector<FuzzReproducer> reproducers;
};

FuzzStats Fuzz(const FuzzOptions& options);

}  // namespace nlh::fuzz
