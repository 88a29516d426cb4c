// Declarations shared by the workload loops (main.cc) and the per-layer
// probes (layers.cc).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/outcome.h"
#include "fleet/fleet.h"
#include "fuzz/engine.h"
#include "util.h"

namespace perfbench {

// Input sizes. `small` is the self-test size: same code paths, a fraction
// of the work, no committed reference for fuzz and fleet.
struct Sizes {
  int pool = 4096;             // campaign run seeds with a reference digest
  int cold_batch = 4;          // runs per campaign_cold repetition
  int cold_sim_runs = 64;      // canonical runs the sim metrics come from
  int cold_window = 96;        // runs of the --seed window
  int cold_min_runs = 220;     // p95 needs >= 10 samples beyond it
  int warm_batch = 32;         // runs per campaign_warm repetition
  int warm_sim_runs = 256;
  int warm_window = 256;
  int fuzz_iterations = 12;    // scenarios per fuzz repetition
  int fuzz_sim_scenarios = 32;
  int fleet_hosts = 100;
  int fleet_tenants = 10;
  int fleet_horizon_s = 3600;
  int probe_reps = 5;          // repetitions of each timed layer call
  int core_pairs = 40;         // full vs split replays of one run
  static Sizes Small();
};

// Workload input definitions (public entry-point configurations).
inline constexpr std::uint64_t kFuzzMasterSeed = 3;
inline constexpr std::uint64_t kFleetMasterSeed = 1000;
inline constexpr int kWarmThreads = 2;

nlh::core::RunConfig ColdConfig(std::uint64_t run_seed);
nlh::core::RunConfig WarmConfig(std::uint64_t run_seed);
nlh::fuzz::FuzzOptions FuzzConfig(const Sizes& z);
nlh::fleet::FleetConfig FleetConfig(const Sizes& z);
// Pool index -> run seed of the campaign workloads.
inline std::uint64_t PoolSeed(int index) {
  return static_cast<std::uint64_t>(index) + 1;
}

// Digest of one simulated run: FNV-1a of its forensics::ResultJson.
std::uint64_t RunDigest(const nlh::core::RunResult& r);
// Digest of one fuzz campaign: coverage hash plus reproducer signatures.
std::string FuzzDigestText(const nlh::fuzz::FuzzStats& s);

// Committed reference outputs (perfbench/ref/).
struct References {
  std::vector<std::uint64_t> cold;   // per pool index
  std::vector<std::uint64_t> warm;   // per pool index, recorded cold
  std::string fuzz;                  // FuzzDigestText of the full-size run
  std::string fuzz_sim;              // hex digest of the fuzz sim batch
  std::string fleet;                 // FleetResult::ToJson of the full run
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string root;     // checkout root (reads tests/corpus/)
  std::string ref_dir;  // perfbench/ref
  Sizes sizes;
  References refs;
};

// Pool index where the --seed window of the campaign workloads starts.
inline int WindowStart(const Context& ctx) {
  return static_cast<int>((ctx.seed * 977) %
                          static_cast<std::uint64_t>(ctx.sizes.pool));
}

// What the traced workload loop hands to the layer probes so they do not
// redo work the loop already did.
struct LoopArtifacts {
  bool have_fuzz = false;
  nlh::fuzz::FuzzStats fuzz;
  bool have_fleet = false;
  std::string fleet_json;  // FleetSim::Run output of the loop
};

// Runs every per-layer probe and adds one metric per per-layer name. A
// failed probe check (attribution, rebuilt fleet run, corpus replay, fuzz
// digest) is appended to `why`.
void RunLayerProbes(const Context& ctx, const LoopArtifacts& loop,
                    Tracer& tracer, std::map<std::string, double>* metrics,
                    std::vector<std::string>* why);

}  // namespace perfbench
