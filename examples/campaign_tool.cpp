// A command-line fault-injection campaign tool — the equivalent of the
// paper's Campaign Agent (Section VI-C, Figure 1). Runs N independent
// injection runs of a chosen configuration and prints the aggregate
// statistics with 95% confidence intervals.
//
// `campaign_tool --help` lists every flag, printed from the flag table in
// main(); the notes below explain what the less obvious ones mean. Every
// flag is parsed strictly (sim/flags.h): an unknown flag, a malformed or
// out-of-range number ("abc", "-5", "150ms") or an unknown --mechanism,
// --fault, --setup, --bench or --placement value exits 2 with the usage.
// --fleet, --fuzz, --replay, --shrink and --corpus (without --fuzz) each
// select a mode; passing two of them exits 2 naming both.
//
// --mechanism accepts any slug in core::kMechanisms (none, nilihype,
// rehype, snapres). --snapshot-period sets the snapres capture cadence.
// --warm-fork switches the campaign to the warm-fork runner: per-worker
// template systems advance through periodic full-system snapshots and every
// injection run forks off the epoch preceding its trigger — bit-identical
// results, large speedup on boot-dominated runs.
// --privvm-recovery arms the PrivVM component-recovery path (detector +
// backend/ring repair, run after every hypervisor recovery and on PrivVM-only
// failures). --privvm-plants[=OFFSET_US] additionally plants the correlated
// during-recovery PrivVM damage (backend queue at OFFSET after detection,
// I/O ring 500us later; default 200, the pair the test battery uses) into
// every run; it implies --privvm-recovery. Offsets beyond a mechanism's
// recovery latency land on the resumed system and survive as latent
// corruption — the cross-component exposure window the corpus reproducers
// pin.
// --integrity arms the always-on epoch integrity monitor (src/integrity/):
// every scheduler-tick epoch the per-subsystem state-hash ladder is
// recomputed and unexplained drift (hash moved, mutation ledger static) is
// flagged; the campaign aggregate gains the integrity block (drift runs,
// corruption->drift latency histogram, first-drift surfaces).
// --proactive[=THRESHOLD] additionally arms proactive rejuvenation: after
// THRESHOLD unexplained drift events (default 1) the configured recovery
// mechanism is triggered on the still-running system — recovery before
// manifestation. Implies --integrity.
// --integrity-out=FILE writes the campaign aggregate plus the seed0
// replay's monitor summary (epochs, drifts, first-drift surface, drift
// trail fingerprint) as JSON. Implies --integrity.
// --audit runs the state auditor at the end of every run (differential
// against a pre-injection golden snapshot) and splits the success rate into
// audit-clean vs latent-corruption. --audit-out additionally replays seed0
// and writes its full finding list as JSON (implies --audit).
// --trace-out replays the campaign's first run (seed0) with span tracing
// enabled and writes a Chrome trace_event JSON (load in chrome://tracing or
// Perfetto). --metrics-out writes the campaign aggregate plus the replayed
// run's metrics registry as JSON.
//
// Forensics:
// --dossier-dir=DIR  after the campaign, deterministically replay every
//                    non-successful run (failed recovery, SDC, or latent
//                    corruption when --audit) with the flight recorder and
//                    tracer on, and write one dossier per run to
//                    DIR/run_<run_id>.json (run_id == the run's seed; the
//                    directory is created if missing).
// --replay=RUN_ID    skip the campaign and replay that one run with full
//                    telemetry (kTrace logging to stderr); writes its
//                    dossier to --dossier-dir (default "dossiers") and, with
//                    --profile-out, a flamegraph.pl-compatible
//                    collapsed-stack profile of the simulated time.
// --profile-out=F    write the collapsed-stack profile of the replayed run
//                    (with --replay, or of the seed0 replay otherwise).
// Fuzzing (src/fuzz/):
// --fuzz=N           run the scenario fuzzer for N scenarios (each evaluated
//                    under NiLiHype, ReHype, and the no-recovery baseline by
//                    the differential oracle); divergent scenarios are
//                    shrunk to minimal reproducers.
// --fuzz-seed=S      master seed of the fuzzing campaign (the whole
//                    campaign is a pure function of it).
// --corpus=DIR       with --fuzz: write shrunk reproducers here. Without
//                    --fuzz: corpus regression mode — replay every
//                    reproducer in DIR and verify its recorded verdicts
//                    byte-for-byte (exit 1 on any mismatch).
// --shrink=FILE      re-shrink the scenario of an existing reproducer
//                    bundle and report the minimal form (useful after
//                    simulator changes).
// --replay also accepts a reproducer path: --replay=FILE.json re-evaluates
// that scenario under the policies its bundle recorded and prints the
// per-policy verdicts (--shrink evaluates under them too).
// Fleet mode (src/fleet/):
// --fleet            run the fleet-scale simulator instead of a campaign:
//                    --hosts=N hosts each serving --tenants=N tenant VMs for
//                    --fleet-horizon=S seconds under the configured
//                    --mechanism, with fault events drawn from the master
//                    seed (--seed). Prints the fleet summary (faults,
//                    evacuations, request tallies, SLO-violation-minutes);
//                    --fleet-out=FILE writes the FleetResult JSON.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/target_system.h"
#include "fleet/fleet.h"
#include "forensics/dossier.h"
#include "forensics/profiler.h"
#include "fuzz/engine.h"
#include "fuzz/shrinker.h"
#include "sim/flags.h"
#include "sim/json.h"

using namespace nlh;

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

void PrintVerdicts(const fuzz::OracleOutcome& o) {
  for (const fuzz::PolicyVerdict& v : o.verdicts) {
    std::printf("  %-9s %s%s%s\n", core::MechanismName(v.mechanism),
                core::OutcomeClassName(v.outcome),
                v.detected ? (v.success ? " recovered" : " recovery-failed")
                           : "",
                v.latent_corruption ? " +latent-corruption" : "");
  }
  std::printf("divergence: %s%s%s\n",
              fuzz::DivergenceKindName(o.divergence),
              o.detail.empty() ? "" : " — ", o.detail.c_str());
}

// Corpus regression mode: replay every reproducer, byte-compare verdicts.
int RunCorpusCheck(const std::string& dir, int threads) {
  const std::vector<std::string> paths = fuzz::ListCorpus(dir);
  std::printf("corpus check: %zu reproducer(s) under %s\n", paths.size(),
              dir.c_str());
  int failures = 0;
  for (const std::string& path : paths) {
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(path, &rep, &err)) {
      std::printf("  LOAD-FAIL %s (%s)\n", path.c_str(), err.c_str());
      ++failures;
      continue;
    }
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, threads, rep.policies);
    bool ok = o.divergence == rep.divergence &&
              o.verdicts.size() == rep.expected_verdicts.size();
    for (std::size_t i = 0; ok && i < o.verdicts.size(); ++i) {
      sim::JsonValue doc;
      if (!sim::ParseJson(o.verdicts[i].ToJson(), &doc) ||
          sim::WriteJson(doc) != rep.expected_verdicts[i]) {
        ok = false;
      }
    }
    std::printf("  %-8s %s\n", ok ? "OK" : "MISMATCH", path.c_str());
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::printf("corpus check FAILED: %d of %zu reproducer(s)\n", failures,
                paths.size());
    return 1;
  }
  std::printf("corpus check passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunConfig cfg;
  core::CampaignOptions opts;
  opts.runs = 200;
  bool verbose = false;
  guest::BenchmarkKind bench = guest::BenchmarkKind::kUnixBench;
  bool one_appvm = false;
  int snapshot_ms = 0;  // 0 = RunConfig's default cadence
  std::uint64_t threads = 0;
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
  std::string integrity_out;
  std::string dossier_dir;
  std::string profile_out;
  std::string replay;        // --replay=RUN_ID or --replay=REPRO.json
  int fuzz_iterations = 0;   // --fuzz=N (0 = fuzzing off)
  std::uint64_t fuzz_seed = 1;
  std::string corpus_dir;
  std::string shrink_path;
  int shrink_evals = 64;
  int max_corpus = 16;
  bool fuzz_all_mechs = false;  // --fuzz-all-mechs: snapres as 4th variant
  bool privvm_plants = false;   // --privvm-plants: correlated PrivVM damage
  int privvm_plant_us = 200;
  bool fleet_mode = false;      // --fleet: fleet simulator instead of campaign
  fleet::FleetConfig fleet_cfg;
  std::string fleet_out;

  std::vector<std::pair<const char*, core::Mechanism>> mechanisms;
  for (const core::MechanismInfo& m : core::kMechanisms) {
    mechanisms.emplace_back(m.slug, m.mechanism);
  }
  using fleet::PlacementPolicy;
  using guest::BenchmarkKind;
  using inject::FaultType;
  using sim::Flag;
  const std::vector<Flag> flags = {
      Flag::Choice("--mechanism", &cfg.mechanism, mechanisms, "mechanism",
                   "recovery mechanism under test"),
      Flag::Choice("--fault", &cfg.fault,
                   {{"failstop", FaultType::kFailstop},
                    {"register", FaultType::kRegister},
                    {"code", FaultType::kCode},
                    {"memory", FaultType::kMemory}},
                   "fault class", "injected fault class"),
      Flag::Choice("--setup", &one_appvm, {{"1appvm", true}, {"3appvm", false}},
                   "setup", "PrivVM plus one or three AppVMs"),
      Flag::Choice("--bench", &bench,
                   {{"unix", BenchmarkKind::kUnixBench},
                    {"blk", BenchmarkKind::kBlkBench},
                    {"net", BenchmarkKind::kNetBench}},
                   "bench", "the 1appvm setup's workload"),
      Flag::PositiveInt("--runs", &opts.runs, "N", "injection runs (200)"),
      Flag::U64("--seed", &opts.seed0, UINT64_MAX,
                "first run's seed; the fleet's master seed"),
      Flag::U64("--threads", &threads, INT_MAX, "worker threads (0 = all)"),
      Flag::PositiveInt("--snapshot-period", &snapshot_ms, "MS",
                        "SnapRes capture cadence (100)"),
      Flag::Switch("--warm-fork", &opts.warm_fork,
                   "fork runs off warm snapshots (same results)"),
      Flag::Switch("--privvm-recovery", &cfg.privvm_recovery,
                   "arm PrivVM component recovery"),
      Flag::OptionalInt("--privvm-plants", &privvm_plants, &privvm_plant_us,
                        "US", "PrivVM damage US after detection (200)"),
      Flag::Switch("--audit", &cfg.audit, "audit every run's end state"),
      Flag::Text("--audit-out", &audit_out, "FILE.json",
                 "seed0's audit findings (implies --audit)"),
      Flag::Switch("--integrity", &cfg.integrity, "arm the integrity monitor"),
      Flag::OptionalInt("--proactive", &cfg.proactive,
                        &cfg.proactive_threshold, "N",
                        "rejuvenate after N drifts (1; implies --integrity)"),
      Flag::Text("--integrity-out", &integrity_out, "FILE.json",
                 "seed0's monitor summary (implies --integrity)"),
      Flag::Text("--trace-out", &trace_out, "FILE.json",
                 "seed0's Chrome trace"),
      Flag::Text("--metrics-out", &metrics_out, "FILE.json", "seed0's metrics"),
      Flag::Text("--dossier-dir", &dossier_dir, "DIR",
                 "a dossier per non-successful run"),
      Flag::Text("--profile-out", &profile_out, "FILE.folded",
                 "collapsed-stack profile"),
      Flag::Switch("--verbose", &verbose, "print every run's outcome"),
      Flag::Text("--replay", &replay, "RUN_ID|REPRO.json",
                 "replay a run or a reproducer"),
      Flag::PositiveInt("--fuzz", &fuzz_iterations, "N", "fuzz N scenarios"),
      Flag::U64("--fuzz-seed", &fuzz_seed, UINT64_MAX, "fuzz master seed (1)"),
      Flag::Switch("--fuzz-all-mechs", &fuzz_all_mechs,
                   "fuzz with SnapRes as a fourth policy"),
      Flag::Text("--corpus", &corpus_dir, "DIR",
                 "--fuzz output; alone, check every reproducer in it"),
      Flag::Text("--shrink", &shrink_path, "REPRO.json",
                 "re-shrink a reproducer's scenario"),
      Flag::PositiveInt("--shrink-evals", &shrink_evals, "N",
                        "evaluations per shrink (64)"),
      Flag::PositiveInt("--max-corpus", &max_corpus, "N",
                        "reproducers per fuzz run (16)"),
      Flag::Switch("--fleet", &fleet_mode, "run the fleet simulator"),
      Flag::PositiveInt("--hosts", &fleet_cfg.hosts, "N", "fleet hosts (100)"),
      Flag::PositiveInt("--tenants", &fleet_cfg.tenants_per_host, "N",
                        "tenant VMs per host (10)"),
      Flag::PositiveInt("--fleet-horizon", &fleet_cfg.horizon_s, "S",
                        "simulated fleet seconds (3600)"),
      Flag::Choice("--placement", &fleet_cfg.placement,
                   {{"least-loaded", PlacementPolicy::kLeastLoaded},
                    {"first-fit", PlacementPolicy::kFirstFit}},
                   "placement policy", "evacuation placement"),
      Flag::Text("--fleet-out", &fleet_out, "FILE.json", "FleetResult JSON"),
  };
  if (const std::optional<int> exit = sim::ParseFlags(argc, argv, flags)) {
    return *exit;
  }

  std::vector<const char*> modes;
  if (fleet_mode) modes.push_back("--fleet");
  if (fuzz_iterations > 0) modes.push_back("--fuzz");
  if (!replay.empty()) modes.push_back("--replay");
  if (!shrink_path.empty()) modes.push_back("--shrink");
  if (!corpus_dir.empty() && fuzz_iterations == 0) modes.push_back("--corpus");
  if (modes.size() > 1) {
    std::printf("%s and %s select different modes; pass one\n", modes[0],
                modes[1]);
    sim::PrintUsage(argv[0], flags);
    return 2;
  }
  // --replay=<digits> replays a campaign run; anything else is a path.
  std::uint64_t replay_id = 0;
  const bool replay_mode = sim::ParseUnsigned(replay, 0, UINT64_MAX,
                                              &replay_id);
  const std::string replay_path = replay_mode ? "" : replay;
  if (snapshot_ms > 0) cfg.snapshot_period = sim::Milliseconds(snapshot_ms);
  opts.threads = static_cast<int>(threads);
  // The layers these flags feed are invisible unless armed.
  if (privvm_plants) cfg.privvm_recovery = true;
  if (!audit_out.empty()) cfg.audit = true;
  if (cfg.proactive || !integrity_out.empty()) cfg.integrity = true;

  // --- Fleet mode (src/fleet/) ----------------------------------------------
  if (fleet_mode) {
    fleet_cfg.mechanism = cfg.mechanism;
    fleet_cfg.master_seed = opts.seed0;
    // Fault class rides along (--fault=register/memory gives the fleet
    // non-manifested/SDC/latent variety; failstop is all-detected).
    fleet_cfg.host_config.fault = cfg.fault;
    std::printf(
        "fleet: %d hosts x %d tenants, %d s horizon, %s, placement %s "
        "(seed %llu)\n",
        fleet_cfg.hosts, fleet_cfg.tenants_per_host, fleet_cfg.horizon_s,
        core::MechanismName(fleet_cfg.mechanism),
        fleet::PlacementPolicyName(fleet_cfg.placement),
        static_cast<unsigned long long>(fleet_cfg.master_seed));
    fleet::FleetSim fsim(fleet_cfg);
    const fleet::FleetResult fr = fsim.Run(opts.threads);
    std::printf("%s", fr.Summary().c_str());
    if (!fleet_out.empty()) {
      if (!WriteFile(fleet_out, fr.ToJson())) return 1;
      std::printf("fleet result written to %s\n", fleet_out.c_str());
    }
    return 0;
  }

  // --- Fuzzing / corpus / reproducer modes (src/fuzz/) ----------------------
  if (!replay_path.empty()) {
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(replay_path, &rep, &err)) {
      std::printf("cannot replay %s: %s\n", replay_path.c_str(), err.c_str());
      sim::PrintUsage(argv[0], flags);
      return 2;
    }
    std::printf("replaying reproducer %s (%s, %d plan elements)\n",
                replay_path.c_str(), fuzz::DivergenceKindName(rep.divergence),
                rep.scenario.PlanElementCount());
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, opts.threads, rep.policies);
    PrintVerdicts(o);
    return o.divergence == rep.divergence ? 0 : 1;
  }
  if (!shrink_path.empty()) {
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(shrink_path, &rep, &err)) {
      std::printf("cannot shrink %s: %s\n", shrink_path.c_str(), err.c_str());
      sim::PrintUsage(argv[0], flags);
      return 2;
    }
    const fuzz::OracleOutcome before =
        fuzz::EvaluateScenario(rep.scenario, opts.threads, rep.policies);
    if (before.divergence != rep.divergence) {
      std::printf("scenario no longer shows %s (now %s) — nothing to shrink\n",
                  fuzz::DivergenceKindName(rep.divergence),
                  fuzz::DivergenceKindName(before.divergence));
      return 1;
    }
    const fuzz::ShrinkResult shrunk = fuzz::ShrinkScenario(
        rep.scenario, rep.divergence,
        [&opts, &rep](const fuzz::Scenario& s) {
          return fuzz::EvaluateScenario(s, opts.threads, rep.policies);
        },
        shrink_evals);
    std::printf("shrunk to %d plan element(s) in %d eval(s):\n%s\n",
                shrunk.scenario.PlanElementCount(), shrunk.evals,
                shrunk.scenario.ToJson().c_str());
    return 0;
  }
  if (fuzz_iterations > 0) {
    fuzz::FuzzOptions fopts;
    fopts.master_seed = fuzz_seed;
    fopts.iterations = fuzz_iterations;
    fopts.threads = opts.threads;
    fopts.max_shrink_evals = shrink_evals;
    fopts.max_corpus = max_corpus;
    fopts.corpus_dir = corpus_dir;
    if (fuzz_all_mechs) fopts.policies = fuzz::AllPolicies();
    fopts.on_progress = [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    };
    std::printf("fuzzing: %d scenarios (master seed %llu)\n", fuzz_iterations,
                static_cast<unsigned long long>(fuzz_seed));
    const fuzz::FuzzStats stats = fuzz::Fuzz(fopts);
    std::printf(
        "\nfuzzing done: %d scenarios, coverage %zu (hash %016llx), "
        "%d divergent (%d unique), %zu reproducer(s), %d shrink eval(s)\n",
        stats.scenarios, stats.coverage,
        static_cast<unsigned long long>(stats.coverage_hash), stats.divergent,
        stats.unique_divergent, stats.reproducers.size(), stats.shrink_evals);
    return 0;
  }
  if (!corpus_dir.empty()) {
    if (!std::filesystem::is_directory(corpus_dir)) {
      std::printf("corpus directory %s does not exist\n", corpus_dir.c_str());
      sim::PrintUsage(argv[0], flags);
      return 2;
    }
    return RunCorpusCheck(corpus_dir, opts.threads);
  }

  if (one_appvm) {
    const core::Mechanism mech = cfg.mechanism;
    const inject::FaultType fault = cfg.fault;
    const bool audit = cfg.audit;
    const bool privvm_recovery = cfg.privvm_recovery;
    const sim::Duration snapshot_period = cfg.snapshot_period;
    const bool integrity = cfg.integrity;
    const bool proactive = cfg.proactive;
    const int proactive_threshold = cfg.proactive_threshold;
    cfg = core::RunConfig::OneAppVm(bench);
    cfg.mechanism = mech;
    cfg.fault = fault;
    cfg.audit = audit;
    cfg.privvm_recovery = privvm_recovery;
    cfg.snapshot_period = snapshot_period;
    cfg.integrity = integrity;
    cfg.proactive = proactive;
    cfg.proactive_threshold = proactive_threshold;
  }

  if (privvm_plants) {
    // The correlated hypervisor+PrivVM failure mode: OFFSET after the
    // hypervisor fault is detected, the PrivVM's backend queue and (500us
    // later) a shared I/O ring are silently damaged. At the default 200us
    // both plants land while every mechanism is still mid-recovery and the
    // component repair at resume cleans them; at an offset past a fast
    // mechanism's recovery latency (e.g. 60000 > NiLiHype's ~22ms) the
    // damage lands on the *resumed* system and survives as latent
    // corruption there, while slower mechanisms (ReHype, ~450ms) are still
    // frozen and still repair it. The default pair matches the test
    // battery's CorrelatedConfig (tests/test_privvm_recovery.cc).
    const sim::Duration privvm_plant_offset =
        sim::Microseconds(privvm_plant_us);
    inject::PlantSpec queue;
    queue.target = inject::CorruptionTarget::kPrivVmBackendQueue;
    queue.during_recovery = true;
    queue.at = privvm_plant_offset;
    cfg.inject_plants.push_back(queue);
    inject::PlantSpec rings;
    rings.target = inject::CorruptionTarget::kIoRingPointers;
    rings.during_recovery = true;
    rings.at = privvm_plant_offset + sim::Microseconds(500);
    cfg.inject_plants.push_back(rings);
  }

  if (replay_mode) {
    // Forensic replay of one run: same config, seed == run_id, recorder +
    // tracer on, kTrace logging to stderr. Deterministic, so this is the
    // exact execution the campaign saw.
    std::printf("replaying run %llu (%s, %s faults, %s) with full telemetry\n",
                static_cast<unsigned long long>(replay_id),
                core::MechanismName(cfg.mechanism),
                inject::FaultTypeName(cfg.fault),
                one_appvm ? "1AppVM" : "3AppVM");
    forensics::ReplayOptions ropts;
    ropts.log_level = sim::LogLevel::kTrace;
    const forensics::ReplayArtifacts art =
        forensics::ReplayRun(cfg, replay_id, ropts);
    const core::RunResult& r = art.result;
    std::printf("\noutcome: %s%s\n", core::OutcomeClassName(r.outcome),
                r.outcome == core::OutcomeClass::kDetected
                    ? (r.success ? " (recovered)" : " (recovery FAILED)")
                    : "");
    if (r.detected) {
      std::printf("detection: %s/%s on cpu%d (%s, class=%s)\n",
                  hv::DetectionKindName(r.detection.kind),
                  hv::FailureCodeName(r.detection.code), r.detection.cpu,
                  r.detection.detail.c_str(),
                  forensics::DetectionClassName(r.detection_class));
    }
    if (!r.success && r.failure_reason != hv::FailureReason::kNone) {
      std::printf("failure: %s (%s)\n", hv::FailureReasonName(r.failure_reason),
                  r.failure_detail.c_str());
    }
    // Written with default options (log level kNone), so the dossier is
    // byte-identical to the one a campaign --dossier-dir pass emits: the
    // stderr log level above must not perturb the artifact.
    const std::string dir = dossier_dir.empty() ? "dossiers" : dossier_dir;
    const std::string path = forensics::WriteDossier(cfg, replay_id, dir);
    if (path.empty()) {
      std::printf("cannot write dossier under %s\n", dir.c_str());
      return 1;
    }
    std::printf("dossier written to %s\n", path.c_str());
    if (!profile_out.empty()) {
      if (!WriteFile(profile_out, art.profile)) return 1;
      std::printf("collapsed-stack profile written to %s\n",
                  profile_out.c_str());
    }
    return 0;
  }

  std::printf("campaign: %s, %s faults, %s, %d runs (seed0=%llu)\n",
              core::MechanismName(cfg.mechanism),
              inject::FaultTypeName(cfg.fault),
              one_appvm ? "1AppVM" : "3AppVM", opts.runs,
              static_cast<unsigned long long>(opts.seed0));

  // Run ids (== seeds) of runs that deserve a failure dossier, collected as
  // the campaign goes (on_run is called under a lock).
  std::vector<std::uint64_t> dossier_runs;
  if (verbose || !dossier_dir.empty()) {
    opts.on_run = [&](int i, const core::RunResult& r) {
      if (verbose) {
        std::printf("  run %4d: %-14s %s%s\n", i,
                    core::OutcomeClassName(r.outcome),
                    r.outcome == core::OutcomeClass::kDetected
                        ? (r.success ? "recovered" : "FAILED: ")
                        : "",
                    r.success ? "" : r.failure_detail.c_str());
      }
      if (!dossier_dir.empty() && forensics::DossierWorthy(r)) {
        dossier_runs.push_back(opts.seed0 + static_cast<std::uint64_t>(i));
      }
    };
  }

  const core::CampaignResult res = core::RunCampaign(cfg, opts);
  std::printf("\noutcomes: %.1f%% non-manifested, %.1f%% SDC, %.1f%% detected\n",
              res.NonManifestedRate() * 100, res.SdcRate() * 100,
              res.DetectedRate() * 100);
  std::printf("successful recovery rate: %s\n", res.success.ToString().c_str());
  std::printf("no-VM-failures (noVMF):   %s\n",
              res.no_vm_failures.ToString().c_str());
  if (cfg.audit) {
    std::printf("audit-clean successes:    %s\n",
                res.audit_clean.ToString().c_str());
    std::printf("latent corruption:        %s\n",
                res.latent_corruption.ToString().c_str());
    if (!res.audit_findings_by_subsystem.empty()) {
      std::printf("audit findings by subsystem:\n");
      for (const auto& [subsystem, count] : res.audit_findings_by_subsystem) {
        std::printf("  %4d  %s\n", count, subsystem.c_str());
      }
    }
  }
  if (cfg.integrity) {
    std::printf("integrity: %llu epochs, %llu drift(s) across %d run(s)\n",
                static_cast<unsigned long long>(res.total_epochs),
                static_cast<unsigned long long>(res.total_drifts),
                res.drift_runs);
    std::printf("drift-flagged injections:  %s\n",
                res.drift_flagged.ToString().c_str());
    if (res.drift_latency.samples > 0) {
      std::printf(
          "corruption->drift latency: mean %8.3f  p50 %8.3f  p99 %8.3f ms "
          "(n=%d)\n",
          res.drift_latency.mean_ms, res.drift_latency.p50_ms,
          res.drift_latency.p99_ms, res.drift_latency.samples);
    }
    if (cfg.proactive) {
      std::printf("proactive rejuvenations:   %d\n", res.rejuvenations);
    }
    if (!res.first_drift_by_surface.empty()) {
      std::printf("first-drift surfaces:\n");
      for (const auto& [surface, count] : res.first_drift_by_surface) {
        std::printf("  %4d  %s\n", count, surface.c_str());
      }
    }
  }
  if (!res.failure_reasons.empty()) {
    std::printf("failure causes:\n");
    for (const auto& [reason, count] : res.failure_reasons) {
      std::printf("  %4d  %s\n", count, hv::FailureReasonName(reason));
    }
  }
  if (!res.phase_latency.empty()) {
    std::printf("recovery phase latency (detected runs, ms):\n");
    for (const core::PhaseAggregate& p : res.phase_latency) {
      std::printf("  %-26s mean %8.3f  p99 %8.3f  (n=%d)\n", p.phase.c_str(),
                  p.mean_ms, p.p99_ms, p.samples);
    }
    std::printf("  %-26s mean %8.3f  p99 %8.3f  (n=%d)\n", "total",
                res.total_latency.mean_ms, res.total_latency.p99_ms,
                res.total_latency.samples);
  }

  if (!res.detection_latency_by_class.empty()) {
    std::printf(
        "detection: %d prompt, %d late, %d misdetected, %d silent\n",
        res.detected_prompt, res.detected_late, res.misdetected, res.silent);
    std::printf("detection latency by fault class (ms):\n");
    for (const core::DetectionLatencyAggregate& a :
         res.detection_latency_by_class) {
      std::printf("  %-16s mean %8.3f  p50 %8.3f  p99 %8.3f  max %8.3f (n=%d)\n",
                  a.fault_class.c_str(), a.mean_ms, a.p50_ms, a.p99_ms,
                  a.max_ms, a.samples);
    }
  }

  // Emit one failure dossier per non-successful run, in run order, by
  // deterministic replay (see --dossier-dir above).
  if (!dossier_dir.empty()) {
    std::sort(dossier_runs.begin(), dossier_runs.end());
    int written = 0;
    for (std::uint64_t run_id : dossier_runs) {
      const std::string path =
          forensics::WriteDossier(cfg, run_id, dossier_dir);
      if (path.empty()) {
        std::printf("cannot write dossier for run %llu under %s\n",
                    static_cast<unsigned long long>(run_id),
                    dossier_dir.c_str());
        return 1;
      }
      ++written;
    }
    std::printf("%d failure dossier%s written to %s/\n", written,
                written == 1 ? "" : "s", dossier_dir.c_str());
  }

  // Replay the first run with tracing enabled for the trace/metrics
  // artifacts: campaigns run many hypervisors in parallel, so per-run
  // telemetry comes from a deterministic replay of seed0.
  if (!trace_out.empty() || !metrics_out.empty() || !audit_out.empty() ||
      !integrity_out.empty() || !profile_out.empty()) {
    core::RunConfig rcfg = cfg;
    rcfg.seed = opts.seed0;
    core::TargetSystem sys(rcfg);
    sys.EnableTracing();
    const core::RunResult replay = sys.Run();
    if (!audit_out.empty()) {
      std::string json =
          "{\"campaign\":" + res.ToJson() +
          ",\"replay_seed0_audit\":{\"audit_clean\":" +
          (replay.audit_clean ? "true" : "false") +
          ",\"latent_corruption\":" +
          (replay.latent_corruption ? "true" : "false") +
          ",\"modeled_cost_us\":" +
          std::to_string(sim::ToMicros(replay.audit_report.modeled_cost)) +
          ",\"findings\":" + replay.audit_report.ToJson() + "}}";
      if (!WriteFile(audit_out, json)) return 1;
      std::printf("audit report written to %s\n", audit_out.c_str());
    }
    if (!integrity_out.empty()) {
      std::string json =
          "{\"campaign\":" + res.ToJson() +
          ",\"replay_seed0_integrity\":{\"epochs\":" +
          std::to_string(replay.integrity_epochs) +
          ",\"drifts\":" + std::to_string(replay.integrity_drifts) +
          ",\"first_drift_epoch\":" +
          std::to_string(replay.first_drift_epoch) +
          ",\"first_drift_surface\":" + sim::JsonStr(replay.first_drift_surface) +
          ",\"drift_trail\":" + sim::JsonStr(fuzz::HexU64(replay.drift_trail)) +
          ",\"rejuvenations\":" + std::to_string(replay.rejuvenations) +
          ",\"online_audit_findings\":" +
          std::to_string(replay.online_audit_findings) + "}}";
      if (!WriteFile(integrity_out, json)) return 1;
      std::printf("integrity report written to %s\n", integrity_out.c_str());
    }
    if (!trace_out.empty()) {
      if (!WriteFile(trace_out, sys.hv().tracer().ToChromeJson())) return 1;
      std::printf("trace (%zu spans) written to %s\n",
                  sys.hv().tracer().Snapshot().size(), trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::string json = "{\"campaign\":" + res.ToJson() +
                         ",\"replay_seed0_metrics\":" +
                         sys.hv().metrics().ToJson() + "}";
      if (!WriteFile(metrics_out, json)) return 1;
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    if (!profile_out.empty()) {
      const std::string profile =
          forensics::CollapsedStackProfile(sys.hv().tracer().Snapshot());
      if (!WriteFile(profile_out, profile)) return 1;
      std::printf("collapsed-stack profile written to %s\n",
                  profile_out.c_str());
    }
  }
  return 0;
}
