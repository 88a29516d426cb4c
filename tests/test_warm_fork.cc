// Determinism goldens for the warm-fork campaign runner (core/campaign.h):
// RunManyWarmForked must produce results byte-identical to the cold
// RunMany path, at every thread count. The comparison serializes every
// semantically meaningful RunResult field — if warm forking perturbs any
// timing, RNG stream, event order, or classification, these goldens break.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "core/outcome.h"

namespace nlh::core {
namespace {

// Canonical serialization of a RunResult for equality checks. Covers every
// field that classification, aggregation, or forensics reads.
std::string Canon(const RunResult& r) {
  std::ostringstream o;
  o << "outcome=" << static_cast<int>(r.outcome)
    << " detected=" << r.detected << " recoveries=" << r.recoveries
    << " dead=" << r.system_dead
    << " death_code=" << static_cast<int>(r.death_code)
    << " death_reason=" << r.death_reason
    << " first_latency=" << r.first_recovery_latency << "\nphases:";
  for (const PhaseLatency& p : r.recovery_phases) {
    o << " [" << p.phase << "|" << p.label << "|" << p.latency << "]";
  }
  o << "\nvms:";
  for (const VmVerdict& v : r.vms) {
    o << " [" << v.name << "|" << v.affected << "|" << v.why << "]";
  }
  o << "\nprivvm_ok=" << r.privvm_ok << " vm3_attempted=" << r.vm3_attempted
    << " vm3_ok=" << r.vm3_ok << " success=" << r.success
    << " no_vm_failures=" << r.no_vm_failures
    << " failure_reason=" << static_cast<int>(r.failure_reason)
    << " failure_detail=" << r.failure_detail
    << "\naudited=" << r.audited << " audit_clean=" << r.audit_clean
    << " latent=" << r.latent_corruption
    << " audit_findings=" << r.audit_report.findings.size()
    << "\ninj_fired=" << r.injection_fired << " injected_at=" << r.injected_at
    << " inj_cpu=" << r.injection_cpu
    << " manifestation=" << static_cast<int>(r.manifestation)
    << "\ninj_corruptions:";
  for (const std::string& c : r.injection_corruptions) o << " " << c;
  o << "\nplanted:";
  for (const std::string& c : r.planted_corruptions) o << " " << c;
  o << "\ndet_kind=" << static_cast<int>(r.detection.kind)
    << " det_code=" << static_cast<int>(r.detection.code)
    << " det_cpu=" << r.detection.cpu << " det_latency=" << r.detection_latency
    << " det_class=" << static_cast<int>(r.detection_class)
    << "\nnet_max_gap=" << r.net_max_gap
    << " net_rate_dropped=" << r.net_rate_dropped
    << " hv_cycles=" << r.hv_cycles << " total_cycles=" << r.total_cycles;
  return o.str();
}

std::vector<RunConfig> MakeConfigs(Mechanism mech, int n,
                                   std::uint64_t seed0) {
  std::vector<RunConfig> configs;
  for (int i = 0; i < n; ++i) {
    RunConfig cfg;
    cfg.mechanism = mech;
    cfg.seed = seed0 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  return configs;
}

void ExpectWarmMatchesCold(const std::vector<RunConfig>& configs) {
  const std::vector<RunResult> cold = RunMany(configs, /*threads=*/1);
  ASSERT_EQ(cold.size(), configs.size());
  for (int threads : {1, 4, 8}) {
    const std::vector<RunResult> warm =
        RunManyWarmForked(configs, threads, sim::Milliseconds(100));
    ASSERT_EQ(warm.size(), cold.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(Canon(warm[i]), Canon(cold[i]))
          << "threads=" << threads << " run=" << i
          << " seed=" << configs[i].seed;
    }
  }
}

TEST(WarmForkGolden, NiLiHypeFailstopMatchesColdAtEveryThreadCount) {
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kNiLiHype, 12, 1000));
}

TEST(WarmForkGolden, ReHypeMatchesCold) {
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kReHype, 6, 2000));
}

TEST(WarmForkGolden, SnapResMatchesCold) {
  // The snapres snapshot is mechanism-internal run state: this golden
  // breaks if a forked run ever sees another run's snapshot.
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kSnapRes, 6, 3000));
}

TEST(WarmForkGolden, RegisterFaultsMatchCold) {
  // Register faults corrupt state before detection — exercises the full
  // injection machinery (step hooks, corruption application) on the warm
  // path, not just the failstop trigger.
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 8, 4000);
  for (RunConfig& cfg : configs) cfg.fault = inject::FaultType::kRegister;
  ExpectWarmMatchesCold(configs);
}

TEST(WarmForkGolden, AuditedRunsMatchCold) {
  // Audited runs capture a golden snapshot pre-injection and diff at the
  // end — both must behave identically off a warm fork.
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 4, 5000);
  for (RunConfig& cfg : configs) cfg.audit = true;
  ExpectWarmMatchesCold(configs);
}

TEST(WarmForkGolden, DeadCheckCountsQueueEventsNotRunEvents) {
  // Register faults with audit + integrity over a 300-2800 ms window: at
  // seed 2504 the hypervisor dies in a way that makes the dead-platform
  // early stop in TargetSystem::Run() visible in the NetBench verdict. A
  // warm fork enters Run() with the template's events already executed, so
  // the stop must be keyed to the queue's executed-event count (carried in
  // the fork image), not to a count started inside Run().
  RunConfig cfg;
  cfg.seed = 2504;
  cfg.fault = inject::FaultType::kRegister;
  cfg.audit = true;
  cfg.integrity = true;
  cfg.inject_window_start = sim::Milliseconds(300);
  cfg.inject_window_end = sim::Milliseconds(2800);
  const std::vector<RunConfig> configs = {cfg};
  const std::vector<RunResult> cold = RunMany(configs, /*threads=*/1);
  const std::vector<RunResult> warm = RunManyWarmForked(configs, 1);
  ASSERT_EQ(cold.size(), 1u);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(Canon(warm[0]), Canon(cold[0]));
}

TEST(WarmForkCampaign, AggregateMatchesColdCampaign) {
  RunConfig cfg;
  cfg.mechanism = Mechanism::kNiLiHype;

  CampaignOptions cold_opts;
  cold_opts.runs = 16;
  cold_opts.seed0 = 7000;
  cold_opts.threads = 4;
  CampaignOptions warm_opts = cold_opts;
  warm_opts.warm_fork = true;

  const CampaignResult cold = RunCampaign(cfg, cold_opts);
  const CampaignResult warm = RunCampaign(cfg, warm_opts);
  EXPECT_EQ(warm.ToJson(), cold.ToJson());
}

}  // namespace
}  // namespace nlh::core
