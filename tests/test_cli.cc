// CLI contract of campaign_tool and the bench binaries: bad invocations
// must fail fast, with a nonzero exit code and a usage message — a
// misspelled flag or a missing corpus path in CI must never silently fall
// through to a default campaign. NLH_CAMPAIGN_TOOL and NLH_BENCH_* are the
// built binaries' paths (from CMake).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>
#include <sys/wait.h>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunBinary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) return r;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

CliResult RunTool(const std::string& args) {
  return RunBinary(NLH_CAMPAIGN_TOOL, args);
}

TEST(CampaignToolCli, UnknownFlagExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--bogus-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --bogus-flag"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnreadableReplayPathExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--replay=/nonexistent/repro.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unreadable"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, MissingCorpusDirExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--corpus=/nonexistent/corpus-dir");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("does not exist"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnreadableShrinkPathExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--shrink=/nonexistent/repro.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownMechanismSlugExitsNonzeroListingValid) {
  const CliResult r = RunTool("--mechanism=reboot-everything");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown mechanism 'reboot-everything'"),
            std::string::npos);
  // The error names every slug in the table so the fix is copy-pasteable.
  EXPECT_NE(r.output.find("valid: none nilihype rehype snapres"),
            std::string::npos);
  EXPECT_NE(r.output.find("nilihype"), std::string::npos);
  EXPECT_NE(r.output.find("rehype"), std::string::npos);
  EXPECT_NE(r.output.find("snapres"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, OldLenientMechFlagIsAnUnknownFlag) {
  // --mech= used to map any typo to NiLiHype; --mechanism= is the one
  // spelling now.
  const CliResult r = RunTool("--mech=rehype");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --mech=rehype"), std::string::npos)
      << r.output;
}

// Every count flag is digits-only and positive: "abc" used to run 0 runs
// and "-5" printed a "-5 runs" campaign.
TEST(CampaignToolCli, NonNumericRunCountIsRejected) {
  const CliResult r = RunTool("--runs=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'abc'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, NegativeRunCountIsRejected) {
  const CliResult r = RunTool("--runs=-5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'-5'"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, ZeroFuzzScenarioCountIsRejected) {
  const CliResult r = RunTool("--fuzz=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'0'"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, ShrinkEvalBudgetWithSuffixIsRejected) {
  const CliResult r = RunTool("--shrink-evals=64x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'64x'"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, NegativeMaxCorpusIsRejected) {
  const CliResult r = RunTool("--max-corpus=-1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'-1'"), std::string::npos) << r.output;
}

// Seeds and thread counts are non-negative integers: "12abc" used to run
// seed 12 and "x" threads silently meant auto.
TEST(CampaignToolCli, SeedWithTrailingGarbageIsRejected) {
  const CliResult r = RunTool("--seed=12abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'12abc'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, SeedAboveU64IsRejected) {
  const CliResult r = RunTool("--seed=18446744073709551616");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'18446744073709551616'"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, NegativeFuzzSeedIsRejected) {
  const CliResult r = RunTool("--fuzz-seed=-3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'-3'"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, NonNumericThreadCountIsRejected) {
  const CliResult r = RunTool("--threads=x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'x'"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, UnknownSetupExitsNonzeroListingValid) {
  const CliResult r = RunTool("--setup=2appvm");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown setup '2appvm'; valid: 1appvm 3appvm"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownBenchExitsNonzeroListingValid) {
  const CliResult r = RunTool("--bench=nope");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown bench 'nope'; valid: unix blk net"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, InvalidSnapshotPeriodExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--snapshot-period=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, SnapshotPeriodWithUnitSuffixIsRejectedNotTruncated) {
  // "150ms" used to atoi() to 150 and run: accepted-with-unit in appearance,
  // half-ignored in fact. The strict parse must reject any trailing garbage.
  const CliResult r = RunTool("--snapshot-period=150ms");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'150ms'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownFaultClassExitsNonzeroListingValid) {
  const CliResult r = RunTool("--fault=gamma-ray");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown fault class 'gamma-ray'"),
            std::string::npos);
  EXPECT_NE(r.output.find("failstop register code memory"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, PrivVmPlantsOffsetWithUnitSuffixIsRejected) {
  // Same strict-parse contract as --snapshot-period: a trailing unit must
  // be rejected, not truncated into a silently different offset.
  const CliResult r = RunTool("--privvm-plants=2ms");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'2ms'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveThresholdWithUnitSuffixIsRejected) {
  // Same strict-parse contract as --snapshot-period: "2drifts" must not
  // atoi() to 2 and run a silently different policy.
  const CliResult r = RunTool("--proactive=2drifts");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'2drifts'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveZeroThresholdIsRejected) {
  const CliResult r = RunTool("--proactive=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, IntegrityCampaignRunsEndToEnd) {
  const CliResult r = RunTool("--integrity --fault=memory --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("drift-flagged injections"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveImpliesIntegrityAndPreservesOneAppVmSetup) {
  // --proactive alone must arm the monitor, and the --setup=1appvm config
  // rebuild must not drop the integrity/proactive flags on the floor.
  const CliResult r = RunTool(
      "--proactive --setup=1appvm --bench=unix --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("proactive rejuvenations"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, IntegrityOutWritesCampaignAndReplaySummary) {
  const std::string path = ::testing::TempDir() + "integrity_cli.json";
  const CliResult r = RunTool("--integrity-out=" + path +
                              " --fault=memory --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity report written"), std::string::npos)
      << r.output;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"integrity\":{"), std::string::npos);
  EXPECT_NE(content.find("\"replay_seed0_integrity\":{"), std::string::npos);
  EXPECT_NE(content.find("\"drift_trail\":"), std::string::npos);
}

TEST(CampaignToolCli, PrivVmPlantsCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--privvm-plants --setup=1appvm --bench=blk --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, PrivVmRecoveryCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--privvm-recovery --fault=memory --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, SnapresCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--mechanism=snapres --snapshot-period=150 --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("campaign: SnapRes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos);
}

TEST(CampaignToolCli, WarmForkCampaignMatchesColdAggregate) {
  const std::string common = "--mechanism=nilihype --runs=6 --threads=3";
  const CliResult cold = RunTool(common);
  const CliResult warm = RunTool(common + " --warm-fork");
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  // Strip the header line (it does not mention warm-forking) and compare
  // the full aggregate printout: warm must be bit-identical to cold.
  const auto body = [](const std::string& s) {
    const std::size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(nl);
  };
  EXPECT_EQ(body(warm.output), body(cold.output));
}

TEST(CampaignToolCli, FleetHostCountWithSuffixIsRejectedNotTruncated) {
  // Same strict-parse contract as --snapshot-period: "100k" must not
  // atoi() to 100 and silently run a hundredth of the fleet.
  const CliResult r = RunTool("--fleet --hosts=100k");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'100k'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, FleetZeroTenantsIsRejected) {
  const CliResult r = RunTool("--fleet --tenants=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'0'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownPlacementPolicyExitsNonzeroListingValid) {
  const CliResult r = RunTool("--fleet --placement=random");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown placement policy 'random'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("least-loaded"), std::string::npos);
  EXPECT_NE(r.output.find("first-fit"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, FleetRunsEndToEndAndWritesJson) {
  const std::string path = ::testing::TempDir() + "fleet_cli.json";
  const CliResult r = RunTool(
      "--fleet --hosts=6 --tenants=2 --fleet-horizon=300 --threads=4"
      " --fleet-out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violation-minutes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("admitted"), std::string::npos) << r.output;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"fleet\":{"), std::string::npos);
  EXPECT_NE(content.find("\"violation_minutes\":"), std::string::npos);
}

TEST(CampaignToolCli, CorpusCheckPassesOnTheCommittedCorpus) {
  const CliResult r =
      RunTool(std::string("--corpus=") + NLH_CORPUS_DIR + " --threads=4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("corpus check passed"), std::string::npos)
      << r.output;
}

// Two mode flags used to run whichever came first and ignore the other.
TEST(CampaignToolCli, ConflictingModesExitNonzeroNamingBoth) {
  const CliResult r =
      RunTool("--fleet --hosts=2 --tenants=1 --fleet-horizon=60 --fuzz=3");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--fleet and --fuzz select different modes"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  const CliResult c =
      RunTool(std::string("--replay=5 --corpus=") + NLH_CORPUS_DIR);
  EXPECT_EQ(c.exit_code, 2) << c.output;
  EXPECT_NE(c.output.find("--replay and --corpus select different modes"),
            std::string::npos)
      << c.output;
}

// --replay and --shrink evaluate a reproducer under the policies its bundle
// recorded: a --fuzz-all-mechs bundle carries SnapRes as a fourth verdict.
TEST(CampaignToolCli, ReplayAndShrinkUseTheBundlesPolicies) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "cli_all_mechs_corpus";
  fs::remove_all(dir);
  const CliResult fuzz = RunTool(
      "--fuzz=48 --fuzz-seed=7 --fuzz-all-mechs --max-corpus=2 --threads=2"
      " --corpus=" + dir);
  ASSERT_EQ(fuzz.exit_code, 0) << fuzz.output;
  std::vector<std::string> bundles;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    bundles.push_back(e.path().string());
  }
  ASSERT_FALSE(bundles.empty()) << fuzz.output;
  for (const std::string& bundle : bundles) {
    const CliResult r = RunTool("--threads=2 --replay=" + bundle);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("\n  SnapRes "), std::string::npos) << r.output;
  }
  const CliResult shrunk =
      RunTool("--threads=2 --shrink-evals=4 --shrink=" + bundles.front());
  EXPECT_EQ(shrunk.exit_code, 0) << shrunk.output;
  EXPECT_NE(shrunk.output.find("shrunk to"), std::string::npos)
      << shrunk.output;
  fs::remove_all(dir);
}

// The benches share campaign_tool's strict parser: a malformed value or an
// unknown flag used to be atoi()-truncated or ignored and start a full run.
TEST(BenchCli, MalformedOrUnknownFlagsExitNonzeroQuotingTheValue) {
  const struct {
    const char* binary;
    const char* args;
    const char* error;
  } cases[] = {
      {NLH_BENCH_FIG2, "--runs=abc", "got 'abc'"},
      {NLH_BENCH_FIG2, "--quick", "unknown flag --quick"},
      {NLH_BENCH_SIM_CORE, "--gate-pct=abc", "got 'abc'"},
      {NLH_BENCH_FLEET_SLO, "--hosts=100k", "got '100k'"},
      {NLH_BENCH_PHASE_BREAKDOWN, "--runs=abc", "got 'abc'"},
  };
  for (const auto& c : cases) {
    const CliResult r = RunBinary(c.binary, c.args);
    EXPECT_EQ(r.exit_code, 2) << c.binary << " " << c.args << "\n"
                              << r.output;
    EXPECT_NE(r.output.find(c.error), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST(BenchCli, HelpListsTheFlagsAndExitsZero) {
  const CliResult r = RunBinary(NLH_BENCH_FIG2, "--help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* flag : {"--runs=N", "--full", "--threads=N", "--seed=N"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
  }
}

}  // namespace
