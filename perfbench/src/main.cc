// perfbench: campaign, fuzz and fleet throughput of the simulator, driven
// from outside through its public entry points (core::RunMany,
// core::RunManyWarmForked, core::TargetSystem, fuzz::Fuzz, fleet::FleetSim).
//
//   perfbench --workload campaign_cold|campaign_warm|fuzz|fleet
//             --seed N --seconds S --trace 0|1 --root DIR --ref-dir DIR
//             [--out-dir DIR] [--small]
//   perfbench --make-ref WORKLOAD --root DIR --ref-dir DIR
//
// Every workload is a closed loop: the next run starts only when a worker
// is free. Every simulated output is reduced to a digest and compared with
// the committed reference in perfbench/ref/. The last stdout line is the
// JSON result object; a fuller result file (machine, build, repetitions,
// quartiles) goes to --out-dir. See perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/campaign.h"
#include "forensics/dossier.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace perfbench {

using nlh::core::RunConfig;
using nlh::core::RunResult;

Sizes Sizes::Small() {
  Sizes z;
  z.cold_batch = 4;
  z.cold_sim_runs = 8;
  z.cold_window = 4;
  z.cold_min_runs = 8;
  z.warm_batch = 8;
  z.warm_sim_runs = 16;
  z.warm_window = 8;
  z.fuzz_iterations = 4;
  z.fuzz_sim_scenarios = 4;
  z.fleet_hosts = 10;
  z.fleet_tenants = 3;
  z.fleet_horizon_s = 600;
  z.probe_reps = 1;
  z.core_pairs = 1;
  return z;
}

RunConfig ColdConfig(std::uint64_t run_seed) {
  RunConfig c;  // 3AppVM, NiLiHype, failstop: the paper's default system
  c.seed = run_seed;
  return c;
}

RunConfig WarmConfig(std::uint64_t run_seed) {
  RunConfig c;
  c.seed = run_seed;
  c.fault = nlh::inject::FaultType::kRegister;
  c.audit = true;
  c.integrity = true;
  c.inject_window_start = nlh::sim::Milliseconds(300);
  c.inject_window_end = nlh::sim::Milliseconds(2800);
  return c;
}

nlh::fuzz::FuzzOptions FuzzConfig(const Sizes& z) {
  nlh::fuzz::FuzzOptions o;  // default policies, shrinking on
  o.master_seed = kFuzzMasterSeed;
  o.iterations = z.fuzz_iterations;
  o.threads = 1;
  o.corpus_dir = "";  // reproducers stay in memory
  return o;
}

nlh::fleet::FleetConfig FleetConfig(const Sizes& z) {
  nlh::fleet::FleetConfig c;  // NiLiHype, least-loaded placement
  c.hosts = z.fleet_hosts;
  c.tenants_per_host = z.fleet_tenants;
  c.horizon_s = z.fleet_horizon_s;
  c.master_seed = kFleetMasterSeed;
  return c;
}

std::uint64_t RunDigest(const RunResult& r) {
  return Fnv64(nlh::forensics::ResultJson(r) + nlh::forensics::InjectionJson(r) +
               nlh::forensics::DetectionJson(r) + " recovery_ns=" +
               std::to_string(r.first_recovery_latency));
}

std::string FuzzDigestText(const nlh::fuzz::FuzzStats& s) {
  std::string out = "coverage=" + Hex64(s.coverage_hash) +
                    " scenarios=" + std::to_string(s.scenarios) +
                    " divergent=" + std::to_string(s.divergent) + " repro=";
  for (std::size_t i = 0; i < s.reproducers.size(); ++i) {
    if (i) out += ",";
    out += Hex64(s.reproducers[i].divergence_signature);
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Reference files.

std::string RefPath(const Context& ctx, const std::string& workload) {
  return ctx.ref_dir + "/" + workload + (workload == "fleet" ? ".json" : ".txt");
}

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines->push_back(line);
  }
  return true;
}

bool LoadDigests(const std::string& path, std::vector<std::uint64_t>* out) {
  std::vector<std::string> lines;
  if (!ReadLines(path, &lines)) return false;
  out->clear();
  for (const std::string& l : lines) {
    out->push_back(std::strtoull(l.c_str(), nullptr, 16));
  }
  return true;
}

// Loads every reference (the probes of a traced run check fuzz and fleet
// outputs on every workload). Fuzz and fleet references exist only for the
// full size.
bool LoadReferences(Context* ctx, std::string* err) {
  for (const char* w : {"campaign_cold", "campaign_warm"}) {
    const std::string path = RefPath(*ctx, w);
    std::vector<std::uint64_t>* d =
        std::string(w) == "campaign_cold" ? &ctx->refs.cold : &ctx->refs.warm;
    if (!LoadDigests(path, d) ||
        static_cast<int>(d->size()) != ctx->sizes.pool) {
      *err = "missing or short reference " + path;
      return false;
    }
  }
  if (ctx->small) return true;
  for (const char* w : {"fuzz", "fleet"}) {
    const std::string path = RefPath(*ctx, w);
    std::vector<std::string> lines;
    if (!ReadLines(path, &lines) || lines.empty()) {
      *err = "missing reference " + path;
      return false;
    }
    if (std::string(w) == "fleet") {
      ctx->refs.fleet = lines.front();
      continue;
    }
    const std::string prefix = "simbatch ";
    if (lines.size() < 2 || lines[1].rfind(prefix, 0) != 0) {
      *err = "no simbatch line in " + path;
      return false;
    }
    ctx->refs.fuzz = lines[0];
    ctx->refs.fuzz_sim = lines[1].substr(prefix.size());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Measurements of one invocation.

// Per repetition: its wall time, runs and (fuzz only) scenarios; per run
// (campaigns only): host time from on_run. Every end-to-end host-time
// metric is computed from these.
struct LoopStats {
  std::vector<double> wall_s;
  std::vector<int> rep_runs;
  std::vector<int> rep_scenarios;
  std::vector<double> run_ms;
  int attempted = 0;
  int failed = 0;
  int runs = 0;
  double timed_s = 0;

  void AddRep(double wall, int n) {
    wall_s.push_back(wall);
    rep_runs.push_back(n);
    runs += n;
    timed_s += wall;
  }
};

struct SimMetrics {
  double recovery_ms = 0;
  double success_pct = 0;
  double violation_min = 0;
  int runs = 0;
  int detected = 0;
  int recovered = 0;
};

SimMetrics SimOf(const std::vector<RunResult>& rs) {
  SimMetrics m;
  double lat_ms = 0;
  int success = 0;
  for (const RunResult& r : rs) {
    ++m.runs;
    if (r.recoveries > 0) {
      ++m.recovered;
      lat_ms += nlh::sim::ToMillisF(r.first_recovery_latency);
    }
    if (r.outcome == nlh::core::OutcomeClass::kDetected) {
      ++m.detected;
      if (r.success) ++success;
    }
  }
  m.recovery_ms = m.recovered ? lat_ms / m.recovered : 0;
  m.success_pct = m.detected ? 100.0 * success / m.detected : 0;
  return m;
}

// Tenant cost of a set of run outcomes: the fleet workload's fault schedule
// (100 hosts x 10 tenants x 3600 s, seed 1000) with its i-th event taking
// the outcome of run i (cycling), priced by fleet phase B.
double PriceOnFleet(const std::vector<RunResult>& rs) {
  if (rs.empty()) return 0;
  const nlh::fleet::FleetSim sim(FleetConfig(Sizes{}));
  const std::vector<nlh::fleet::FaultEvent> schedule =
      sim.BuildFaultSchedule();
  std::vector<nlh::fleet::HostRecoveryEvent> events;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    events.push_back(
        nlh::fleet::ClassifyHostRun(schedule[i], rs[i % rs.size()]));
  }
  return sim.ApplyEvents(events).slo_violation_minutes;
}

// The fuzz workload's sim batch: a fixed set of generated scenarios, each
// run under the default policies as the fuzzer judges them.
std::vector<RunResult> FuzzSimBatch(const Sizes& z, int threads) {
  nlh::sim::Rng rng(kFuzzMasterSeed ^ 0x51a7ULL);
  std::vector<RunConfig> cfgs;
  for (int k = 0; k < z.fuzz_sim_scenarios; ++k) {
    const std::vector<RunConfig> t =
        nlh::fuzz::OracleConfigs(nlh::fuzz::GenerateScenario(rng));
    cfgs.insert(cfgs.end(), t.begin(), t.end());
  }
  return nlh::core::RunMany(cfgs, threads);
}

std::uint64_t BatchDigest(const char* tag, const std::vector<RunResult>& rs) {
  std::uint64_t h = Fnv64(tag);
  for (const RunResult& r : rs) h = Fnv64(Hex64(RunDigest(r)), h);
  return h;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the workload's inputs: what has to happen before the first timed
  // operation. Repeated during the run to time it.
  virtual void Setup() = 0;
  // A few untimed operations before the loop, once.
  virtual void Warmup() = 0;
  // One repetition: a fixed unit of work, timed, checked, recorded.
  virtual void Rep(LoopStats* st, Tracer& tr) = 0;
  virtual bool Done(const LoopStats& st, double elapsed, double budget) = 0;
  // Untimed, after the loop: the deterministic sim metrics and the digest
  // of the canonical outputs; a failed check is appended to `why`.
  virtual SimMetrics Sim(std::uint64_t* digest,
                         std::vector<std::string>* why) = 0;
  // Sim metrics of the seed-chosen runs (held-out data), when they differ
  // from the canonical ones.
  virtual bool WindowSim(SimMetrics*) { return false; }
  virtual void Export(LoopArtifacts*) {}
};

// campaign_cold / campaign_warm: batches of pool runs from a fixed list,
// cycled until the time budget is spent: the canonical runs (pool indices
// 0..sim_runs-1, the same in every invocation), which the sim metrics come
// from, then the --seed window of a fixed number of runs. Every invocation
// with a given seed therefore times and checks the same runs, however fast
// the host is.
//
// Per-run host time: campaign_cold pools every sample. campaign_warm works
// through the list at least twice and takes the faster of each run's first
// two samples, one pass (about 16 s) apart. A warm run is short (about
// 50 ms), so one sample of it can fall wholly in a slow stretch of the
// shared host, and pooled single samples put those stretches into
// run_ms_p95 (README.md, Noise).
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const Context& ctx, bool warm)
      : ctx_(ctx),
        warm_(warm),
        batch_(warm ? ctx.sizes.warm_batch : ctx.sizes.cold_batch),
        sim_runs_(warm ? ctx.sizes.warm_sim_runs : ctx.sizes.cold_sim_runs) {
    const int window = warm ? ctx.sizes.warm_window : ctx.sizes.cold_window;
    for (int i = 0; i < sim_runs_; ++i) order_.push_back(i);
    for (int i = 0; i < window; ++i) {
      order_.push_back((WindowStart(ctx) + i) % ctx.sizes.pool);
    }
    first_ms_.resize(order_.size());
  }

  void Setup() override {
    configs_.clear();
    configs_.reserve(static_cast<std::size_t>(ctx_.sizes.pool));
    for (int i = 0; i < ctx_.sizes.pool; ++i) {
      configs_.push_back(warm_ ? WarmConfig(PoolSeed(i)) : ColdConfig(PoolSeed(i)));
    }
  }

  void Warmup() override {
    const std::vector<RunConfig> w(configs_.begin(), configs_.begin() + 2);
    if (warm_) {
      nlh::core::RunManyWarmForked(w, kWarmThreads);
    } else {
      nlh::core::RunMany(w, 1);
    }
  }

  void Rep(LoopStats* st, Tracer& tr) override {
    const bool first_pass = next_ < order_.size();
    const std::size_t first = next_;  // list position of the batch's first run
    std::vector<int> idx;
    for (int k = 0; k < batch_; ++k) idx.push_back(order_[next_++ % order_.size()]);
    std::vector<RunConfig> cfgs;
    for (int i : idx) cfgs.push_back(configs_[static_cast<std::size_t>(i)]);

    std::map<std::thread::id, std::int64_t> last;
    std::vector<double> run_ms(idx.size());
    const int span = tr.Begin(warm_ ? "core.RunManyWarmForked" : "core.RunMany");
    const std::int64_t t0 = NowNs();
    // Called under the runner's lock, on the worker thread that ran `i`.
    const auto on_run = [&](int i, const RunResult&) {
      const std::int64_t now = NowNs();
      const auto it = last.find(std::this_thread::get_id());
      const std::int64_t from = it == last.end() ? t0 : it->second;
      last[std::this_thread::get_id()] = now;
      run_ms[static_cast<std::size_t>(i)] = static_cast<double>(now - from) / 1e6;
      tr.Add("core.run", from, now, span,
             static_cast<std::int64_t>(PoolSeed(idx[static_cast<std::size_t>(i)])));
    };
    const std::vector<RunResult> results =
        warm_ ? nlh::core::RunManyWarmForked(cfgs, kWarmThreads,
                                             nlh::sim::Milliseconds(100), on_run)
              : nlh::core::RunMany(cfgs, 1, on_run);
    const double wall = SecondsSince(t0);
    tr.End(span);

    const std::vector<std::uint64_t>& ref = warm_ ? ctx_.refs.warm : ctx_.refs.cold;
    for (std::size_t k = 0; k < results.size(); ++k) {
      AddRunSample(st, first + k, run_ms[k]);
      ++st->attempted;
      if (RunDigest(results[k]) != ref[static_cast<std::size_t>(idx[k])]) {
        ++st->failed;
      }
      if (first_pass) {
        (static_cast<int>(canonical_.size()) < sim_runs_ ? canonical_ : window_)
            .push_back(results[k]);
      }
    }
    st->AddRep(wall, static_cast<int>(results.size()));
  }

  // Untraced warm invocations need two full passes for their per-run times.
  bool Done(const LoopStats& st, double elapsed, double budget) override {
    const std::size_t passes = warm_ && !ctx_.trace ? 2 : 1;
    const int min_runs = warm_ ? 0 : ctx_.sizes.cold_min_runs;
    return next_ >= passes * order_.size() && elapsed >= budget &&
           (ctx_.trace || st.runs >= min_runs);
  }

  SimMetrics Sim(std::uint64_t* digest, std::vector<std::string>*) override {
    SimMetrics m = SimOf(canonical_);
    m.violation_min = PriceOnFleet(canonical_);
    *digest = BatchDigest(warm_ ? "warm" : "cold", canonical_);
    return m;
  }

  bool WindowSim(SimMetrics* m) override {
    if (window_.empty()) return false;
    *m = SimOf(window_);
    m->violation_min = PriceOnFleet(window_);
    return true;
  }

 private:
  // One host-time sample of the run at list position `pos` (see above).
  void AddRunSample(LoopStats* st, std::size_t pos, double ms) {
    if (!warm_) {
      st->run_ms.push_back(ms);
      return;
    }
    const std::size_t p = pos % order_.size();
    if (pos < order_.size()) {
      first_ms_[p] = ms;
    } else if (pos < 2 * order_.size()) {
      st->run_ms.push_back(std::min(first_ms_[p], ms));
    }
  }

  const Context& ctx_;
  const bool warm_;
  const int batch_;
  const int sim_runs_;
  std::vector<int> order_;  // pool indices, cycled
  std::size_t next_ = 0;
  std::vector<double> first_ms_;  // warm: first-pass host time per position
  std::vector<RunConfig> configs_;
  std::vector<RunResult> canonical_;
  std::vector<RunResult> window_;
};

// fuzz: one fuzz::Fuzz campaign per repetition, from the fixed master seed.
class FuzzWorkload : public Workload {
 public:
  explicit FuzzWorkload(const Context& ctx) : ctx_(ctx) {}

  void Setup() override { options_ = FuzzConfig(ctx_.sizes); }

  // Four scenarios through the differential oracle.
  void Warmup() override {
    nlh::sim::Rng rng(kFuzzMasterSeed);
    for (int i = 0; i < 4; ++i) {
      nlh::fuzz::EvaluateScenario(nlh::fuzz::GenerateScenario(rng), 1);
    }
  }

  void Rep(LoopStats* st, Tracer& tr) override {
    const int span = tr.Begin("fuzz.Fuzz");
    const std::int64_t t0 = NowNs();
    nlh::fuzz::FuzzStats s = nlh::fuzz::Fuzz(options_);
    const double wall = SecondsSince(t0);
    tr.End(span);
    // Oracle evaluations: each scenario, each shrink step, and the final
    // re-run of every reproducer, each under every policy.
    const int runs = (s.scenarios + s.shrink_evals +
                      static_cast<int>(s.reproducers.size())) *
                     static_cast<int>(nlh::fuzz::DefaultPolicies().size());
    const std::string digest = FuzzDigestText(s);
    const std::string& expect = ctx_.small ? first_digest_ : ctx_.refs.fuzz;
    if (first_digest_.empty()) first_digest_ = digest;
    st->attempted += s.scenarios;
    if (digest != expect) st->failed += s.scenarios;
    st->AddRep(wall, runs);
    st->rep_scenarios.push_back(s.scenarios);
    last_ = std::move(s);
  }

  bool Done(const LoopStats& st, double elapsed, double budget) override {
    return elapsed >= budget && st.wall_s.size() >= 3;
  }

  // The NiLiHype runs of the sim batch.
  SimMetrics Sim(std::uint64_t* digest, std::vector<std::string>* why) override {
    const std::vector<RunResult> all = FuzzSimBatch(ctx_.sizes, 1);
    const std::uint64_t h = BatchDigest("fuzz", all);
    if (!ctx_.small && Hex64(h) != ctx_.refs.fuzz_sim) {
      why->push_back("fuzz sim-batch digest differs from the reference");
    }
    *digest = Fnv64(first_digest_, h);
    const std::size_t np = nlh::fuzz::DefaultPolicies().size();
    std::vector<RunResult> nlh_runs;
    for (std::size_t i = 0; i < all.size(); i += np) nlh_runs.push_back(all[i]);
    SimMetrics m = SimOf(nlh_runs);
    m.violation_min = PriceOnFleet(nlh_runs);
    return m;
  }

  void Export(LoopArtifacts* a) override {
    a->have_fuzz = true;
    a->fuzz = last_;
  }

 private:
  const Context& ctx_;
  nlh::fuzz::FuzzOptions options_;
  std::string first_digest_;
  nlh::fuzz::FuzzStats last_;
};

// fleet: one full FleetSim::Run per repetition, fixed master seed.
class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(const Context& ctx) : ctx_(ctx) {}

  void Setup() override { config_ = FleetConfig(ctx_.sizes); }

  // The schedule and its first four host runs.
  void Warmup() override {
    const nlh::fleet::FleetSim sim(config_);
    const std::vector<nlh::fleet::FaultEvent> s = sim.BuildFaultSchedule();
    std::vector<RunConfig> cfgs;
    for (std::size_t i = 0; i < s.size() && i < 4; ++i) {
      RunConfig c = sim.config().host_config;
      c.mechanism = sim.config().mechanism;
      c.seed = s[i].run_seed;
      cfgs.push_back(c);
    }
    nlh::core::RunMany(cfgs, 1);
  }

  void Rep(LoopStats* st, Tracer& tr) override {
    nlh::fleet::FleetSim sim(config_);
    const int span = tr.Begin("fleet.Run");
    const std::int64_t t0 = NowNs();
    const nlh::fleet::FleetResult r = sim.Run(1);
    const double wall = SecondsSince(t0);
    tr.End(span);
    const std::string json = r.ToJson();
    if (json_.empty()) json_ = json;
    const std::string& expect = ctx_.small ? json_ : ctx_.refs.fleet;
    ++st->attempted;
    if (json != expect) ++st->failed;
    st->AddRep(wall, r.faults_scheduled);
    result_ = r;
  }

  bool Done(const LoopStats& st, double elapsed, double budget) override {
    return elapsed >= budget && st.wall_s.size() >= 3;
  }

  // Mean outage (detection + recovery latency) of the recovered events,
  // recovered over recovered + failed events, violation-minutes.
  SimMetrics Sim(std::uint64_t* digest, std::vector<std::string>*) override {
    SimMetrics m;
    const int recovered = result_.clean_recoveries + result_.latent_recoveries;
    m.recovery_ms = result_.mean_outage_ms;
    m.success_pct = recovered + result_.failed_recoveries > 0
                        ? 100.0 * recovered /
                              (recovered + result_.failed_recoveries)
                        : 0;
    m.violation_min = result_.slo_violation_minutes;
    m.runs = result_.faults_scheduled;
    m.detected = recovered + result_.failed_recoveries;
    m.recovered = recovered;
    *digest = Fnv64(json_);
    return m;
  }

  void Export(LoopArtifacts* a) override {
    a->have_fleet = true;
    a->fleet_json = json_;
  }

 private:
  const Context& ctx_;
  nlh::fleet::FleetConfig config_;
  std::string json_;
  nlh::fleet::FleetResult result_;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string unit;
  Quartiles q;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Quartiles One(double v) {
  Quartiles q;
  q.q1 = q.median = q.q3 = v;
  q.n = 1;
  return q;
}

// Units of the per-layer metrics, by name.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::string suf(s);
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (name.rfind("self_ms.", 0) == 0) return "ms";
  if (name.rfind("recovery.window_ms.", 0) == 0) return "ms";
  if (ends("_ns") || name == "hv.host_ns_per_hypercall") return "ns";
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_pct")) return "%";
  if (ends("_ratio")) return "ratio";
  return "count";
}

struct PaperRef {
  const char* metric;
  double value;
  const char* source;
};

// Paper values the sim metrics are printed beside.
std::vector<PaperRef> PaperRefs(const std::string& workload) {
  if (workload == "campaign_cold") {
    return {{"sim_recovery_ms", 22.0, "Table III, NiLiHype total latency"}};
  }
  if (workload == "campaign_warm") {
    return {{"sim_success_pct", 94.5,
             "Fig. 2, register faults, NiLiHype successful recovery"}};
  }
  return {};
}

std::string Describe() {
  std::string s = "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"worker_threads\":{\"campaign_cold\":1,\"campaign_warm\":" +
       std::to_string(kWarmThreads) + ",\"fuzz\":1,\"fleet\":1}";
  s += ",\"compiler\":" + Quote(PERFBENCH_COMPILER);
  s += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  s += ",\"NLH_FLIGHT_RECORDER\":" + Quote(PERFBENCH_FLIGHT_RECORDER);
  s += ",\"NLH_INTEGRITY\":" + Quote(PERFBENCH_INTEGRITY);
  return s + "}";
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

std::string SpansJson(const Tracer& tr) {
  std::string s = "[";
  const std::vector<Span>& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (i) s += ",\n";
    s += "{\"id\":" + std::to_string(i) + ",\"name\":" + Quote(sp.name) +
         ",\"start_ns\":" + std::to_string(sp.start_ns) +
         ",\"end_ns\":" + std::to_string(sp.end_ns) +
         ",\"parent\":" + std::to_string(sp.parent) +
         ",\"run_id\":" + std::to_string(sp.run_id) + "}";
  }
  return s + "]\n";
}

// ---------------------------------------------------------------------------

struct Args {
  Context ctx;
  std::string out_dir;
  std::string make_ref;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --root DIR --ref-dir DIR "
               "[--out-dir DIR] [--small]\n       perfbench --make-ref W "
               "--root DIR --ref-dir DIR\n",
               why.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--small") {
      a->ctx.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->ctx.workload = v;
    } else if (k == "--seed") {
      a->ctx.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        *err = "bad --seed " + v;
        return false;
      }
    } else if (k == "--seconds") {
      a->ctx.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a->ctx.seconds > 0)) {
        *err = "bad --seconds " + v;
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        *err = "bad --trace " + v;
        return false;
      }
      a->ctx.trace = v == "1";
    } else if (k == "--root") {
      a->ctx.root = v;
    } else if (k == "--ref-dir") {
      a->ctx.ref_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--make-ref") {
      a->make_ref = v;
    } else {
      *err = "unknown flag " + k;
      return false;
    }
  }
  return true;
}

bool KnownWorkload(const std::string& w) {
  return w == "campaign_cold" || w == "campaign_warm" || w == "fuzz" ||
         w == "fleet";
}

// Records the reference outputs of one workload from the cold runner
// (campaign_warm included: its warm results must equal these).
int MakeReference(Context& ctx, const std::string& w) {
  const std::string path = RefPath(ctx, w);
  std::string text;
  if (w == "campaign_cold" || w == "campaign_warm") {
    std::vector<RunConfig> cfgs;
    for (int i = 0; i < ctx.sizes.pool; ++i) {
      cfgs.push_back(w == "campaign_warm" ? WarmConfig(PoolSeed(i))
                                          : ColdConfig(PoolSeed(i)));
    }
    const std::vector<RunResult> rs = nlh::core::RunMany(cfgs, 2);
    text = "# FNV-1a 64 of forensics::ResultJson per run; line i is run seed "
           "i+1, recorded with core::RunMany\n";
    for (const RunResult& r : rs) text += Hex64(RunDigest(r)) + "\n";
  } else if (w == "fuzz") {
    const nlh::fuzz::FuzzStats s = nlh::fuzz::Fuzz(FuzzConfig(ctx.sizes));
    text = "# fuzz::Fuzz digest (master seed " + std::to_string(kFuzzMasterSeed) +
           ", " + std::to_string(ctx.sizes.fuzz_iterations) +
           " scenarios) and the sim-batch run digest\n" + FuzzDigestText(s) + "\n";
    const std::uint64_t h = BatchDigest("fuzz", FuzzSimBatch(ctx.sizes, 2));
    text += "simbatch " + Hex64(h) + "\n";
  } else {
    nlh::fleet::FleetSim sim(FleetConfig(ctx.sizes));
    text = sim.Run(2).ToJson() + "\n";
  }
  WriteFile(path, text);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!ParseArgs(argc, argv, &a, &err)) return Usage(err);
  Context& ctx = a.ctx;
  if (ctx.small) ctx.sizes = Sizes::Small();
  if (ctx.root.empty() || ctx.ref_dir.empty()) {
    return Usage("--root and --ref-dir are required");
  }
  if (!a.make_ref.empty()) {
    if (!KnownWorkload(a.make_ref) || ctx.small) {
      return Usage("bad --make-ref " + a.make_ref);
    }
    return MakeReference(ctx, a.make_ref);
  }
  if (!KnownWorkload(ctx.workload)) {
    return Usage("unknown workload '" + ctx.workload + "'");
  }
  std::unique_ptr<Workload> wl;
  if (ctx.workload == "campaign_cold" || ctx.workload == "campaign_warm") {
    wl = std::make_unique<CampaignWorkload>(ctx, ctx.workload == "campaign_warm");
  } else if (ctx.workload == "fuzz") {
    wl = std::make_unique<FuzzWorkload>(ctx);
  } else {
    wl = std::make_unique<FleetWorkload>(ctx);
  }

  // Set-up: loading the references and building the inputs. It runs once
  // before the loop and again after every repetition, so its samples span
  // the run as the loop's do; the median is setup_s.
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t t0 = NowNs();
    if (!LoadReferences(&ctx, &err)) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      return false;
    }
    wl->Setup();
    setup_s.push_back(SecondsSince(t0));
    return true;
  };
  if (!setup()) return 1;
  wl->Warmup();

  // The closed loop. A traced invocation alternates untraced and traced
  // repetitions, so both halves see the same machine state; the difference
  // of their per-run times is the tracing overhead.
  Tracer tracer;
  LoopStats st;
  LoopStats traced;
  const std::int64_t loop0 = NowNs();
  for (int k = 0; !wl->Done(st, SecondsSince(loop0), ctx.seconds); ++k) {
    if (!ctx.trace || k % 2 == 0) {
      wl->Rep(&st, tracer);
    } else {
      tracer.Enable(true);
      const int root = tracer.Begin("bench.rep");
      wl->Rep(&traced, tracer);
      tracer.End(root);
      tracer.Enable(false);
    }
    if (!setup()) return 1;
  }

  std::uint64_t out_digest = 0;
  std::vector<std::string> why;
  const SimMetrics sim = wl->Sim(&out_digest, &why);
  SimMetrics window;
  const bool have_window = wl->WindowSim(&window);

  const int attempted = st.attempted + traced.attempted;
  const int failed = st.failed + traced.failed;
  const double failed_pct = attempted ? 100.0 * failed / attempted : 100.0;
  if (failed) why.push_back(std::to_string(failed) + " operation(s) mismatched the reference");

  std::map<std::string, Metric> metrics;
  if (!ctx.trace) {
    // Per repetition. Where a metric is not defined for the workload, it
    // reports an alias of the same per-repetition figures (README.md).
    std::vector<double> runs_per_s, rep_run_ms, scenarios_per_s;
    for (std::size_t i = 0; i < st.wall_s.size(); ++i) {
      const int runs = std::max(st.rep_runs[i], 1);
      runs_per_s.push_back(runs / st.wall_s[i]);
      rep_run_ms.push_back(st.wall_s[i] * 1000 / runs);
      if (i < st.rep_scenarios.size()) {
        scenarios_per_s.push_back(st.rep_scenarios[i] / st.wall_s[i]);
      }
    }
    const std::vector<double>& rm = st.run_ms.empty() ? rep_run_ms : st.run_ms;
    metrics["setup_s"] = {"s", QuartilesOf(setup_s)};
    metrics["runs_per_s"] = {"1/s", QuartilesOf(runs_per_s)};
    metrics["run_ms_p50"] = {"ms", QuartilesOf(rm)};
    metrics["run_ms_p95"] = {"ms", One(Percentile(rm, 95))};
    metrics["run_ms_p95"].q.n = static_cast<int>(rm.size());
    metrics["fuzz_scenarios_per_s"] = {
        "1/s", QuartilesOf(scenarios_per_s.empty() ? runs_per_s : scenarios_per_s)};
    metrics["fleet_wall_s"] = {"s", QuartilesOf(st.wall_s)};
    metrics["peak_rss_mb"] = {"MB", One(PeakRssMb())};
    metrics["sim_recovery_ms"] = {"sim_ms", One(sim.recovery_ms)};
    metrics["sim_success_pct"] = {"%", One(sim.success_pct)};
    metrics["sim_violation_min"] = {"tenant_min", One(sim.violation_min)};
  } else {
    LoopArtifacts art;
    wl->Export(&art);
    std::map<std::string, double> layer;
    tracer.Enable(true);
    const int root = tracer.Begin("bench.probes");
    RunLayerProbes(ctx, art, tracer, &layer, &why);
    tracer.End(root);
    // Tracing overhead: per-operation host time, traced minus untraced.
    const double plain = st.timed_s / std::max(st.runs, 1) * 1000;
    const double with = traced.timed_s / std::max(traced.runs, 1) * 1000;
    layer["trace.overhead_ms"] = with - plain;
    layer["trace.overhead_pct"] = plain > 0 ? (with / plain - 1) * 100 : 0;
    const std::map<std::string, double> self = tracer.SelfMsByLayer();
    for (const char* l : {"bench", "sim", "hv", "inject", "core", "recovery",
                          "guest", "audit", "integrity", "fork", "fuzz", "fleet"}) {
      const auto it = self.find(l);
      layer[std::string("self_ms.") + l] = it == self.end() ? 0 : it->second;
    }
    layer["failed_ops_pct"] = failed_pct;
    for (const auto& [k, v] : layer) metrics[k] = {LayerUnit(k), One(v)};
  }
  const bool correct = why.empty() && attempted > 0;

  // Human-readable report.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d size=%s\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0, ctx.small ? "small" : "full");
  std::printf("machine/build: %s\n", Describe().c_str());
  std::printf("repetitions: %zu untraced%s, runs: %d, attempted: %d, failed: %d "
              "(failed_ops_pct %.3f)\n",
              st.wall_s.size(),
              ctx.trace ? (", " + std::to_string(traced.wall_s.size()) + " traced").c_str() : "",
              st.runs + traced.runs, attempted, failed, failed_pct);
  std::printf("%-28s %14s %14s %14s %6s  %s\n", "metric", "median", "q1", "q3",
              "n", "unit");
  for (const auto& [k, m] : metrics) {
    std::printf("%-28s %14.6g %14.6g %14.6g %6d  %s\n", k.c_str(), m.q.median,
                m.q.q1, m.q.q3, m.q.n, m.unit.c_str());
  }
  std::string paper_json = "[";
  if (!ctx.trace) {
    std::printf("model accuracy (sim metrics, %d canonical runs, %d detected):\n",
                sim.runs, sim.detected);
    const std::vector<PaperRef> refs = PaperRefs(ctx.workload);
    for (const PaperRef& p : refs) {
      const double v = metrics[p.metric].q.median;
      std::printf("  %-18s %10.3f  paper %8.3f  (%+.1f%%)  %s\n", p.metric, v,
                  p.value, (v / p.value - 1) * 100, p.source);
      if (paper_json.size() > 1) paper_json += ",";
      paper_json += "{\"metric\":" + Quote(p.metric) + ",\"sim\":" + Num(v) +
                    ",\"paper\":" + Num(p.value) +
                    ",\"source\":" + Quote(p.source) + "}";
    }
    if (refs.empty()) {
      std::printf("  no paper reference for this workload's sim metrics\n");
    }
    std::printf("  sim_violation_min has no paper reference: unvalidated\n");
    if (have_window) {
      std::printf("  held-out (--seed window, %d runs, %d detected): "
                  "sim_recovery_ms %.3f, sim_success_pct %.2f, "
                  "sim_violation_min %.1f\n",
                  window.runs, window.detected, window.recovery_ms,
                  window.success_pct, window.violation_min);
    }
  }
  paper_json += "]";
  for (const std::string& w : why) std::printf("check failed: %s\n", w.c_str());

  // Result file.
  if (!a.out_dir.empty()) {
    const std::string base = a.out_dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + "-trace" +
                             (ctx.trace ? "1" : "0") + (ctx.small ? "-small" : "");
    std::string f = "{\"schema\":\"nlh-perfbench-result-v1\"";
    f += ",\"workload\":" + Quote(ctx.workload);
    f += ",\"seed\":" + std::to_string(ctx.seed);
    f += ",\"seconds\":" + Num(ctx.seconds);
    f += ",\"trace\":" + std::string(ctx.trace ? "true" : "false");
    f += ",\"size\":" + Quote(ctx.small ? "small" : "full");
    f += ",\"machine\":" + Describe();
    f += ",\"repetitions\":" + std::to_string(st.wall_s.size());
    f += ",\"traced_repetitions\":" + std::to_string(traced.wall_s.size());
    f += ",\"setups\":" + std::to_string(setup_s.size());
    f += ",\"runs\":" + std::to_string(st.runs + traced.runs);
    f += ",\"attempted\":" + std::to_string(attempted);
    f += ",\"failed\":" + std::to_string(failed);
    f += ",\"failed_ops_pct\":" + Num(failed_pct);
    f += ",\"correct\":" + std::string(correct ? "true" : "false");
    f += ",\"output_digest\":" + Quote(Hex64(out_digest));
    f += ",\"paper\":" + paper_json;
    if (have_window) {
      f += ",\"held_out\":{\"runs\":" + std::to_string(window.runs) +
           ",\"detected\":" + std::to_string(window.detected) +
           ",\"sim_recovery_ms\":" + Num(window.recovery_ms) +
           ",\"sim_success_pct\":" + Num(window.success_pct) +
           ",\"sim_violation_min\":" + Num(window.violation_min) + "}";
    }
    f += ",\"rep_wall_s\":[";
    for (std::size_t i = 0; i < st.wall_s.size(); ++i) {
      f += (i ? "," : "") + Num(st.wall_s[i]);
    }
    f += "]";
    f += ",\"metrics\":{";
    bool first = true;
    for (const auto& [k, m] : metrics) {
      if (!first) f += ",";
      first = false;
      f += Quote(k) + ":{\"unit\":" + Quote(m.unit) + ",\"median\":" +
           Num(m.q.median) + ",\"q1\":" + Num(m.q.q1) + ",\"q3\":" +
           Num(m.q.q3) + ",\"n\":" + std::to_string(m.q.n) + "}";
    }
    f += "}}\n";
    WriteFile(base + ".json", f);
    if (ctx.trace) WriteFile(base + "-spans.json", SpansJson(tracer));
  }

  // Result object: the last line of stdout.
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += Quote(k) + ": {\"value\": " + Num(m.q.median) +
            ", \"unit\": " + Quote(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
