// Shared pieces of the benchmark: host clock, order statistics, output
// digests and the span tracer that attributes host time to layers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

// Quartiles as Python's statistics.quantiles(values, n=4) computes them
// (the default "exclusive" method), so the benchmark's own spread figures
// match the ones computed over its runs. Fewer than two values: all three
// quartiles are that value.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  int n = 0;
};

inline double QuantileExclusive(const std::vector<double>& sorted, int i,
                                int parts) {
  const int n = static_cast<int>(sorted.size());
  const int m = n + 1;
  const int j = std::clamp(i * m / parts, 1, n - 1);
  const int delta = i * m - j * parts;
  return (sorted[static_cast<std::size_t>(j - 1)] * (parts - delta) +
          sorted[static_cast<std::size_t>(j)] * delta) /
         parts;
}

inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  q.n = static_cast<int>(v.size());
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v.front();
    return q;
  }
  q.q1 = QuantileExclusive(v, 1, 4);
  q.q3 = QuantileExclusive(v, 3, 4);
  const std::size_t mid = v.size() / 2;
  q.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  return q;
}

inline double Median(const std::vector<double>& v) {
  return QuartilesOf(v).median;
}

// The p-th percentile (0..100) as Python's statistics.quantiles(values,
// n=100, method="inclusive")[p-1]: interpolated between order statistics,
// never extrapolated past the slowest sample, which matters for the
// workloads with ten or so repetitions.
inline double Percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const int m = static_cast<int>(v.size()) - 1;
  const int j = p * m / 100;
  const int delta = p * m - j * 100;
  if (j >= m) return v.back();
  return (v[static_cast<std::size_t>(j)] * (100 - delta) +
          v[static_cast<std::size_t>(j + 1)] * delta) /
         100;
}

// FNV-1a 64: the digest every simulated output is reduced to before it is
// compared with the committed references.
inline std::uint64_t Fnv64(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string Hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return s;
}

// One timed call into a layer. `name` is "<layer>.<call>"; the layer is the
// prefix before the first dot. Spans of one simulated run share `run_id`
// (-1 when the span covers no single run).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t run_id = -1;
};

// In-memory span store, written out once at the end of a traced run. When
// disabled (every untraced run) Begin/End do nothing, so the timed loops
// carry no tracing cost.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }

  int Begin(const std::string& name, int parent = -2,
            std::int64_t run_id = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = parent == -2 ? current_ : parent;
    s.run_id = run_id;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    current_ = id;
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = NowNs();
    if (current_ == id) current_ = s.parent;
  }

  // A completed span recorded after the fact (per-run spans reconstructed
  // from worker-thread callbacks). Does not change the current parent.
  void Add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, std::int64_t run_id) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, run_id});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer: each span's duration minus the part its children
  // cover, summed by layer prefix. The run spans of a 2-worker batch
  // overlap, so a self time below zero is clipped to zero.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const double self = std::max(0.0, dur - child_ns[i]);
      out[s.name.substr(0, s.name.find('.'))] += self / 1e6;
    }
    return out;
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
