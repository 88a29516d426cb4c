// Minimal structured logging for the simulator.
//
// Logs carry the simulated timestamp of the emitting context. Campaigns run
// with logging off (kNone) for speed; individual replayed runs enable kTrace
// to diagnose recovery failures.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace nlh::sim {

enum class LogLevel { kNone = 0, kError, kInfo, kDebug, kTrace };

class Logger {
 public:
  explicit Logger(LogLevel level = LogLevel::kNone) : level_(level) {}

  void SetLevel(LogLevel level) { level_ = level; }
  LogLevel Level() const { return level_; }

  // Optional capture hook; when set, formatted lines are appended to the
  // sink instead of stderr (used by tests to assert on recovery traces).
  void SetSink(std::vector<std::string>* sink) { sink_ = sink; }

  // Structured observer called (before formatting) for every line that
  // passes filtering, in addition to the sink/stderr output. The flight
  // recorder uses this to fold log lines into the event stream.
  using EventHook =
      std::function<void(LogLevel, Time, const std::string& /*component*/,
                         const std::string& /*message*/)>;
  void SetEventHook(EventHook hook) { event_hook_ = std::move(hook); }

  bool Enabled(LogLevel level) const { return level <= level_; }

  void Log(LogLevel level, Time now, const std::string& component,
           const std::string& message) {
    if (!Enabled(level)) return;
    if (event_hook_) event_hook_(level, now, component, message);
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "[%10.3fms] %-8s ", ToMillisF(now),
                  component.c_str());
    std::string line = std::string(prefix) + message;
    if (sink_ != nullptr) {
      sink_->push_back(std::move(line));
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

 private:
  LogLevel level_;
  EventHook event_hook_;
  std::vector<std::string>* sink_ = nullptr;
};

}  // namespace nlh::sim
