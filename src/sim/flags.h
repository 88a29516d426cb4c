// Table-driven command-line flags for campaign_tool and the bench binaries.
// A program lists its flags as Flag rows (name, value kind, destination,
// one-line help) and ParseFlags applies argv to them: it is the only place
// a flag value is checked, and the usage text is printed from the same
// rows. Numeric values are strict — digits only (one '.' for a decimal), no
// sign, no unit suffix ("150ms"), no empty value, no overflow — so a
// malformed value is an error that quotes it, never an atoi()-style
// truncation into a silently different run.
#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nlh::sim {

// Digits-only decimal in [min, max]; false on anything else.
inline bool ParseUnsigned(std::string_view s, std::uint64_t min,
                          std::uint64_t max, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t n = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (n > (UINT64_MAX - digit) / 10) return false;
    n = n * 10 + digit;
  }
  if (n < min || n > max) return false;
  *out = n;
  return true;
}

// One row of a flag table; build rows with the named constructors. The
// destinations must outlive the ParseFlags call.
struct Flag {
  // The value after '=', or nullopt for a bare "--name".
  using Value = std::optional<std::string_view>;

  std::string name;      // "--runs"
  std::string synopsis;  // usage column: "--runs=N", "--proactive[=N]"
  const char* help = "";
  // Stores the value; returns "" or the error line.
  std::function<std::string(Value)> apply;

  // --name
  static Flag Switch(const char* name, bool* on, const char* help) {
    return {name, name, help, [name = std::string(name), on](Value v) {
              if (v) {
                return name + " takes no value, got '" + std::string(*v) +
                       "'";
              }
              *on = true;
              return std::string();
            }};
  }
  // --name=VALUE, any text.
  static Flag Text(const char* name, std::string* out, const char* metavar,
                   const char* help) {
    return Valued(name, metavar, help, "", [out](std::string_view v) {
      *out = std::string(v);
      return true;
    });
  }
  // --name=N, 1..INT_MAX.
  static Flag PositiveInt(const char* name, int* out, const char* metavar,
                          const char* help) {
    return Valued(name, metavar, help, "a positive integer",
                  [out](std::string_view v) {
                    std::uint64_t n = 0;
                    if (!ParseUnsigned(v, 1, INT_MAX, &n)) return false;
                    *out = static_cast<int>(n);
                    return true;
                  });
  }
  // --name or --name=N: sets *on, and stores a positive N when given.
  static Flag OptionalInt(const char* name, bool* on, int* value,
                          const char* metavar, const char* help) {
    Flag f = PositiveInt(name, value, metavar, help);
    f.synopsis = f.name + "[=" + metavar + "]";
    f.apply = [on, valued = std::move(f.apply)](Value v) {
      std::string err = v ? valued(v) : "";
      if (err.empty()) *on = true;
      return err;
    };
    return f;
  }
  // --name=N, 0..max.
  static Flag U64(const char* name, std::uint64_t* out, std::uint64_t max,
                  const char* help) {
    return Valued(name, "N", help,
                  "a non-negative integer up to " + std::to_string(max),
                  [out, max](std::string_view v) {
                    return ParseUnsigned(v, 0, max, out);
                  });
  }
  // --name=P: digits with at most one '.', finite and above zero.
  static Flag PositiveDecimal(const char* name, double* out,
                              const char* metavar, const char* help) {
    return Valued(
        name, metavar, help, "a positive number", [out](std::string_view v) {
          if (v.find_first_not_of("0123456789.") != v.npos ||
              std::count(v.begin(), v.end(), '.') > 1) {
            return false;
          }
          const double d = std::strtod(std::string(v).c_str(), nullptr);
          if (!std::isfinite(d) || !(d > 0)) return false;
          *out = d;
          return true;
        });
  }
  // --name=SLUG: `values` pairs each slug with what it stores into *out; an
  // unknown slug reads "unknown <noun> 'x'; valid: a b c".
  template <class T>
  static Flag Choice(const char* name, T* out,
                     std::vector<std::pair<const char*, T>> values,
                     const char* noun, const char* help) {
    std::string synopsis = name;
    std::string valid;
    for (const auto& [slug, value] : values) {
      synopsis += (valid.empty() ? "=" : "|") + std::string(slug);
      valid += " " + std::string(slug);
    }
    return {name, synopsis, help,
            [out, values = std::move(values), noun, valid](Value v) {
              for (const auto& [slug, value] : values) {
                if (v == slug) {
                  *out = value;
                  return std::string();
                }
              }
              return std::string("unknown ") + noun + " '" +
                     std::string(v.value_or("")) + "'; valid:" + valid;
            }};
  }

 private:
  // --name=VALUE whose value `store` parses and stores, returning false
  // when it is malformed; `needs` says what the value should have been.
  static Flag Valued(const char* name, const char* metavar, const char* help,
                     std::string needs,
                     std::function<bool(std::string_view)> store) {
    const std::string synopsis = std::string(name) + "=" + metavar;
    return {name, synopsis, help,
            [name = std::string(name), synopsis, needs = std::move(needs),
             store = std::move(store)](Value v) {
              if (!v) return name + " needs a value: " + synopsis;
              if (store(*v)) return std::string();
              return name + " needs " + needs + ", got '" + std::string(*v) +
                     "'";
            }};
  }
};

// Prints "usage: <program> [flags]" and one line per row, plus --help.
inline void PrintUsage(const char* argv0, const std::vector<Flag>& flags) {
  const std::string_view path(argv0);
  const std::string program(path.substr(path.rfind('/') + 1));
  std::size_t width = 6;  // "--help"
  for (const Flag& f : flags) width = std::max(width, f.synopsis.size());
  const int w = static_cast<int>(width);
  std::printf("usage: %s [flags]\n", program.c_str());
  for (const Flag& f : flags) {
    std::printf("  %-*s  %s\n", w, f.synopsis.c_str(), f.help);
  }
  std::printf("  %-*s  %s\n", w, "--help", "print this usage and exit");
}

// Applies argv[1..argc) to the table in order (a repeated flag's last value
// wins). Returns nullopt when the program should go on, or the code main()
// should exit with: 0 after --help (usage printed), 2 after an unknown flag
// or a bad value (the error line, then the usage, printed).
inline std::optional<int> ParseFlags(int argc, char** argv,
                                     const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      PrintUsage(argv[0], flags);
      return 0;
    }
    const std::size_t eq = arg.find('=');
    const auto row = std::find_if(flags.begin(), flags.end(),
                                  [&](const Flag& f) {
                                    return f.name == arg.substr(0, eq);
                                  });
    const std::string err =
        row == flags.end() ? "unknown flag " + std::string(arg)
        : eq == arg.npos   ? row->apply(std::nullopt)
                           : row->apply(arg.substr(eq + 1));
    if (!err.empty()) {
      std::printf("%s\n", err.c_str());
      PrintUsage(argv[0], flags);
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace nlh::sim
