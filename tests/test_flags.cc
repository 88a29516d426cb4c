// The flag table parser (sim/flags.h) shared by campaign_tool and the
// bench binaries: every value kind accepts its valid form and rejects a
// sign, a unit suffix, an empty value and an overflow with the value
// quoted; the usage is printed from the table.
#include "sim/flags.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nlh::sim {
namespace {

enum class Widget { kA, kB, kC };

struct Dest {
  bool sw = false;
  bool opt = false;
  int opt_n = 7;
  std::string text = "unset";
  int count = 0;
  std::uint64_t u64 = 0;
  double pct = 0;
  Widget widget = Widget::kA;
};

std::vector<Flag> Table(Dest* d) {
  return {
      Flag::Switch("--sw", &d->sw, "a switch"),
      Flag::OptionalInt("--opt", &d->opt, &d->opt_n, "N", "an optional count"),
      Flag::Text("--text", &d->text, "FILE", "some text"),
      Flag::PositiveInt("--count", &d->count, "N", "a positive count"),
      Flag::U64("--u64", &d->u64, 1000, "a bounded u64"),
      Flag::PositiveDecimal("--pct", &d->pct, "P", "a percentage"),
      Flag::Choice("--widget", &d->widget,
                   {{"a", Widget::kA}, {"b", Widget::kB}, {"c", Widget::kC}},
                   "widget", "a choice"),
  };
}

struct Parsed {
  std::optional<int> exit;
  std::string output;
};

Parsed Parse(Dest* d, std::vector<std::string> args) {
  args.insert(args.begin(), "/path/to/prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  Parsed p;
  p.exit = ParseFlags(static_cast<int>(argv.size()), argv.data(), Table(d));
  p.output = testing::internal::GetCapturedStdout();
  return p;
}

TEST(Flags, ValidValuesOfEveryKindAreStored) {
  Dest d;
  const Parsed p = Parse(&d, {"--sw", "--opt", "--text=a b=c", "--count=42",
                              "--u64=1000", "--pct=12.5", "--widget=c"});
  EXPECT_EQ(p.exit, std::nullopt) << p.output;
  EXPECT_EQ(p.output, "");
  EXPECT_TRUE(d.sw);
  EXPECT_TRUE(d.opt);
  EXPECT_EQ(d.opt_n, 7);  // bare form keeps the default
  EXPECT_EQ(d.text, "a b=c");
  EXPECT_EQ(d.count, 42);
  EXPECT_EQ(d.u64, 1000u);
  EXPECT_DOUBLE_EQ(d.pct, 12.5);
  EXPECT_EQ(d.widget, Widget::kC);
}

TEST(Flags, OptionalValueTakesBothForms) {
  Dest bare;
  EXPECT_EQ(Parse(&bare, {"--opt"}).exit, std::nullopt);
  EXPECT_TRUE(bare.opt);
  EXPECT_EQ(bare.opt_n, 7);
  Dest valued;
  EXPECT_EQ(Parse(&valued, {"--opt=3"}).exit, std::nullopt);
  EXPECT_TRUE(valued.opt);
  EXPECT_EQ(valued.opt_n, 3);
}

TEST(Flags, IntegerBoundsAreInclusive) {
  Dest d;
  EXPECT_EQ(Parse(&d, {"--count=2147483647", "--u64=0", "--pct=.5"}).exit,
            std::nullopt);
  EXPECT_EQ(d.count, INT_MAX);
  EXPECT_EQ(d.u64, 0u);
  EXPECT_DOUBLE_EQ(d.pct, 0.5);
}

TEST(Flags, LastRepeatWins) {
  Dest d;
  EXPECT_EQ(Parse(&d, {"--count=1", "--count=2"}).exit, std::nullopt);
  EXPECT_EQ(d.count, 2);
}

// Each malformed value exits 2 with the value quoted and the usage.
TEST(Flags, MalformedValuesAreRejectedWithTheValueQuoted) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // flag argument, the quoted value the error must contain
      {"--count=-5", "-5"},
      {"--count=+5", "+5"},
      {"--count=150ms", "150ms"},
      {"--count=", ""},
      {"--count=0", "0"},
      {"--count=2147483648", "2147483648"},
      {"--count= 5", " 5"},
      {"--opt=-1", "-1"},
      {"--opt=2ms", "2ms"},
      {"--opt=", ""},
      {"--opt=0", "0"},
      {"--u64=-1", "-1"},
      {"--u64=7x", "7x"},
      {"--u64=", ""},
      {"--u64=1001", "1001"},
      {"--u64=18446744073709551616", "18446744073709551616"},
      {"--pct=-1", "-1"},
      {"--pct=+1", "+1"},
      {"--pct=15%", "15%"},
      {"--pct=", ""},
      {"--pct=0", "0"},
      {"--pct=1e3", "1e3"},
      {"--pct=inf", "inf"},
      {"--pct=1.2.3", "1.2.3"},
      {"--pct=" + std::string(400, '9'), std::string(400, '9')},
  };
  for (const auto& [arg, value] : cases) {
    Dest d;
    const Parsed p = Parse(&d, {arg});
    EXPECT_EQ(p.exit, 2) << arg;
    EXPECT_NE(p.output.find(", got '" + value + "'\n"), std::string::npos)
        << arg << ": " << p.output;
    EXPECT_NE(p.output.find("usage: prog [flags]"), std::string::npos) << arg;
  }
}

TEST(Flags, ErrorsNameTheFlagAndTheKind) {
  Dest d;
  EXPECT_NE(Parse(&d, {"--count=x"})
                .output.find("--count needs a positive integer, got 'x'"),
            std::string::npos);
  EXPECT_NE(Parse(&d, {"--u64=x"}).output.find(
                "--u64 needs a non-negative integer up to 1000, got 'x'"),
            std::string::npos);
  EXPECT_NE(Parse(&d, {"--pct=x"})
                .output.find("--pct needs a positive number, got 'x'"),
            std::string::npos);
}

TEST(Flags, SwitchGivenAValueIsRejected) {
  Dest d;
  const Parsed p = Parse(&d, {"--sw=1"});
  EXPECT_EQ(p.exit, 2);
  EXPECT_NE(p.output.find("--sw takes no value, got '1'"), std::string::npos)
      << p.output;
  EXPECT_FALSE(d.sw);
}

TEST(Flags, ValuedFlagWithoutAValueIsRejected) {
  Dest d;
  const Parsed p = Parse(&d, {"--text"});
  EXPECT_EQ(p.exit, 2);
  EXPECT_NE(p.output.find("--text needs a value: --text=FILE"),
            std::string::npos)
      << p.output;
  EXPECT_EQ(d.text, "unset");
}

TEST(Flags, UnknownChoiceListsTheValidSlugs) {
  Dest d;
  const Parsed p = Parse(&d, {"--widget=z"});
  EXPECT_EQ(p.exit, 2);
  EXPECT_NE(p.output.find("unknown widget 'z'; valid: a b c\n"),
            std::string::npos)
      << p.output;
  EXPECT_EQ(d.widget, Widget::kA);
}

TEST(Flags, UnknownFlagIsRejected) {
  for (const char* arg : {"--bogus", "--bogus=1", "--s", "positional"}) {
    Dest d;
    const Parsed p = Parse(&d, {"--count=3", arg});
    EXPECT_EQ(p.exit, 2) << arg;
    EXPECT_NE(p.output.find(std::string("unknown flag ") + arg + "\n"),
              std::string::npos)
        << p.output;
  }
}

TEST(Flags, UsageListsEveryRow) {
  Dest d;
  const Parsed p = Parse(&d, {"--nope"});
  // One line per row: "  <synopsis>  <padding><help>".
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"--sw", "a switch"},           {"--opt[=N]", "an optional count"},
      {"--text=FILE", "some text"},   {"--count=N", "a positive count"},
      {"--u64=N", "a bounded u64"},   {"--pct=P", "a percentage"},
      {"--widget=a|b|c", "a choice"}, {"--help", "print this usage and exit"},
  };
  for (const auto& [synopsis, help] : rows) {
    const std::size_t at = p.output.find("\n  " + synopsis + "  ");
    ASSERT_NE(at, std::string::npos) << synopsis << "\n" << p.output;
    const std::size_t eol = p.output.find('\n', at + 1);
    EXPECT_EQ(p.output.substr(eol - help.size(), help.size()), help)
        << p.output;
  }
}

TEST(Flags, HelpPrintsUsageAndExitsZero) {
  Dest d;
  const Parsed p = Parse(&d, {"--count=3", "--help", "--bogus"});
  EXPECT_EQ(p.exit, 0);
  EXPECT_EQ(p.output.rfind("usage: prog [flags]\n", 0), 0u) << p.output;
  EXPECT_NE(p.output.find("--widget=a|b|c"), std::string::npos);
}

TEST(Flags, NoArgumentsLeaveTheDefaults) {
  Dest d;
  EXPECT_EQ(Parse(&d, {}).exit, std::nullopt);
  EXPECT_FALSE(d.sw);
  EXPECT_EQ(d.count, 0);
  EXPECT_EQ(d.text, "unset");
}

}  // namespace
}  // namespace nlh::sim
