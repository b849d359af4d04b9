// The shared command-line parser (src/sim/flags.hpp): both value forms,
// strict numbers, switches, optional values, lists, choices, positionals,
// presets, the generated usage and the render()/parse round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/flags.hpp"

namespace hwgc {
namespace {

enum class Color { kRed, kGreen };

std::optional<Color> parse_color(const std::string& s) {
  if (s == "red") return Color::kRed;
  if (s == "green") return Color::kGreen;
  return std::nullopt;
}

const char* color_name(Color c) { return c == Color::kRed ? "red" : "green"; }

struct Opts {
  std::uint64_t seed = 42;
  std::uint32_t cores = 8;
  double scale = 0.25;
  std::string out;
  bool verbose = false;
  bool oracle = true;
  std::vector<std::uint32_t> threads{1, 2};
  Color color = Color::kRed;
  bool json = false;
  std::string json_path;
};

struct Table {
  Opts o;
  Flags t{"tool", "a test tool"};
  Table() {
    t.value("--seed", o.seed, "seed");
    t.value("--cores", o.cores, "cores").pin();
    t.value("--scale", o.scale, "scale");
    t.value("--out", o.out, "output").metavar("FILE");
    t.toggle("--verbose", o.verbose, "chatty").alias("-v");
    t.toggle("--no-oracle", o.oracle, "skip the oracle", false);
    t.list("--threads", o.threads, "widths");
    t.value("--color", o.color,
            choice(parse_color, color_name,
                   std::vector<Color>{Color::kRed, Color::kGreen}),
            "color");
    t.opt_value("--json", o.json, o.json_path, "json");
  }
  std::string parse(const std::vector<std::string>& args) {
    return t.try_parse(args);
  }
};

TEST(Flags, AcceptsBothValueForms) {
  Table a;
  ASSERT_EQ(a.parse({"--seed=7", "--scale", "0.01", "--out", "x.json"}), "");
  EXPECT_EQ(a.o.seed, 7u);
  EXPECT_EQ(a.o.scale, 0.01);
  EXPECT_EQ(a.o.out, "x.json");
  EXPECT_TRUE(a.t.seen("--scale"));
  EXPECT_FALSE(a.t.seen("--cores"));
}

TEST(Flags, NumbersAreStrict) {
  for (const char* bad : {"12x", "", "-1", "+1", " 1", "0x10", "1.5"}) {
    Table a;
    const std::string err = a.parse({std::string("--seed=") + bad});
    EXPECT_NE(err.find("--seed"), std::string::npos) << bad;
    EXPECT_NE(err.find("malformed"), std::string::npos) << bad;
    EXPECT_EQ(a.o.seed, 42u) << bad;
  }
  Table big;
  EXPECT_NE(big.parse({"--seed", "18446744073709551616"}), "");
  Table max;
  EXPECT_EQ(max.parse({"--seed", "18446744073709551615"}), "");
  EXPECT_EQ(max.o.seed, 18446744073709551615ull);
}

TEST(Flags, U32RejectsValuesThatDoNotFit) {
  Table a;
  const std::string err = a.parse({"--cores", "4294967296"});
  EXPECT_NE(err.find("--cores"), std::string::npos);
  EXPECT_NE(err.find("32-bit"), std::string::npos);
  EXPECT_EQ(a.o.cores, 8u);
  Table b;
  EXPECT_EQ(b.parse({"--cores", "4294967295"}), "");
  EXPECT_EQ(b.o.cores, 4294967295u);
}

TEST(Flags, DoublesRejectJunkAndNonFinite) {
  for (const char* bad : {"nan", "inf", "1e999", "0.5x", ""}) {
    Table a;
    EXPECT_NE(a.parse({std::string("--scale=") + bad}), "") << bad;
  }
  EXPECT_EQ(parse_number<double>("0.05"), 0.05);
  EXPECT_EQ(parse_number<double>("-2.5"), -2.5);
}

TEST(Flags, UnknownFlagMissingValueAndStrayArgumentAreErrors) {
  Table a;
  EXPECT_EQ(a.parse({"--bogus"}), "unknown flag --bogus");
  Table b;
  EXPECT_EQ(b.parse({"--seed"}), "missing value for --seed");
  Table c;
  EXPECT_EQ(c.parse({"stray"}), "unexpected argument \"stray\"");
  Table d;
  EXPECT_EQ(d.parse({"--out="}),
            "malformed value \"\" for --out (need a non-empty value)");
}

TEST(Flags, SwitchesTakeNoValue) {
  Table a;
  ASSERT_EQ(a.parse({"-v", "--no-oracle"}), "");
  EXPECT_TRUE(a.o.verbose);
  EXPECT_FALSE(a.o.oracle);
  Table b;
  EXPECT_EQ(b.parse({"--verbose=1"}), "--verbose takes no value");
}

TEST(Flags, OptionalValueTakesItsValueOnlyInTheEqualsForm) {
  Table a;
  ASSERT_EQ(a.parse({"--json"}), "");
  EXPECT_TRUE(a.o.json);
  EXPECT_EQ(a.o.json_path, "");
  Table b;
  ASSERT_EQ(b.parse({"--json=out.json"}), "");
  EXPECT_TRUE(b.o.json);
  EXPECT_EQ(b.o.json_path, "out.json");
  Table c;
  EXPECT_EQ(c.parse({"--json", "out.json"}),
            "unexpected argument \"out.json\"");
}

TEST(Flags, ListsReplaceTheDefaultAndRejectEmptyElements) {
  Table a;
  ASSERT_EQ(a.parse({"--threads", "4,16"}), "");
  EXPECT_EQ(a.o.threads, (std::vector<std::uint32_t>{4, 16}));
  for (const char* bad : {"", "4,", ",4", "4,,8", "4,x"}) {
    Table b;
    const std::string err = b.parse({"--threads", bad});
    EXPECT_NE(err.find("--threads"), std::string::npos) << bad;
    EXPECT_EQ(b.o.threads, (std::vector<std::uint32_t>{1, 2})) << bad;
  }
}

TEST(Flags, ChoicesNameTheirValues) {
  Table a;
  ASSERT_EQ(a.parse({"--color=green"}), "");
  EXPECT_EQ(a.o.color, Color::kGreen);
  Table b;
  EXPECT_EQ(b.parse({"--color", "blue"}),
            "malformed value \"blue\" for --color (need one of red|green)");
}

TEST(Flags, PositionalsFillInOrderThenRest) {
  double scale = 0.5;
  std::string name;
  std::vector<std::string> rest;
  Flags t("tool");
  t.value("name", name, "name");
  t.value("scale", scale, "scale");
  t.list("FILE", rest, "files");
  ASSERT_EQ(t.try_parse({"a", "0.125", "x", "y"}), "");
  EXPECT_EQ(name, "a");
  EXPECT_EQ(scale, 0.125);
  EXPECT_EQ(rest, (std::vector<std::string>{"x", "y"}));

  double s2 = 0.5;
  Flags u("tool");
  u.value("scale", s2, "scale");
  EXPECT_EQ(u.try_parse({"12x"}),
            "malformed value \"12x\" for scale (need a number)");
  EXPECT_EQ(u.try_parse({"1", "2"}), "unexpected argument \"2\"");
}

TEST(Flags, PresetsRunInCommandLineOrder) {
  std::uint32_t seeds = 4;
  Flags t("tool");
  t.value("--seeds", seeds, "seeds");
  t.action("--quick", [&seeds] { seeds = 2; }, "preset");
  ASSERT_EQ(t.try_parse({"--quick", "--seeds", "9"}), "");
  EXPECT_EQ(seeds, 9u);
  ASSERT_EQ(t.try_parse({"--seeds", "9", "--quick"}), "");
  EXPECT_EQ(seeds, 2u);
  EXPECT_EQ(t.try_parse({"--quick=1"}), "--quick takes no value");
}

TEST(Flags, HelpStopsParsing) {
  Table a;
  EXPECT_EQ(a.parse({"--help", "--bogus"}), "");
  EXPECT_TRUE(a.t.help_requested());
  Table b;
  EXPECT_EQ(b.parse({"-h"}), "");
  EXPECT_TRUE(b.t.help_requested());
}

TEST(Flags, UsageIsGeneratedFromTheTable) {
  Table a;
  a.t.section("extra");
  std::uint32_t n = 3;
  a.t.value("--n", n, "a number");
  const std::string u = a.t.usage();
  EXPECT_EQ(u.rfind("usage: tool [options]\na test tool\n", 0), 0u) << u;
  for (const char* needle :
       {"--seed N", "(default 42)", "--out FILE", "--verbose, -v",
        "--threads N,..", "(default 1,2)", "--color red|green",
        "(default red)", "--json[=PATH]", "extra:\n  --n N", "(default 3)"}) {
    EXPECT_NE(u.find(needle), std::string::npos) << needle << "\n" << u;
  }
}

TEST(Flags, RenderWritesPinnedAndChangedFlagsThatParseBack) {
  Table a;
  EXPECT_EQ(a.t.render(), "--cores 8");
  a.o.seed = 9;
  a.o.scale = 0.1;
  a.o.verbose = true;
  a.o.oracle = false;
  a.o.threads = {3};
  a.o.color = Color::kGreen;
  const std::string line = a.t.render();
  EXPECT_EQ(line,
            "--seed 9 --cores 8 --scale 0.1 --verbose --no-oracle --threads 3 "
            "--color green");

  Table b;
  std::vector<std::string> args;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t sp = line.find(' ', pos);
    args.push_back(line.substr(pos, sp - pos));
    if (sp == std::string::npos) break;
    pos = sp + 1;
  }
  ASSERT_EQ(b.parse(args), "");
  EXPECT_EQ(b.o.seed, 9u);
  EXPECT_EQ(b.o.scale, 0.1);
  EXPECT_TRUE(b.o.verbose);
  EXPECT_FALSE(b.o.oracle);
  EXPECT_EQ(b.o.threads, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(b.o.color, Color::kGreen);
  EXPECT_EQ(b.t.render(), line);
}

TEST(Flags, DoublesRenderShortestRoundTrip) {
  for (const double v : {0.1, 0.55, 1.0 / 3.0, 1e-7, 123456789.0}) {
    double x = v;
    Flags t("tool");
    t.value("--x", x, "x").pin();
    double y = 0;
    Flags u("tool");
    u.value("--x", y, "x");
    const std::string line = t.render();
    ASSERT_EQ(u.try_parse({line.substr(0, 3), line.substr(4)}), "") << line;
    EXPECT_EQ(y, v) << line;
  }
}

}  // namespace
}  // namespace hwgc
