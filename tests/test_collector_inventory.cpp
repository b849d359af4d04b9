// Collector inventory drift guard: README.md and DESIGN.md both carry a
// marker-delimited per-collector traits table. This suite generates the
// expected table from the live inventory (all_collectors() / traits_of())
// and compares the committed docs byte-for-byte, so adding a collector —
// or changing what one guarantees — fails the build until the docs follow.
// Regenerate in place with
//   HWGC_REGEN_GOLDEN=1 ./tests/test_collector_inventory
// The prose guard goes further: any "<number-word> collector(s)" phrase in
// either document must name the enum's actual count, which is how the old
// "seven collectors" drift (pre-kSnapshot) stays fixed.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "conformance/harness.hpp"

namespace hwgc {
namespace {

constexpr char kBegin[] = "<!-- collector-inventory:begin -->";
constexpr char kEnd[] = "<!-- collector-inventory:end -->";

const char* yn(bool b) { return b ? "yes" : "—"; }

std::string expected_table() {
  std::ostringstream os;
  os << "| collector | threaded | concurrent mutator | deterministic | "
        "dense | cheney order | preserves image |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (CollectorId id : all_collectors()) {
    const CollectorTraits t = traits_of(id);
    os << "| `" << to_string(id) << "` | " << yn(t.threaded) << " | "
       << yn(t.concurrent_mutator) << " | " << yn(t.deterministic) << " | "
       << yn(t.dense) << " | " << yn(t.cheney_order) << " | "
       << yn(t.preserves_image) << " |\n";
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path << " unreadable";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void check_inventory_table(const std::string& path) {
  std::string text = read_file(path);
  const std::size_t b = text.find(kBegin);
  const std::size_t e = text.find(kEnd);
  ASSERT_NE(b, std::string::npos) << path << ": missing " << kBegin;
  ASSERT_NE(e, std::string::npos) << path << ": missing " << kEnd;
  ASSERT_LT(b, e) << path << ": inventory markers out of order";

  const std::string want =
      std::string(kBegin) + "\n" + expected_table() + kEnd;
  std::string got = text.substr(b, e + std::strlen(kEnd) - b);
  if (got != want && std::getenv("HWGC_REGEN_GOLDEN") != nullptr) {
    text = text.substr(0, b) + want + text.substr(e + std::strlen(kEnd));
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "failed to regenerate " << path;
    got = want;
  }
  EXPECT_EQ(got, want)
      << path << ": collector inventory table drifted from the code; "
      << "regenerate with HWGC_REGEN_GOLDEN=1 ./tests/test_collector_inventory";
}

void check_prose_counts(const std::string& path) {
  // Index 0 == "six": the inventory had six collectors before the guard
  // existed and number words below that never named the collector count.
  const char* words[] = {"six",  "seven", "eight",  "nine",
                         "ten",  "eleven", "twelve"};
  ASSERT_GE(kCollectorCount, 6u) << "extend the number-word table";
  ASSERT_LE(kCollectorCount, 12u) << "extend the number-word table";
  const std::string expect = words[kCollectorCount - 6];

  // Every "<number-word>[ -]collector" phrase, case-insensitively. A
  // hand scan rather than std::regex, whose libstdc++ internals trip
  // -Wmaybe-uninitialized in the sanitized -Werror build.
  std::string text = read_file(path);
  for (char& ch : text) ch = static_cast<char>(std::tolower(ch));
  for (const std::string word : words) {
    for (std::size_t at = text.find(word); at != std::string::npos;
         at = text.find(word, at + 1)) {
      const std::size_t sep = at + word.size();
      if (sep >= text.size() || (text[sep] != ' ' && text[sep] != '-') ||
          text.compare(sep + 1, 9, "collector") != 0) {
        continue;
      }
      EXPECT_EQ(word, expect)
          << path << ": stale collector count in phrase '"
          << text.substr(at, word.size() + 10) << "' — the enum has "
          << kCollectorCount << " collectors";
    }
  }
}

TEST(CollectorInventory, ReadmeTableMatchesTheCode) {
  check_inventory_table(std::string(HWGC_REPO_DIR) + "/README.md");
}

TEST(CollectorInventory, DesignTableMatchesTheCode) {
  check_inventory_table(std::string(HWGC_REPO_DIR) + "/DESIGN.md");
}

TEST(CollectorInventory, ReadmeProseCountsMatchTheEnum) {
  check_prose_counts(std::string(HWGC_REPO_DIR) + "/README.md");
}

TEST(CollectorInventory, DesignProseCountsMatchTheEnum) {
  check_prose_counts(std::string(HWGC_REPO_DIR) + "/DESIGN.md");
}

}  // namespace
}  // namespace hwgc
