// Tests for centaur-lint (tools/lint) against the fixture mini-repo in
// tools/lint/fixtures/: every rule fires on its fixture, suppressions are
// honored in both same-line and next-line form, the baseline is shrink-only
// in both directions, and the JSON/SARIF reporters emit well-formed output.
//
// CENTAUR_LINT_FIXTURES_DIR is injected by tests/CMakeLists.txt and points
// at the checked-in fixture tree (excluded from the real lint walk).
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "report.hpp"

namespace {

using namespace centaur::lint;

std::string fixtures_dir() { return CENTAUR_LINT_FIXTURES_DIR; }

LintOptions fixture_options() {
  LintOptions opts;
  opts.root = fixtures_dir() + "/repo";
  opts.contexts_path = fixtures_dir() + "/contexts.txt";
  // Baseline defaults to ROOT/tools/lint/baseline.txt, which does not exist
  // in the fixture repo -> empty baseline unless a test overrides it.
  return opts;
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool has_finding_at(const std::vector<Finding>& findings,
                    const std::string& rule, const std::string& file,
                    std::size_t line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file && f.line == line;
  });
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Minimal recursive-descent JSON well-formedness checker: enough to prove
// the reporters escape correctly and balance every bracket, without a JSON
// library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::string w = word;
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool members(char close, bool want_keys) {
    ++pos_;  // opening bracket
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (want_keys) {
        if (!string()) return false;
        skip_ws();
        if (peek() != ':') return false;
        ++pos_;
      }
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool value() {
    switch (peek()) {
      case '{': return members('}', true);
      case '[': return members(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_well_formed(const std::string& s) {
  return JsonChecker(s).valid();
}

// --------------------------------------------------------------- rules ---

TEST(LintRules, EveryRuleFiresOnItsFixture) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());

  EXPECT_EQ(result.stats.files, 6u);
  EXPECT_EQ(result.findings.size(), 10u);
  EXPECT_EQ(count_rule(result.findings, "D2"), 2u);
  EXPECT_EQ(count_rule(result.findings, "E1"), 1u);
  EXPECT_EQ(count_rule(result.findings, "R1"), 2u);
  EXPECT_EQ(count_rule(result.findings, "W1"), 2u);
  EXPECT_EQ(count_rule(result.findings, "O1"), 1u);
  EXPECT_EQ(count_rule(result.findings, "LINT"), 2u);
}

TEST(LintRules, SuppressionsCoverSameLineAndNextLine) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());

  // One suppressed finding per rule fixture (5 total; the LINT fixture's
  // broken directives suppress nothing).
  EXPECT_EQ(result.stats.suppressed, 5u);

  // Same-line form: printf on o1_bad.cpp:7 is suppressed, cout on line 6
  // still fires.
  EXPECT_TRUE(has_finding_at(result.findings, "O1", "src/o1_bad.cpp", 6));
  EXPECT_FALSE(has_finding_at(result.findings, "O1", "src/o1_bad.cpp", 7));

  // Next-line form: the raw env read on tools/e1_bad.cpp:8 is suppressed.
  EXPECT_TRUE(has_finding_at(result.findings, "E1", "tools/e1_bad.cpp", 4));
  EXPECT_FALSE(has_finding_at(result.findings, "E1", "tools/e1_bad.cpp", 8));
}

TEST(LintRules, BrokenDirectivesAreFindingsAndNotSuppressible) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());

  // Line 5: directive without a reason.  Line 8: unknown rule name.
  EXPECT_TRUE(
      has_finding_at(result.findings, "LINT", "tests/meta_bad.cpp", 5));
  EXPECT_TRUE(
      has_finding_at(result.findings, "LINT", "tests/meta_bad.cpp", 8));
}

// ------------------------------------------------------------ baseline ---

TEST(LintBaseline, ExactEntriesAbsorbFindings) {
  LintOptions opts = fixture_options();
  opts.paths = {"src/d2_bad.cpp"};
  opts.baseline_path = fixtures_dir() + "/baseline_match.txt";
  const LintResult result = run_lint(opts);
  ASSERT_TRUE(result.errors.empty());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.stats.baselined, 2u);
  EXPECT_EQ(result.stats.suppressed, 1u);
}

TEST(LintBaseline, UncoveredFindingStaysFresh) {
  LintOptions opts = fixture_options();
  opts.paths = {"src/d2_bad.cpp"};
  opts.baseline_path = fixtures_dir() + "/baseline_partial.txt";
  const LintResult result = run_lint(opts);
  ASSERT_TRUE(result.errors.empty());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "D2");
  EXPECT_EQ(result.findings[0].token, "unordered_map");
  EXPECT_EQ(result.stats.baselined, 1u);
}

TEST(LintBaseline, StaleEntryFailsTheGate) {
  LintOptions opts = fixture_options();
  opts.paths = {"src/d2_bad.cpp"};
  opts.baseline_path = fixtures_dir() + "/baseline_stale.txt";
  const LintResult result = run_lint(opts);
  ASSERT_TRUE(result.errors.empty());
  // The over-claiming entry still absorbs the one real finding, then fails
  // as a BASE finding against the baseline file itself.
  EXPECT_EQ(result.stats.baselined, 2u);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "BASE");
  EXPECT_TRUE(contains(result.findings[0].file, "baseline_stale.txt"));
  EXPECT_EQ(result.findings[0].token, "D2:src/d2_bad.cpp:unordered_map");
  EXPECT_TRUE(contains(result.findings[0].message, "may only shrink"));
}

TEST(LintBaseline, ParserRejectsMalformedEntries) {
  const Baseline b = parse_baseline(
      "# comment\n"
      "D2 src/x.cpp tok 0\n"     // count 0: delete instead
      "ZZ src/x.cpp tok 1\n"     // unknown rule
      "D2 onlytwo\n"             // missing fields
      "E1 src/y.cpp tok 3\n");
  EXPECT_EQ(b.errors.size(), 3u);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(b.entries[0].rule, "E1");
  EXPECT_EQ(b.entries[0].count, 3u);
}

// ------------------------------------------------------------ contexts ---

TEST(LintContexts, ParsesDeclarationsAndReportsErrors) {
  const RuleContexts ctx = parse_contexts(
      "# comment\n"
      "cursor Cursor\n"
      "cursor\n"                  // missing value
      "entry Node::on_message\n"  // unknown declaration kind
  );
  EXPECT_EQ(ctx.cursors.size(), 1u);
  EXPECT_EQ(ctx.errors.size(), 2u);
}

TEST(LintContexts, MissingContextsFileIsFatal) {
  LintOptions opts = fixture_options();
  opts.contexts_path = fixtures_dir() + "/does_not_exist.txt";
  const LintResult result = run_lint(opts);
  EXPECT_FALSE(result.errors.empty());
}

// ----------------------------------------------------------- file walk ---

TEST(LintWalk, CollectsFixtureRepoSortedAndDeduped) {
  std::vector<std::string> errors;
  const std::vector<std::string> files =
      collect_files(fixture_options(), &errors);
  EXPECT_TRUE(errors.empty());
  const std::vector<std::string> expected = {
      "src/d2_bad.cpp",          "src/o1_bad.cpp",
      "src/r1_bad.cpp",          "src/wire/decode_bad.cpp",
      "tests/meta_bad.cpp",      "tools/e1_bad.cpp",
  };
  EXPECT_EQ(files, expected);
}

// ----------------------------------------------------------- reporters ---

TEST(LintReport, JsonIsWellFormedAndEscaped) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());
  const std::string json = render_json(result.findings, result.stats);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_TRUE(contains(json, "\"tool\": \"centaur-lint\""));
  EXPECT_TRUE(contains(json, "\"rule_set_version\": 2"));
  EXPECT_TRUE(contains(json, "\"stats\": {\"files\": 6"));

  // Escaping: quotes, backslashes, and newlines in messages survive.
  Finding hostile;
  hostile.rule = "D2";
  hostile.file = "src/a.cpp";
  hostile.line = 1;
  hostile.col = 2;
  hostile.message = "say \"no\" to back\\slash\nand newline";
  hostile.token = "tok";
  const std::string escaped = render_json({hostile}, ReportStats{});
  EXPECT_TRUE(json_well_formed(escaped)) << escaped;
  EXPECT_TRUE(contains(escaped, "say \\\"no\\\" to back\\\\slash\\nand"));
}

TEST(LintReport, SarifIsWellFormedAndListsEveryRule) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());
  const std::string sarif = render_sarif(result.findings);
  EXPECT_TRUE(json_well_formed(sarif)) << sarif;
  EXPECT_TRUE(contains(sarif, "json.schemastore.org/sarif-2.1.0.json"));
  EXPECT_TRUE(contains(sarif, "\"version\": \"2.1.0\""));
  EXPECT_TRUE(contains(sarif, "\"physicalLocation\""));
  EXPECT_TRUE(contains(sarif, "\"startLine\""));
  for (const RuleDescription& r : rule_table()) {
    EXPECT_TRUE(contains(sarif, std::string("{\"id\": \"") + r.id + "\""))
        << r.id;
  }
  // One result per finding.
  std::size_t rule_ids = 0;
  for (std::size_t at = sarif.find("\"ruleId\""); at != std::string::npos;
       at = sarif.find("\"ruleId\"", at + 1)) {
    ++rule_ids;
  }
  EXPECT_EQ(rule_ids, result.findings.size());
}

TEST(LintReport, SarifWithNoFindingsIsStillValid) {
  const std::string sarif = render_sarif({});
  EXPECT_TRUE(json_well_formed(sarif)) << sarif;
  EXPECT_TRUE(contains(sarif, "\"results\": []"));
}

TEST(LintReport, TextSummaryCountsFindings) {
  const LintResult result = run_lint(fixture_options());
  ASSERT_TRUE(result.errors.empty());
  const std::string text = render_text(result.findings, result.stats);
  EXPECT_TRUE(
      contains(text, "centaur-lint: 6 file(s), 10 finding(s), 5 suppressed"));
}

}  // namespace
