// Rule definitions and the rule engine (rule-set version 2).
//
// Rules enforced, with path scopes (paths are repo-relative):
//
//   D2  no unordered containers                      src/
//       std::unordered_map / std::unordered_set leak hash-iteration order
//       into results; use util::FlatMap or a sorted util::SmallVec.
//   E1  env hygiene                                  src/ tools/ tests/
//       No raw getenv outside src/util/env.cpp; use the util/env strict
//       parsers (env_size_t, env_flag_strict, env_string).
//   R1  sanctioned randomness & time only            src/
//       No rand()/srand()/std::random_device, no time()/clock()/
//       gettimeofday()/std::chrono::system_clock: the sim clock and
//       util/rng are the only entropy/time sources protocol results may
//       depend on (steady_clock is permitted for wall-time *measurement*).
//   W1  decode safety                                src/wire/
//       No raw byte-pointer reads (deref, indexing, advance) outside the
//       bounds-checked cursor API (declared with `cursor` in
//       contexts.txt).
//   O1  no stdout printing in library code           src/
//       No printf/puts/putchar/std::cout; library diagnostics go through
//       util/log (stderr), reports through explicit streams.
//
//   LINT (meta) malformed suppression directives, unknown rule names.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "lexer.hpp"

namespace centaur::lint {

inline constexpr int kRuleSetVersion = 2;

struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string message;
  /// Stable fingerprint component for baseline matching (typically the
  /// offending token), independent of line numbers.
  std::string token;
};

/// Parsed contexts.txt: the checked-in declarations rule W1 runs against.
struct RuleContexts {
  std::vector<std::string> cursors;   ///< W1 sanctioned cursor functions
  std::vector<std::string> errors;    ///< parse problems, "line N: ..."
};

RuleContexts parse_contexts(const std::string& text);

struct RuleDescription {
  const char* id;
  const char* summary;
};

/// The versioned rule table (for --list-rules and the SARIF tool object).
const std::vector<RuleDescription>& rule_table();

bool is_known_rule(const std::string& id);

/// Runs every rule over the lexed files and returns raw findings —
/// suppressions and baseline are applied by the driver, not here.
std::vector<Finding> run_rules(const std::vector<LexedFile>& files,
                               const RuleContexts& contexts);

}  // namespace centaur::lint
