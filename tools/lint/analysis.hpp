// Heuristic function extraction.
//
// Rule W1 ("no raw byte-pointer reads outside the cursor API") needs to
// know which function each token lives in.  A full C++ parse is out of scope
// for a dependency-free linter, so this pass recovers just enough structure
// from the token stream:
//
//   * function definitions — a (possibly qualified) identifier followed by a
//     balanced parameter list and a `{` body, found at namespace/class
//     scope; constructors with init lists are handled, lambdas are treated
//     as part of their enclosing function's body;
//   * the qualified name — enclosing class/namespace names joined with
//     `::`, so `Network::send` and an inline `Cursor::u8` both resolve.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace centaur::lint {

struct FunctionInfo {
  std::string qualified;  ///< e.g. "Network::send", "anon::helper" -> "helper"
  std::string file;
  std::size_t line = 0;
  /// Token index range of the body, braces excluded: [body_begin, body_end).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// Extracts function definitions from a lexed file.
std::vector<FunctionInfo> extract_functions(const LexedFile& file);

/// True if `qualified` matches a contexts.txt function pattern: exact match,
/// suffix match on a `::` boundary ("Network::send" matches
/// "centaur::sim::Network::send"), or — for a bare class name pattern like
/// "Cursor" — any member of that class.
bool matches_function_pattern(const std::string& qualified,
                              const std::string& pattern);

}  // namespace centaur::lint
