#include "rules.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace centaur::lint {
namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_src(const std::string& path) { return starts_with(path, "src/"); }

bool e1_scope(const std::string& path) {
  if (path == "src/util/env.cpp") return false;  // the sanctioned accessor
  return in_src(path) || starts_with(path, "tools/") ||
         starts_with(path, "tests/");
}

bool in_wire(const std::string& path) {
  return starts_with(path, "src/wire/");
}

void add(std::vector<Finding>& out, const char* rule, const LexedFile& f,
         const Token& t, std::string message, std::string token = "") {
  out.push_back(Finding{rule, f.path, t.line, t.col, std::move(message),
                        token.empty() ? t.text : std::move(token)});
}

// ----------------------------------------------------------- D2 / E1 / R1 /
// O1: single-token rules over one file.

void run_token_rules(const LexedFile& f, std::vector<Finding>& out) {
  const bool src = in_src(f.path);
  const bool e1 = e1_scope(f.path);
  const std::vector<Token>& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kHeaderName && src) {
      if (t.text == "<unordered_map>" || t.text == "<unordered_set>") {
        add(out, "D2", f, t,
            "include of " + t.text +
                " in src/: use util::FlatMap or a sorted util::SmallVec "
                "(hash-iteration order is not deterministic across "
                "implementations)",
            t.text);
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    const std::string& s = t.text;
    const bool called = i + 1 < toks.size() &&
                        toks[i + 1].kind == TokKind::kPunct &&
                        toks[i + 1].text == "(";
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const bool member_access =
        prev != nullptr && prev->kind == TokKind::kPunct &&
        (prev->text == "." || prev->text == "->");

    if (src && (s == "unordered_map" || s == "unordered_set")) {
      add(out, "D2", f, t,
          "std::" + s +
              " in src/: use util::FlatMap or a sorted util::SmallVec");
    }
    if (e1 && (s == "getenv" || s == "secure_getenv")) {
      add(out, "E1", f, t,
          "raw " + s +
              " outside src/util/env.cpp: use the util/env strict parsers "
              "(env_size_t / env_flag_strict / env_string)");
    }
    if (src) {
      if (s == "random_device" || s == "system_clock") {
        add(out, "R1", f, t,
            "std::" + s +
                " in src/: the sim clock and util/rng are the only "
                "sanctioned time/entropy sources");
      } else if ((s == "rand" || s == "srand" || s == "gettimeofday" ||
                  s == "clock_gettime") &&
                 called && !member_access) {
        add(out, "R1", f, t,
            s + "() in src/: use util::Rng (deterministic, seedable)");
      } else if ((s == "time" || s == "clock") && called && !member_access) {
        // Allow `obj.time()` / `foo::time()`; flag `time(`, `std::time(`
        // and `::time(`.
        bool qualified_other = false;
        if (prev != nullptr && prev->kind == TokKind::kPunct &&
            prev->text == "::") {
          const Token* prev2 = i >= 2 ? &toks[i - 2] : nullptr;
          qualified_other = prev2 != nullptr &&
                            prev2->kind == TokKind::kIdent &&
                            prev2->text != "std";
        }
        if (!qualified_other) {
          add(out, "R1", f, t,
              s + "() in src/: wall-clock reads make results "
                  "irreproducible; use the sim clock");
        }
      }
      if (s == "printf" || s == "puts" || s == "putchar" || s == "cout") {
        add(out, "O1", f, t,
            (s == "cout" ? "std::cout" : s + "()") +
                std::string(" in library code: print through an explicit "
                            "std::ostream parameter or util/log"));
      }
    }
  }
}

// ------------------------------------------------------------------- W1 ---
// Raw byte-pointer reads in src/wire outside the sanctioned cursor API.

bool token_in_function(const FunctionInfo& fn, std::size_t idx) {
  return idx >= fn.body_begin && idx < fn.body_end;
}

bool sanctioned_cursor(const std::vector<FunctionInfo>& fns, std::size_t idx,
                       const RuleContexts& ctx) {
  for (const FunctionInfo& fn : fns) {
    if (!token_in_function(fn, idx)) continue;
    for (const std::string& pat : ctx.cursors) {
      if (matches_function_pattern(fn.qualified, pat)) return true;
    }
  }
  return false;
}

void run_w1(const LexedFile& f, const std::vector<FunctionInfo>& fns,
            const RuleContexts& ctx, std::vector<Finding>& out) {
  if (!in_wire(f.path)) return;
  const std::vector<Token>& toks = f.tokens;

  // Pass 1: collect identifiers declared as raw byte pointers anywhere in
  // the file — `[const] [std::] uint8_t * [*|const]* name`.  The
  // declaration site itself is remembered so `uint8_t** pos` in a parameter
  // list is never mistaken for a dereference.
  std::set<std::string> pointers;
  std::set<std::size_t> decl_sites;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "uint8_t" && toks[i].text != "byte")) {
      continue;
    }
    std::size_t j = i + 1;
    bool saw_star = false;
    while (j < toks.size() &&
           ((toks[j].kind == TokKind::kPunct && toks[j].text == "*") ||
            (toks[j].kind == TokKind::kIdent && toks[j].text == "const"))) {
      saw_star = saw_star || toks[j].text == "*";
      ++j;
    }
    if (saw_star && j < toks.size() && toks[j].kind == TokKind::kIdent) {
      pointers.insert(toks[j].text);
      decl_sites.insert(j);
    }
  }
  if (pointers.empty()) return;

  // Pass 2: flag reads/advances of those identifiers outside the cursor API.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || pointers.count(t.text) == 0 ||
        decl_sites.count(i) != 0) {
      continue;
    }
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const bool prev_deref =
        prev != nullptr && prev->kind == TokKind::kPunct && prev->text == "*" &&
        // `*p` is a dereference unless `*` follows something that makes it
        // a multiplication or a declarator (an identifier, number, or
        // closing bracket).
        !(i >= 2 && (toks[i - 2].kind == TokKind::kIdent ||
                     toks[i - 2].kind == TokKind::kNumber ||
                     (toks[i - 2].kind == TokKind::kPunct &&
                      (toks[i - 2].text == ")" || toks[i - 2].text == "]"))));
    const bool indexed = next != nullptr && next->kind == TokKind::kPunct &&
                         next->text == "[";
    const bool advanced =
        (next != nullptr && next->kind == TokKind::kPunct &&
         (next->text == "++" || next->text == "--" || next->text == "+=")) ||
        (prev != nullptr && prev->kind == TokKind::kPunct &&
         (prev->text == "++" || prev->text == "--"));
    if (!(prev_deref || indexed || advanced)) continue;
    if (sanctioned_cursor(fns, i, ctx)) continue;
    add(out, "W1", f, t,
        "raw byte-pointer read of '" + t.text +
            "' in a src/wire decode path: go through the bounds-checked "
            "cursor API (wire::Cursor / get_varint)");
  }
}

}  // namespace

RuleContexts parse_contexts(const std::string& text) {
  RuleContexts ctx;
  std::istringstream in(text);
  std::string line_text;
  std::size_t line_no = 0;
  while (std::getline(in, line_text)) {
    ++line_no;
    std::istringstream ls(line_text);
    std::string kind, value;
    if (!(ls >> kind) || kind[0] == '#') continue;
    if (!(ls >> value)) {
      ctx.errors.push_back("line " + std::to_string(line_no) +
                           ": missing value after '" + kind + "'");
      continue;
    }
    if (kind == "cursor") {
      ctx.cursors.push_back(value);
    } else {
      ctx.errors.push_back("line " + std::to_string(line_no) +
                           ": unknown declaration '" + kind +
                           "' (want cursor)");
    }
  }
  return ctx;
}

const std::vector<RuleDescription>& rule_table() {
  static const std::vector<RuleDescription> kRules = {
      {"D2", "no std::unordered_map/unordered_set in src/"},
      {"E1", "no raw getenv outside src/util/env.cpp"},
      {"R1", "no rand()/random_device/time()/system_clock in src/"},
      {"W1", "no raw byte-pointer reads in src/wire outside the cursor API"},
      {"O1", "no printf/std::cout in library code"},
      {"LINT", "malformed or unknown centaur-lint directives"},
  };
  return kRules;
}

bool is_known_rule(const std::string& id) {
  for (const RuleDescription& r : rule_table()) {
    if (id == r.id) return true;
  }
  return false;
}

std::vector<Finding> run_rules(const std::vector<LexedFile>& files,
                               const RuleContexts& contexts) {
  std::vector<Finding> out;
  std::vector<std::vector<FunctionInfo>> fns;
  fns.reserve(files.size());
  for (const LexedFile& f : files) fns.push_back(extract_functions(f));

  for (std::size_t i = 0; i < files.size(); ++i) {
    const LexedFile& f = files[i];
    run_token_rules(f, out);
    run_w1(f, fns[i], contexts, out);
    for (const auto& [line, msg] : f.directive_errors) {
      out.push_back(Finding{"LINT", f.path, line, 1, msg, "directive"});
    }
    for (const Suppression& s : f.suppressions) {
      for (const std::string& r : s.rules) {
        if (!is_known_rule(r)) {
          out.push_back(Finding{"LINT", f.path, s.line, 1,
                                "allow() names unknown rule '" + r + "'",
                                "unknown-rule"});
        }
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });
  return out;
}

}  // namespace centaur::lint
