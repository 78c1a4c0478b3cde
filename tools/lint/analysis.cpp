#include "analysis.hpp"

#include <array>
#include <unordered_set>

namespace centaur::lint {
namespace {

const std::unordered_set<std::string>& keywords() {
  static const std::unordered_set<std::string> kw = {
      "if",       "for",        "while",    "switch",   "catch",
      "return",   "sizeof",     "alignof",  "decltype", "noexcept",
      "static_assert",          "new",      "delete",   "throw",
      "case",     "do",         "else",     "goto",     "default",
      "and",      "or",         "not",      "assert",   "typeid",
      "static_cast",            "dynamic_cast",         "const_cast",
      "reinterpret_cast",       "requires", "co_await", "co_return",
      "co_yield",
  };
  return kw;
}

bool is_type_intro(const std::string& s) {
  return s == "class" || s == "struct" || s == "union" || s == "enum";
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kOther } kind;
  std::string name;  // empty for anonymous
};

struct Extractor {
  const LexedFile& file;
  const std::vector<Token>& toks;
  std::vector<FunctionInfo> out;
  std::vector<Scope> scopes;

  explicit Extractor(const LexedFile& f) : file(f), toks(f.tokens) {}

  bool is(std::size_t i, TokKind k, const char* text = nullptr) const {
    return i < toks.size() && toks[i].kind == k &&
           (text == nullptr || toks[i].text == text);
  }

  bool punct(std::size_t i, const char* text) const {
    return is(i, TokKind::kPunct, text);
  }

  /// Index just past the matching closer for the opener at `i`.
  std::size_t skip_balanced(std::size_t i, const char* open,
                            const char* close) const {
    std::size_t depth = 0;
    for (; i < toks.size(); ++i) {
      if (punct(i, open)) ++depth;
      else if (punct(i, close) && --depth == 0) return i + 1;
    }
    return i;
  }

  std::string scope_prefix() const {
    std::string q;
    for (const Scope& s : scopes) {
      if ((s.kind == Scope::kNamespace || s.kind == Scope::kClass) &&
          !s.name.empty()) {
        q += s.name;
        q += "::";
      }
    }
    return q;
  }

  /// Records a function whose body starts at the `{` at index `open`.
  /// Returns the index just past the matching `}`.
  std::size_t consume_body(std::size_t open, FunctionInfo fn) {
    const std::size_t end = skip_balanced(open, "{", "}");
    fn.body_begin = open + 1;
    fn.body_end = end > 0 ? end - 1 : end;  // index of the closing '}'
    out.push_back(std::move(fn));
    return end;
  }

  /// At declaration scope, tries to read a function definition starting at
  /// token `i`.  On success consumes through the body and returns the index
  /// past it; otherwise returns `i` (caller advances by one).
  std::size_t try_function(std::size_t i) {
    // Qualified-id: Ident (template-args)? (:: Ident (template-args)?)*
    // then '('.  `operator` may be followed by punctuation.
    std::size_t j = i;
    std::string last;
    std::string qual;
    while (true) {
      if (!is(j, TokKind::kIdent)) return i;
      last = toks[j].text;
      if (keywords().count(last) != 0) return i;
      ++j;
      if (last == "operator") {
        // operator name: consume punct tokens up to the parameter '('.
        // `operator()` is two extra tokens; `operator<` one.
        if (punct(j, "(") && punct(j + 1, ")")) {
          last = "operator()";
          j += 2;
        } else {
          while (j < toks.size() && toks[j].kind == TokKind::kPunct &&
                 toks[j].text != "(") {
            last += toks[j].text;
            ++j;
          }
        }
        break;
      }
      if (punct(j, "<")) {
        // Template arguments in a qualified name (rare at def site); skip
        // conservatively to the matching '>'.
        std::size_t depth = 0;
        std::size_t k = j;
        for (; k < toks.size(); ++k) {
          if (punct(k, "<")) ++depth;
          else if (punct(k, ">") && --depth == 0) { ++k; break; }
          else if (punct(k, "{") || punct(k, ";")) return i;
        }
        j = k;
      }
      if (punct(j, "::") && is(j + 1, TokKind::kIdent)) {
        qual += last;
        qual += "::";
        ++j;
        continue;
      }
      break;
    }
    if (!punct(j, "(")) return i;
    const std::size_t after_params = skip_balanced(j, "(", ")");
    if (after_params >= toks.size()) return i;

    // Scan past cv-qualifiers, ref-qualifiers, noexcept(...), trailing
    // return, and constructor init lists, to the body '{' — or bail at
    // ';' / '=' (declaration, = default, = delete, assignment).
    std::size_t k = after_params;
    bool in_init_list = false;
    while (k < toks.size()) {
      if (punct(k, ";") || punct(k, "=")) return i;
      if (punct(k, "(")) {
        k = skip_balanced(k, "(", ")");
        continue;
      }
      if (punct(k, ":")) {
        in_init_list = true;
        ++k;
        continue;
      }
      if (punct(k, "{")) {
        // In an init list, `member{...}` braces follow an identifier or a
        // closing '>'; the body '{' follows ')', '}' or the ':' handling.
        if (in_init_list && k > 0 &&
            (toks[k - 1].kind == TokKind::kIdent || punct(k - 1, ">"))) {
          k = skip_balanced(k, "{", "}");
          continue;
        }
        FunctionInfo fn;
        fn.qualified = scope_prefix() + qual + last;
        fn.file = file.path;
        fn.line = toks[i].line;
        return consume_body(k, std::move(fn));
      }
      ++k;
    }
    return i;
  }

  void run() {
    std::size_t i = 0;
    while (i < toks.size()) {
      const Token& t = toks[i];
      if (punct(i, "{")) {
        scopes.push_back(Scope{Scope::kOther, ""});
        ++i;
        continue;
      }
      if (punct(i, "}")) {
        if (!scopes.empty()) scopes.pop_back();
        ++i;
        continue;
      }
      if (t.kind == TokKind::kIdent && t.text == "namespace") {
        std::size_t j = i + 1;
        std::string name;
        while (is(j, TokKind::kIdent)) {
          if (!name.empty()) name += "::";
          name += toks[j].text;
          ++j;
          if (punct(j, "::")) ++j;
          else break;
        }
        if (punct(j, "{")) {
          scopes.push_back(Scope{Scope::kNamespace, name});
          i = j + 1;
          continue;
        }
        i = j;
        continue;
      }
      if (t.kind == TokKind::kIdent && is_type_intro(t.text)) {
        // class/struct NAME ... { starts a class scope; `enum` and
        // forward declarations / variable declarations do not.
        const bool is_enum = t.text == "enum";
        std::size_t j = i + 1;
        while (is(j, TokKind::kIdent) &&
               (toks[j].text == "alignas" || toks[j].text == "final")) {
          ++j;
        }
        std::string name;
        if (is(j, TokKind::kIdent)) {
          name = toks[j].text;
          ++j;
          if (punct(j, "<")) {  // explicit specialization
            std::size_t depth = 0;
            for (; j < toks.size(); ++j) {
              if (punct(j, "<")) ++depth;
              else if (punct(j, ">") && --depth == 0) { ++j; break; }
              else if (punct(j, "{") || punct(j, ";")) break;
            }
          }
        }
        if (is(j, TokKind::kIdent, "final")) ++j;
        if (punct(j, ":")) {  // base clause: scan to '{' or ';'
          while (j < toks.size() && !punct(j, "{") && !punct(j, ";")) ++j;
        }
        if (punct(j, "{")) {
          scopes.push_back(
              Scope{is_enum ? Scope::kOther : Scope::kClass, name});
          i = j + 1;
          continue;
        }
        i = j;  // forward declaration or variable; keep scanning
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        const std::size_t next = try_function(i);
        if (next != i) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }
};

}  // namespace

std::vector<FunctionInfo> extract_functions(const LexedFile& file) {
  Extractor ex(file);
  ex.run();
  return ex.out;
}

bool matches_function_pattern(const std::string& qualified,
                              const std::string& pattern) {
  if (pattern.empty()) return false;
  if (qualified == pattern) return true;
  // Suffix match on a :: boundary.
  if (qualified.size() > pattern.size() + 2 &&
      qualified.compare(qualified.size() - pattern.size(), pattern.size(),
                        pattern) == 0 &&
      qualified.compare(qualified.size() - pattern.size() - 2, 2, "::") == 0) {
    return true;
  }
  // Bare class-name pattern: any member of the class.
  if (pattern.find("::") == std::string::npos) {
    const std::string needle = pattern + "::";
    const std::size_t at = qualified.find(needle);
    if (at != std::string::npos &&
        (at == 0 || (at >= 2 && qualified.compare(at - 2, 2, "::") == 0))) {
      return true;
    }
  }
  return false;
}

}  // namespace centaur::lint
