#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace centaur::lint {
namespace {

namespace fs = std::filesystem;

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx";
}

std::string to_repo_relative(const fs::path& abs, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(abs, root, ec);
  if (ec || rel.empty()) rel = abs;
  return rel.generic_string();
}

/// Directories never walked: build trees, VCS metadata, and the lint
/// fixture trees (they contain deliberate violations exercised by tests).
bool is_skipped_dir(const fs::path& rel) {
  const std::string s = rel.generic_string();
  if (s == "tools/lint/fixtures") return true;
  const std::string name = rel.filename().string();
  return name == ".git" || name == "build" || name.rfind("build-", 0) == 0 ||
         name == "CMakeFiles";
}

void walk_dir(const fs::path& dir, const fs::path& root,
              std::vector<std::string>* out,
              std::vector<std::string>* errors) {
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec), end;
  if (ec) {
    errors->push_back("cannot walk " + dir.generic_string() + ": " +
                      ec.message());
    return;
  }
  for (; it != end; it.increment(ec)) {
    if (ec) {
      errors->push_back("walk error under " + dir.generic_string() + ": " +
                        ec.message());
      return;
    }
    const fs::path rel = fs::relative(it->path(), root, ec);
    if (it->is_directory() && is_skipped_dir(rel)) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && has_source_extension(it->path())) {
      out->push_back(rel.generic_string());
    }
  }
}

bool read_file(const fs::path& p, std::string* out, std::string* err) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *err = "cannot read " + p.generic_string();
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// True when `sup` covers `line` (same line, or the directive is alone on
/// its line and covers the next one).
bool covers_line(const Suppression& sup, std::size_t line) {
  if (sup.line == line) return true;
  return sup.own_line && sup.line + 1 == line;
}

bool rule_listed(const Suppression& sup, const std::string& rule) {
  return std::find(sup.rules.begin(), sup.rules.end(), rule) !=
         sup.rules.end();
}

}  // namespace

std::vector<std::string> collect_files(const LintOptions& opts,
                                       std::vector<std::string>* errors) {
  const fs::path root = fs::path(opts.root);
  std::vector<std::string> files;
  if (opts.paths.empty()) {
    for (const char* sub : {"src", "tools", "tests"}) {
      const fs::path dir = root / sub;
      std::error_code ec;
      if (fs::is_directory(dir, ec)) walk_dir(dir, root, &files, errors);
    }
  } else {
    for (const std::string& p : opts.paths) {
      fs::path abs = fs::path(p);
      if (abs.is_relative()) abs = root / abs;
      std::error_code ec;
      if (fs::is_directory(abs, ec)) {
        walk_dir(abs, root, &files, errors);
      } else if (fs::is_regular_file(abs, ec)) {
        files.push_back(to_repo_relative(abs, root));
      } else {
        errors->push_back("no such file or directory: " + p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

LintResult run_lint(const LintOptions& opts) {
  LintResult result;
  const fs::path root = fs::path(opts.root);

  const std::vector<std::string> files = collect_files(opts, &result.errors);
  result.stats.files = files.size();

  // Contexts are required: W1 is meaningless without its declared cursor
  // functions.
  const fs::path contexts_path =
      opts.contexts_path.empty() ? root / "tools" / "lint" / "contexts.txt"
                                 : fs::path(opts.contexts_path);
  std::string contexts_text, err;
  if (!read_file(contexts_path, &contexts_text, &err)) {
    result.errors.push_back(err);
  }
  const RuleContexts contexts = parse_contexts(contexts_text);
  for (const std::string& e : contexts.errors) {
    result.errors.push_back(contexts_path.generic_string() + ": " + e);
  }

  // The baseline is optional (no file -> empty baseline).
  const fs::path baseline_path =
      opts.baseline_path.empty() ? root / "tools" / "lint" / "baseline.txt"
                                 : fs::path(opts.baseline_path);
  std::string baseline_text;
  std::error_code ec;
  if (fs::exists(baseline_path, ec)) {
    if (!read_file(baseline_path, &baseline_text, &err)) {
      result.errors.push_back(err);
    }
  }
  const Baseline baseline = parse_baseline(baseline_text);
  for (const std::string& e : baseline.errors) {
    result.errors.push_back(baseline_path.generic_string() + ": " + e);
  }

  if (!result.errors.empty()) return result;

  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const std::string& rel : files) {
    std::string text;
    if (!read_file(root / rel, &text, &err)) {
      result.errors.push_back(err);
      continue;
    }
    lexed.push_back(lex_file_text(rel, text));
  }
  if (!result.errors.empty()) return result;

  std::vector<Finding> raw = run_rules(lexed, contexts);

  // Inline suppressions.  LINT findings (malformed directives) are not
  // themselves suppressible — a broken directive can't vouch for itself.
  std::vector<Finding> unsuppressed;
  for (Finding& f : raw) {
    bool suppressed = false;
    if (f.rule != "LINT") {
      for (const LexedFile& lf : lexed) {
        if (lf.path != f.file) continue;
        for (const Suppression& sup : lf.suppressions) {
          if (covers_line(sup, f.line) && rule_listed(sup, f.rule)) {
            suppressed = true;
            break;
          }
        }
        break;
      }
    }
    if (suppressed) {
      ++result.stats.suppressed;
    } else {
      unsuppressed.push_back(std::move(f));
    }
  }

  BaselineOutcome outcome = apply_baseline(
      unsuppressed, baseline, to_repo_relative(baseline_path, root));
  result.stats.baselined = outcome.baselined;
  result.findings = std::move(outcome.fresh);
  result.findings.insert(result.findings.end(), outcome.stale.begin(),
                         outcome.stale.end());
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });
  return result;
}

}  // namespace centaur::lint
