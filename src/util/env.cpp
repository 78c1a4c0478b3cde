#include "util/env.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>

#include "util/log.hpp"

namespace centaur::util {

std::optional<long long> parse_int_strict(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t i = 0;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i >= text.size()) return std::nullopt;
  long long value = 0;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    const int digit = c - '0';
    if (value > (kMax - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return negative ? -value : value;
}

namespace {

std::mutex& warn_mutex() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& warned_keys() {
  static std::set<std::string> keys;
  return keys;
}

}  // namespace

bool warn_once(const std::string& key, const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(warn_mutex());
    if (!warned_keys().insert(key).second) return false;
  }
  log_line(LogLevel::kWarn, message);
  return true;
}

void reset_warn_once_for_testing() {
  const std::lock_guard<std::mutex> lock(warn_mutex());
  warned_keys().clear();
}

std::size_t env_size_t(const char* name, std::size_t fallback,
                       std::size_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::optional<long long> parsed = parse_int_strict(raw);
  if (!parsed) {
    warn_once(name, std::string(name) + "='" + raw +
                        "' is not an integer; using default");
    return fallback;
  }
  if (*parsed < static_cast<long long>(min_value)) {
    warn_once(name, std::string(name) + "='" + raw + "' clamped to " +
                        std::to_string(min_value));
    return min_value;
  }
  return static_cast<std::size_t>(*parsed);
}

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

bool env_flag_strict(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string v(raw);
  if (v.empty() || v == "0" || v == "off" || v == "false" || v == "no") {
    return false;
  }
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  warn_once(name, std::string(name) + "='" + v +
                      "' is not a recognised boolean (0/off/false/no or "
                      "1/on/true/yes); using default");
  return fallback;
}

}  // namespace centaur::util
