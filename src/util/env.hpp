// Strict environment-variable parsing, shared by every CENTAUR_* knob.
//
// The seed parsed env values ad hoc (std::stoul for CENTAUR_THREADS, "any
// unknown string is truthy" for boolean knobs, silent fallback for
// CENTAUR_SCALE), so a typo like CENTAUR_THREADS=4x or CENTAUR_SCALE=smok
// silently changed behavior.  These helpers reject garbage instead: a value
// that does not parse (or an enum spelling that is not recognised) falls
// back to the caller's default and warns once per variable per process, so
// a misconfigured CI job is visible in its log instead of silently serial
// or silently at the wrong scale.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace centaur::util {

/// Strict base-10 integer parse of the *entire* string: optional sign,
/// digits, nothing else (no leading/trailing junk, no empty string).
/// Returns nullopt on anything else, including overflow.
std::optional<long long> parse_int_strict(const std::string& text);

/// Emits one kWarn log line per distinct `key` per process (thread-safe);
/// repeat calls with the same key are dropped.  Returns true if the message
/// was emitted (tests use this to observe the once-semantics).
bool warn_once(const std::string& key, const std::string& message);

/// Testing hook: forgets every warn_once key so a test can re-trigger
/// warnings deterministically.
void reset_warn_once_for_testing();

/// Integer env knob: unset -> fallback; non-numeric -> warn once, fallback;
/// numeric but < min_value -> warn once, clamp to min_value.
std::size_t env_size_t(const char* name, std::size_t fallback,
                       std::size_t min_value = 1);

/// Boolean env knob: unset -> fallback; "", "0", "off", "false", "no" ->
/// false; "1", "on", "true", "yes" -> true; anything else -> warn once,
/// fallback.  (The seed treated every unrecognised string as true.)
bool env_flag_strict(const char* name, bool fallback);

/// Raw string accessor: the ONLY sanctioned way to read an env var whose
/// value is a free-form string (a file path, a report destination).  Unset
/// -> nullopt; a set-but-empty variable returns "" and the caller decides.
/// Centralising the getenv call here is what lets centaur-lint rule E1
/// forbid getenv everywhere else.
std::optional<std::string> env_string(const char* name);

}  // namespace centaur::util
