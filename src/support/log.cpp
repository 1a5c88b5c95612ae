#include "support/log.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace pacga::support {

namespace {
/// -1 = not yet resolved from the environment; resolve_level() settles it
/// exactly once (first-wins CAS; the race is benign — both sides parse
/// the same environment).
std::atomic<int> g_level{-1};
std::mutex g_mutex;

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

int resolve_level() {
  int l = g_level.load(std::memory_order_relaxed);
  if (l >= 0) return l;
  // Unset or unparseable: OFF. A daemon on a pipe must stay silent unless
  // the operator asked for diagnostics.
  LogLevel parsed = LogLevel::kOff;
  if (const char* env = std::getenv("PACGA_LOG_LEVEL")) {
    (void)parse_log_level(env, parsed);
  }
  int expected = -1;
  g_level.compare_exchange_strong(expected, static_cast<int>(parsed),
                                  std::memory_order_relaxed);
  return g_level.load(std::memory_order_relaxed);
}
}  // namespace

bool parse_log_level(const std::string& name, LogLevel& out) noexcept {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "debug") out = LogLevel::kDebug;
  else if (lower == "info") out = LogLevel::kInfo;
  else if (lower == "warn" || lower == "warning") out = LogLevel::kWarn;
  else if (lower == "error") out = LogLevel::kError;
  else if (lower == "off" || lower == "none") out = LogLevel::kOff;
  else return false;
  return true;
}

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < resolve_level()) return;
  std::lock_guard<std::mutex> lk(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace pacga::support
