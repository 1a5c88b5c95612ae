// Minimal leveled logger for the harness binaries. Not used on algorithm
// hot paths (the engines report through typed Stats structs instead).
//
// The threshold comes from the PACGA_LOG_LEVEL environment variable
// (debug|info|warn|error|off, case-insensitive), resolved lazily on the
// first log call; unset or unparseable means OFF — a daemon driven over a
// pipe must not mix diagnostics into anyone's stderr unless asked.
#pragma once

#include <sstream>
#include <string>

namespace pacga::support {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Parses the PACGA_LOG_LEVEL spelling (debug|info|warn|error|off,
/// case-insensitive). False (and `out` untouched) on anything else.
bool parse_log_level(const std::string& name, LogLevel& out) noexcept;

/// Emits one line `[LEVEL] message` to stderr when `level` reaches the
/// threshold (atomic w.r.t. other log calls through an internal mutex).
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, stream_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }

}  // namespace pacga::support
