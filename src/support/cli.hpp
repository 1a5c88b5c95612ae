// Tiny declarative command-line parser for the bench/example binaries.
//
// Every bench binary must run with sensible scaled-down defaults under
// `for b in build/bench/*; do $b; done`, while still exposing the full
// paper-scale campaign behind flags (--full, --wall-ms, --runs, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pacga::support {

/// Declarative flag registry: register typed options bound to variables,
/// then parse(argc, argv). Supports `--name value`, `--name=value` and
/// boolean `--name`. Unknown flags raise a usage error; `--help` prints
/// the registered options and returns false from parse().
class Cli {
 public:
  explicit Cli(std::string program_description);

  Cli& flag(const std::string& name, bool* target, const std::string& help);
  Cli& option(const std::string& name, int* target, const std::string& help);
  Cli& option(const std::string& name, std::size_t* target,
              const std::string& help);
  Cli& option(const std::string& name, double* target, const std::string& help);
  Cli& option(const std::string& name, std::string* target,
              const std::string& help);
  /// String option restricted to a fixed set of choices (e.g. the service
  /// daemon's --policy auto|minmin|sufferage|cga). A value outside
  /// `allowed` raises a usage error listing the valid choices; `*target`'s
  /// initial value is the default and should be one of them.
  Cli& option(const std::string& name, std::string* target,
              std::vector<std::string> allowed, const std::string& help);

  /// Parses argv. Returns false if --help was requested (help already
  /// printed) — callers should exit 0. Throws std::runtime_error on
  /// malformed input.
  bool parse(int argc, char** argv);

  /// Renders the option summary (also used by --help).
  std::string usage() const;

 private:
  struct Opt {
    std::string help;
    bool is_flag = false;
    std::function<void(const std::string&)> apply;
    std::string default_repr;
  };

  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Opt> opts_;
};

}  // namespace pacga::support
