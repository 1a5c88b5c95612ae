#include "support/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace pacga::support {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

namespace {

template <typename T>
T parse_number(const std::string& name, const std::string& value);

template <>
int parse_number<int>(const std::string& name, const std::string& value) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("invalid integer for --" + name + ": " + value);
  }
}

template <>
std::int64_t parse_number<std::int64_t>(const std::string& name,
                                        const std::string& value) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("invalid integer for --" + name + ": " + value);
  }
}

template <>
std::size_t parse_number<std::size_t>(const std::string& name,
                                      const std::string& value) {
  const std::int64_t v = parse_number<std::int64_t>(name, value);
  if (v < 0) throw std::runtime_error("negative value for --" + name);
  return static_cast<std::size_t>(v);
}

template <>
double parse_number<double>(const std::string& name, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("invalid number for --" + name + ": " + value);
  }
}

}  // namespace

Cli& Cli::flag(const std::string& name, bool* target, const std::string& help) {
  Opt o;
  o.help = help;
  o.is_flag = true;
  o.default_repr = *target ? "true" : "false";
  o.apply = [target](const std::string&) { *target = true; };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

Cli& Cli::option(const std::string& name, int* target, const std::string& help) {
  Opt o;
  o.help = help;
  o.default_repr = std::to_string(*target);
  o.apply = [name, target](const std::string& v) {
    *target = parse_number<int>(name, v);
  };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

Cli& Cli::option(const std::string& name, std::size_t* target,
                 const std::string& help) {
  Opt o;
  o.help = help;
  o.default_repr = std::to_string(*target);
  o.apply = [name, target](const std::string& v) {
    *target = parse_number<std::size_t>(name, v);
  };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

Cli& Cli::option(const std::string& name, double* target,
                 const std::string& help) {
  Opt o;
  o.help = help;
  o.default_repr = std::to_string(*target);
  o.apply = [name, target](const std::string& v) {
    *target = parse_number<double>(name, v);
  };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

Cli& Cli::option(const std::string& name, std::string* target,
                 const std::string& help) {
  Opt o;
  o.help = help;
  o.default_repr = *target;
  o.apply = [target](const std::string& v) { *target = v; };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

Cli& Cli::option(const std::string& name, std::string* target,
                 std::vector<std::string> allowed, const std::string& help) {
  std::string choices;
  for (const auto& c : allowed) {
    if (!choices.empty()) choices += "|";
    choices += c;
  }
  Opt o;
  o.help = help + " [" + choices + "]";
  o.default_repr = *target;
  o.apply = [name, target, allowed = std::move(allowed),
             choices](const std::string& v) {
    for (const auto& c : allowed) {
      if (v == c) {
        *target = v;
        return;
      }
    }
    throw std::runtime_error("invalid choice for --" + name + ": '" + v +
                             "' (expected one of " + choices + ")");
  };
  order_.push_back(name);
  opts_[name] = std::move(o);
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = opts_.find(arg);
    if (it == opts_.end()) {
      throw std::runtime_error("unknown option --" + arg + "\n" + usage());
    }
    if (it->second.is_flag) {
      if (has_value) throw std::runtime_error("flag --" + arg + " takes no value");
      it->second.apply("");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc)
        throw std::runtime_error("missing value for --" + arg);
      value = argv[++i];
    }
    it->second.apply(value);
  }
  return true;
}

std::string Cli::usage() const {
  std::ostringstream out;
  out << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Opt& o = opts_.at(name);
    out << "  --" << name;
    if (!o.is_flag) out << " <value>";
    out << "\n      " << o.help;
    if (!o.default_repr.empty()) out << " (default: " << o.default_repr << ")";
    out << "\n";
  }
  out << "  --help\n      print this message\n";
  return out.str();
}

}  // namespace pacga::support
