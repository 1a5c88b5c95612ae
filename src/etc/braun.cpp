#include "etc/braun.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/rng.hpp"

namespace pacga::etc {

double task_range(Heterogeneity h) noexcept {
  return h == Heterogeneity::kHigh ? 3000.0 : 100.0;
}

double machine_range(Heterogeneity h) noexcept {
  return h == Heterogeneity::kHigh ? 1000.0 : 10.0;
}

std::optional<GenSpec> parse_instance_name(const std::string& name) {
  // Format: u_<c|s|i>_<hi|lo><hi|lo>.<k>
  if (name.size() < 10 || name.rfind("u_", 0) != 0) return std::nullopt;
  GenSpec spec;
  switch (name[2]) {
    case 'c': spec.consistency = Consistency::kConsistent; break;
    case 's': spec.consistency = Consistency::kSemiConsistent; break;
    case 'i': spec.consistency = Consistency::kInconsistent; break;
    default: return std::nullopt;
  }
  if (name[3] != '_') return std::nullopt;
  const std::string het = name.substr(4, 4);
  if (het.size() != 4) return std::nullopt;
  const std::string th = het.substr(0, 2);
  const std::string mh = het.substr(2, 2);
  if (th == "hi") spec.task_het = Heterogeneity::kHigh;
  else if (th == "lo") spec.task_het = Heterogeneity::kLow;
  else return std::nullopt;
  if (mh == "hi") spec.machine_het = Heterogeneity::kHigh;
  else if (mh == "lo") spec.machine_het = Heterogeneity::kLow;
  else return std::nullopt;
  if (name[8] != '.') return std::nullopt;
  for (std::size_t i = 9; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
  }
  spec.seed = support::seed_from_string(name.c_str());
  return spec;
}

double cv_of(Heterogeneity h) noexcept {
  return h == Heterogeneity::kHigh ? 0.6 : 0.1;
}

EtcMatrix generate(const GenSpec& spec) {
  if (spec.tasks == 0 || spec.machines == 0)
    throw std::invalid_argument("generate: empty dimensions");
  if (spec.cvb_mean_task <= 0.0)
    throw std::invalid_argument("generate: non-positive CVB mean");
  if (spec.ready_fraction < 0.0)
    throw std::invalid_argument("generate: negative ready fraction");
  support::Xoshiro256 rng(spec.seed);

  std::vector<double> data(spec.tasks * spec.machines);
  if (spec.method == GenMethod::kRangeBased) {
    const double r_task = task_range(spec.task_het);
    const double r_mach = machine_range(spec.machine_het);
    for (std::size_t t = 0; t < spec.tasks; ++t) {
      // One task-weight draw per row, scaled per machine.
      const double base = rng.uniform(1.0, r_task);
      for (std::size_t m = 0; m < spec.machines; ++m) {
        data[t * spec.machines + m] = base * rng.uniform(1.0, r_mach);
      }
    }
  } else {
    // CVB method (Ali et al. 2000): a gamma-distributed task weight q_t
    // with CV = V_task, then per-machine gamma draws with mean q_t and
    // CV = V_machine. alpha = 1/V^2, scale = mean/alpha.
    const double v_task = cv_of(spec.task_het);
    const double v_mach = cv_of(spec.machine_het);
    const double alpha_task = 1.0 / (v_task * v_task);
    const double alpha_mach = 1.0 / (v_mach * v_mach);
    const double beta_task = spec.cvb_mean_task / alpha_task;
    for (std::size_t t = 0; t < spec.tasks; ++t) {
      const double q = rng.gamma(alpha_task, beta_task);
      const double beta_mach = q / alpha_mach;
      for (std::size_t m = 0; m < spec.machines; ++m) {
        data[t * spec.machines + m] = rng.gamma(alpha_mach, beta_mach);
      }
    }
  }

  auto row = [&](std::size_t t) {
    return data.begin() + static_cast<std::ptrdiff_t>(t * spec.machines);
  };

  switch (spec.consistency) {
    case Consistency::kConsistent:
      for (std::size_t t = 0; t < spec.tasks; ++t) {
        std::sort(row(t), row(t) + static_cast<std::ptrdiff_t>(spec.machines));
      }
      break;
    case Consistency::kSemiConsistent:
      // Even rows: gather even-column entries, sort, scatter back — yields
      // a consistent sub-matrix over (even tasks, even machines).
      for (std::size_t t = 0; t < spec.tasks; t += 2) {
        std::vector<double> evens;
        evens.reserve((spec.machines + 1) / 2);
        for (std::size_t m = 0; m < spec.machines; m += 2) {
          evens.push_back(data[t * spec.machines + m]);
        }
        std::sort(evens.begin(), evens.end());
        std::size_t k = 0;
        for (std::size_t m = 0; m < spec.machines; m += 2) {
          data[t * spec.machines + m] = evens[k++];
        }
      }
      break;
    case Consistency::kInconsistent:
      break;
  }

  std::vector<double> ready;
  if (spec.ready_fraction > 0.0) {
    double sum = 0.0;
    for (double v : data) sum += v;
    // Mean machine load if the batch were spread evenly.
    const double mean_load =
        sum / static_cast<double>(spec.machines * spec.machines);
    ready.resize(spec.machines);
    for (auto& r : ready) {
      r = rng.uniform(0.0, spec.ready_fraction * mean_load);
    }
  }

  return EtcMatrix(spec.tasks, spec.machines, std::move(data),
                   std::move(ready));
}

}  // namespace pacga::etc
