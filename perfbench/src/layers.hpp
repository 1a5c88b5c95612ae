// Per-layer measurements for the traced run. Layers reached only through
// another layer (kernels and the breeder under the engine) are called
// directly on the workloads' own inputs; the serving layers are read from a
// traced window's job records and the counters the program exposes.
#pragma once

#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// kernels.*: ns per call of the active tier at m = 16 and m = 128.
void measure_kernels(const ArmInputs& braun, const ArmInputs& wide,
                     SpanLog& spans, std::vector<Metric>& out);

/// heuristics.*: Min-min wall time at 512x16, 4096x128 and the service
/// shapes.
void measure_heuristics(const ArmInputs& braun, std::uint64_t seed,
                        SpanLog& spans, std::vector<Metric>& out);

/// breeder.*: single-thread Breeder::breed_into steps/s and allocations per
/// step. Returns the ls0 steps/s (the engine efficiency denominator).
double measure_breeder(const ArmInputs& braun, SpanLog& spans,
                       std::vector<Metric>& out);

/// engine.*: 1- vs 3-thread PA-CGA on the first Braun instances.
void measure_engine(const ArmInputs& braun, double breeder_ls0_steps_per_s,
                    std::uint64_t seed, Tally& tally, SpanLog& spans,
                    std::vector<Metric>& out);

/// service.* from a service_mix window.
void service_layer(const ServiceMixRun& run, std::vector<Metric>& out);

/// net.* from an edge_pipeline probe window.
void net_layer(const EdgeRun& run, std::vector<Metric>& out);

}  // namespace perfbench
