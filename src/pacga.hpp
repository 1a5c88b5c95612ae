// Umbrella header: the library's whole public API in one include.
//
//   #include "pacga.hpp"
//   const auto etc = pacga::etc::generate_by_name("u_i_hihi.0");
//   pacga::cga::Config config;                 // paper Table 1 defaults
//   auto result = pacga::par::run_parallel(etc, config);
//
// Fine-grained headers remain available for consumers who care about
// compile times; this is the convenience entry point.
#pragma once

#include "baselines/cma_lth.hpp"
#include "baselines/struggle_ga.hpp"
#include "batch/workload.hpp"
#include "cga/breeder.hpp"
#include "cga/config.hpp"
#include "cga/engine.hpp"
#include "cga/loop.hpp"
#include "etc/braun.hpp"
#include "etc/io.hpp"
#include "etc/suite.hpp"
#include "heuristics/listsched.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "pacga/cellwise_engine.hpp"
#include "pacga/parallel_engine.hpp"
#include "sched/fitness.hpp"
#include "sched/schedule.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"
