// The benchmark's workloads.  All are closed loop; see perfbench/README.md
// for why each exists and what every metric means.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Names of every workload, in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();

/// True for the workloads that drive the threaded runtime (solver, bulk,
/// wire); false for simscale.
bool is_runtime_workload(const std::string& name);

/// Runs a runtime workload: repeated set-up, the untimed first step, the
/// timed closed loop and, with `opt.trace`, the peeled layer ledger.
Result run_runtime_workload(const Options& opt);

/// Runs simscale: planner + packet-engine sweeps on one thread.
Result run_simscale(const Options& opt);

/// Peel validation: for every shape of a runtime workload, runs the
/// Communicator call and then execute_compiled, the Transport walk and the
/// Fabric walk over the same compiled plan, and compares their output
/// bytes with the Communicator's.  Returns the number of mismatches (and
/// logs each); throws on a transport failure.
int peel_check(const std::string& workload, std::uint64_t seed,
               std::ostream& log);

}  // namespace perfbench
