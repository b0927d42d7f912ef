// perfbench: runs one workload for a fixed time from a seed, checks every
// output, and prints the result as the last line of standard output:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger.  Earlier lines are a human-readable report and the run's
// provenance.  perfbench/run.py builds this binary and is the entry point.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--out-dir <dir>] [--commit <id>]\n";
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == opt.workload;
  }
  if (!known) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::cout << "provenance {\"workload\": \"" << json_escape(opt.workload)
            << "\", \"seed\": " << opt.seed << ", \"seconds\": "
            << number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"commit\": \"" << json_escape(commit)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg_1m\": " << number(load[0]) << "}" << std::endl;

  Result result;
  bool correct = true;
  try {
    result = perfbench::is_runtime_workload(opt.workload)
                 ? perfbench::run_runtime_workload(opt)
                 : perfbench::run_simscale(opt);
  } catch (const std::exception& e) {
    // A collective that throws ends the run: one failed step, no metrics
    // worth comparing, and a result that says so.
    std::cout << "error: " << e.what() << std::endl;
    result.attempted += 1;
    result.failed += 1;
    correct = false;
  }
  for (const std::string& note : result.notes) std::cout << note << '\n';

  std::ostringstream metrics;
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    double v = metric.value;
    if (!std::isfinite(v)) {
      std::cout << "error: metric " << name << " is not finite\n";
      v = 0.0;
      correct = false;
    }
    metrics << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
            << number(v) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  correct = correct && result.failed == 0;
  if (result.attempted == 0) result.attempted = 1;
  std::cout << "fail_rate " << number(static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted))
            << " (" << result.failed << " of " << result.attempted
            << " steps)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
