// Peel validation: the ledger's lower entry points — execute_compiled, the
// Transport walk and the Fabric walk — must produce the same bytes as the
// Communicator call for every shape of every runtime workload.  If they did
// not, the differences between their timings would measure nothing.
#include <iostream>
#include <string>

#include "workloads.hpp"

int main() {
  int mismatches = 0;
  for (const std::string& workload : perfbench::workload_names()) {
    if (!perfbench::is_runtime_workload(workload)) continue;
    for (std::uint64_t seed : {1u, 7u}) {
      const int bad = perfbench::peel_check(workload, seed, std::cerr);
      std::cout << workload << " seed " << seed << ": "
                << (bad == 0 ? "identical" : "MISMATCH") << "\n";
      mismatches += bad;
    }
  }
  return mismatches == 0 ? 0 : 1;
}
