// simscale: the schedule simulator as its users run it — plan, then simulate
// on the packet engine — on one thread, bypassing the runtime entirely.
//
// One step is one sweep: Table 3's nine cells (broadcast, collect and global
// sum at 8 B, 64 KiB and 1 MiB) on the paper's 16 x 32 = 512-node mesh for
// both the NX baseline and InterCom, then broadcast and collect at 64 KiB and
// 1 MiB on a 64 x 64 = 4096-node mesh.  The seed only permutes the order of
// the cells within a sweep; modeled results must not depend on it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "intercom/baseline/nx.hpp"
#include "intercom/core/planner.hpp"
#include "intercom/sim/engine.hpp"
#include "intercom/topo/submesh.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using intercom::Collective;
using intercom::Group;
using intercom::MachineParams;
using intercom::Mesh2D;
using intercom::Planner;
using intercom::Schedule;
using intercom::SimEngine;
using intercom::SimParams;
using intercom::WormholeSimulator;

struct Cell {
  Collective collective;
  std::size_t bytes;
  bool big_mesh;    ///< 64 x 64 rather than 16 x 32
  bool nx;          ///< NX baseline schedule rather than InterCom's
  double nx_reference = 0.0;  ///< frozen NX modeled seconds (512 nodes)
};

/// NX modeled seconds on the 512-node mesh, packet engine, default tie
/// seed — the values the simulator produced when the benchmark was defined
/// (BENCH_simscale.json, table3_512).  NX schedules are a frozen baseline,
/// so any drift here is an engine change.
std::vector<Cell> sweep_cells() {
  std::vector<Cell> cells;
  const struct {
    Collective collective;
    std::size_t bytes;
    double nx_s;
  } table3[] = {
      {Collective::kBroadcast, 8, 0.00126252},
      {Collective::kBroadcast, 65536, 0.02190383999999997},
      {Collective::kBroadcast, 1048576, 0.33156143999999543},
      {Collective::kCollect, 8, 0.072820405000000671},
      {Collective::kCollect, 65536, 0.095733120000000227},
      {Collective::kCollect, 1048576, 0.43972991999998368},
      {Collective::kCombineToAll, 8, 0.0025268399999999998},
      {Collective::kCombineToAll, 65536, 0.058553280000000277},
      {Collective::kCombineToAll, 1048576, 0.89905248000007865},
  };
  for (const auto& row : table3) {
    cells.push_back({row.collective, row.bytes, false, true, row.nx_s});
    cells.push_back({row.collective, row.bytes, false, false, 0.0});
  }
  for (Collective c : {Collective::kBroadcast, Collective::kCollect}) {
    for (std::size_t bytes : {std::size_t{65536}, std::size_t{1048576}}) {
      cells.push_back({c, bytes, true, false, 0.0});
    }
  }
  return cells;
}

std::string cell_name(const Cell& cell) {
  std::ostringstream os;
  os << (cell.nx ? "nx." : "icc.") << intercom::to_string(cell.collective)
     << '.' << cell.bytes << "B." << (cell.big_mesh ? "4096" : "512");
  return os.str();
}

/// The two machines a sweep plans and simulates on.
struct Machines {
  Mesh2D mesh512{16, 32};
  Mesh2D mesh4k{64, 64};
  std::unique_ptr<Planner> planner512, planner4k;
  std::unique_ptr<WormholeSimulator> sim512, sim4k;
  double sim_construct_ns = 0.0;

  Machines() {
    const MachineParams machine = MachineParams::paragon();
    SimParams params;
    params.machine = machine;
    // The schedule simulator still defaults to the fluid engine; the sweep
    // pins the packet engine, which is what reaches 512 and 4096 nodes.
    params.engine = SimEngine::kPacket;
    planner512 = std::make_unique<Planner>(machine, mesh512);
    planner4k = std::make_unique<Planner>(machine, mesh4k);
    const std::uint64_t t0 = now_ns();
    sim512 = std::make_unique<WormholeSimulator>(mesh512, params);
    sim4k = std::make_unique<WormholeSimulator>(mesh4k, params);
    sim_construct_ns = static_cast<double>(now_ns() - t0);
  }
};

struct SweepStats {
  std::vector<std::uint64_t> cell_ns;  ///< plan + simulate, per cell
  std::uint64_t wall_ns = 0;
  std::uint64_t plan_ns = 0;  ///< InterCom Planner::plan
  std::uint64_t sim_ns = 0;   ///< WormholeSimulator::run
  std::uint64_t transfers = 0;
  std::uint64_t peak_link_load_sum = 0;
};

constexpr int kSetups = 5;

}  // namespace

Result run_simscale(const Options& opt) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> sim_setup_ms;
  const std::vector<Cell> cells = sweep_cells();
  std::unique_ptr<Machines> machines;
  // Set-up is construction plus the first plan of every cell: construction
  // alone takes about a microsecond, too little to time steadily, and the
  // first plans are what the runtime workloads' set-up also pays.
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    machines = std::make_unique<Machines>();
    for (const Cell& cell : cells) {
      const Group group = intercom::whole_mesh_group(
          cell.big_mesh ? machines->mesh4k : machines->mesh512);
      const Planner& planner =
          cell.big_mesh ? *machines->planner4k : *machines->planner512;
      const Schedule schedule =
          cell.nx ? intercom::nx::plan(cell.collective, group, cell.bytes, 1, 0)
                  : planner.plan(cell.collective, group, cell.bytes, 1, 0);
      if (schedule.programs().empty()) throw std::runtime_error("empty plan");
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    sim_setup_ms.push_back(machines->sim_construct_ns / 1e6);
  }
  const Group whole512 = intercom::whole_mesh_group(machines->mesh512);
  const Group whole4k = intercom::whole_mesh_group(machines->mesh4k);

  // Seeded order of the cells within a sweep (Fisher-Yates on mix64).
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = mix64(opt.seed * 7919u + i) % i;
    std::swap(order[i - 1], order[j]);
  }

  std::vector<double> first_seconds(cells.size(), -1.0);
  std::vector<double> seconds(cells.size(), 0.0);
  std::vector<std::uint32_t> names;
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) {
    spans = std::make_unique<SpanLog>(1, std::size_t{1} << 14);
    spans->intern("sweep");
    for (const Cell& cell : cells) {
      names.push_back(spans->intern("plan." + cell_name(cell)));
      spans->intern("sim." + cell_name(cell));
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One sweep; records spans when `traced`.  Returns false on a wrong or
  // non-reproducible modeled result.
  auto sweep = [&](std::uint64_t index, bool traced, SweepStats& st) {
    st.cell_ns.assign(cells.size(), 0);
    const std::uint64_t t_sweep = now_ns();
    const std::int32_t root =
        traced ? spans->open(0, 0, -1, index, t_sweep) : -1;
    for (std::size_t i : order) {
      const Cell& cell = cells[i];
      const Group& group = cell.big_mesh ? whole4k : whole512;
      const Planner& planner =
          cell.big_mesh ? *machines->planner4k : *machines->planner512;
      const WormholeSimulator& sim =
          cell.big_mesh ? *machines->sim4k : *machines->sim512;
      const std::uint64_t t0 = now_ns();
      const Schedule schedule =
          cell.nx ? intercom::nx::plan(cell.collective, group, cell.bytes, 1, 0)
                  : planner.plan(cell.collective, group, cell.bytes, 1, 0);
      const std::uint64_t t1 = now_ns();
      const intercom::SimResult r = sim.run(schedule);
      const std::uint64_t t2 = now_ns();
      st.cell_ns[i] = t2 - t0;
      if (!cell.nx) st.plan_ns += t1 - t0;
      st.sim_ns += t2 - t1;
      st.transfers += r.transfers;
      st.peak_link_load_sum += static_cast<std::uint64_t>(r.peak_link_load);
      seconds[i] = r.seconds;
      if (traced) {
        spans->close(0, spans->open(0, names[i], root, index, t0), t1);
        spans->close(0, spans->open(0, names[i] + 1, root, index, t1), t2);
      }
    }
    st.wall_ns = now_ns() - t_sweep;
    if (traced) spans->close(0, root, now_ns());
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (!(seconds[i] > 0.0) || !std::isfinite(seconds[i])) ok = false;
      if (cell.nx &&
          std::abs(seconds[i] - cell.nx_reference) > 1e-9 * cell.nx_reference) {
        ok = false;
      }
      if (first_seconds[i] < 0.0) first_seconds[i] = seconds[i];
      if (seconds[i] != first_seconds[i]) ok = false;  // bit-identical replays
    }
    return ok;
  };

  const double untimed_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<SweepStats> timed;
  std::uint64_t allocs0 = alloc_count();
  double rss0 = current_rss_kb();
  const std::uint64_t loop_t0 = now_ns();
  const std::uint64_t deadline =
      loop_t0 + static_cast<std::uint64_t>(untimed_seconds * 1e9);
  // peak_rss_mb is read after a fixed amount of work (two sweeps), as on
  // the runtime workloads.
  constexpr std::size_t kRssSweeps = 2;
  double fixed_work_rss_kb = 0.0;
  do {
    SweepStats st;
    ++attempted;
    if (!sweep(timed.size(), false, st)) ++failed;
    timed.push_back(st);
    if (timed.size() == 1) {
      // Growth is counted from the end of the first sweep, which faults in
      // the simulators' working set.
      allocs0 = alloc_count();
      rss0 = current_rss_kb();
    }
    if (timed.size() == kRssSweeps) fixed_work_rss_kb = peak_rss_kb();
  } while (now_ns() < deadline);
  if (fixed_work_rss_kb == 0.0) fixed_work_rss_kb = peak_rss_kb();
  const std::uint64_t loop_t1 = now_ns();
  const std::uint64_t allocs1 = alloc_count();
  const double rss1 = current_rss_kb();

  std::vector<SweepStats> traced;
  if (opt.trace) {
    const std::uint64_t traced_deadline =
        now_ns() + static_cast<std::uint64_t>((opt.seconds - untimed_seconds) * 1e9);
    do {
      SweepStats st;
      ++attempted;
      if (!sweep(timed.size() + traced.size(), true, st)) ++failed;
      traced.push_back(st);
    } while (now_ns() < traced_deadline);
  }

  auto med = [](const std::vector<SweepStats>& v, auto field) {
    std::vector<double> xs;
    for (const SweepStats& s : v) xs.push_back(static_cast<double>(field(s)));
    return median(xs);
  };
  auto wall = [](const SweepStats& s) { return s.wall_ns; };
  const double step_p50_ns = med(timed, wall);
  const double n = static_cast<double>(timed.size());
  const double loop_s = static_cast<double>(loop_t1 - loop_t0) / 1e9;

  double log_ratio = 0.0;
  int ratio_cells = 0;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    if (cells[i].nx && !cells[i + 1].nx && !cells[i].big_mesh) {
      log_ratio += std::log(first_seconds[i] / first_seconds[i + 1]);
      ++ratio_cells;
    }
  }
  const double model_vs_nx = std::exp(log_ratio / ratio_cells);

  result.attempted = attempted;
  result.failed = failed;
  std::vector<double> walls;
  for (const SweepStats& s : timed) walls.push_back(static_cast<double>(s.wall_ns));
  if (!opt.trace) {
    // A run holds only a handful of sweeps, and the 10th percentile of so
    // few is just the luckiest one.  Each cell's own 10th percentile, summed
    // over the sweep, filters outside interference cell by cell instead.
    double fast_path_ns = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::vector<double> xs;
      for (const SweepStats& st : timed) xs.push_back(static_cast<double>(st.cell_ns[i]));
      fast_path_ns += quantile(xs, 0.1);
    }
    result.set("step_p10_ms", fast_path_ns / 1e6, "ms");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", fixed_work_rss_kb / 1024.0, "MiB");
  } else {
    const double sim_ns = med(timed, [](const SweepStats& s) { return s.sim_ns; });
    const double transfers =
        static_cast<double>(timed.front().transfers);
    result.set("step_p50_ms", step_p50_ns / 1e6, "ms");
    result.set("step_p99_ms", quantile(walls, 0.99) / 1e6, "ms");
    result.set("steps_per_s", n / loop_s, "1/s");
    result.set("planner.plan_us",
               med(timed, [](const SweepStats& s) { return s.plan_ns; }) / 1e3,
               "us");
    result.set("sim.run_ms", sim_ns / 1e6, "ms");
    result.set("sim.transfers_per_s", transfers / (sim_ns / 1e9), "1/s");
    result.set("sim.setup_ms", median(sim_setup_ms), "ms");
    result.set("sim.transfers", transfers, "count");
    result.set("sim.peak_link_load",
               static_cast<double>(timed.front().peak_link_load_sum), "count");
    result.set("model_vs_nx", model_vs_nx, "ratio");
    const double later = std::max(1.0, n - 1.0);
    result.set("allocs_per_step",
               static_cast<double>(allocs1 - allocs0) / later, "count");
    result.set("rss_kb_per_step", (rss1 - rss0) / later, "KiB");
    result.set("trace.overhead_ratio", med(traced, wall) / step_p50_ns,
               "ratio");
    // The runtime layers are not on this workload's path.
    for (const char* name :
         {"communicator.self_us", "plancursor.self_us",
          "compiled_plan.compile_us", "transport.self_us",
          "transport.reliable_extra_us", "fabric.self_us",
          "wait.arrival_skew_us", "wire.self_us", "floor.copy_us",
          "floor.fold_us", "collective.broadcast.p50_us",
          "collective.all_reduce.p50_us", "collective.collect.p50_us",
          "collective.reduce_scatter.p50_us"}) {
      result.set(name, 0.0, "us");
    }
    for (const char* name :
         {"plan_cache.hit_ratio", "transport.rendezvous_share",
          "transport.retransmit_ratio", "transport.checksums_per_frame",
          "buffer_pool.reuse_ratio"}) {
      result.set(name, 0.0, "ratio");
    }
    result.set("async.polls_per_request", 0.0, "count");
    result.set("transport.msgs_per_step", 0.0, "count");
    result.set("transport.bytes_per_step", 0.0, "B");
    result.set("buffer_pool.cached_mb", 0.0, "MiB");

    const std::string path = opt.out_dir + "/simscale-seed" +
                             std::to_string(opt.seed) + "-spans.csv";
    if (spans->write_csv(path)) result.notes.push_back("spans: " + path);
  }

  std::ostringstream summary;
  summary << "simscale: " << timed.size() << " timed sweeps in " << loop_s
          << " s, sweep p50 " << step_p50_ns / 1e6 << " ms, model_vs_nx "
          << model_vs_nx << " over " << ratio_cells << " cells, setups(s):";
  for (double s : setup_s) summary << ' ' << s;
  summary << ", sweeps(ms):";
  for (double w : walls) summary << ' ' << w / 1e6;
  result.notes.push_back(summary.str());
  std::ostringstream modeled;
  modeled.precision(17);
  modeled << "modeled seconds:";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    modeled << ' ' << cell_name(cells[i]) << '=' << first_seconds[i];
  }
  result.notes.push_back(modeled.str());
  return result;
}

}  // namespace perfbench
