// solver, bulk and wire: closed-loop collectives on the threaded runtime.
//
// Every rank issues its next collective when the previous one returns.  A
// step is one pass over the workload's shapes; a rank's step span is the sum
// of its timed calls (inputs are written and outputs checked between calls,
// outside the spans), and the step's latency is its slowest rank's span.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "intercom/runtime/communicator.hpp"
#include "intercom/runtime/compiled_plan.hpp"
#include "intercom/runtime/fabric_registry.hpp"
#include "intercom/runtime/multicomputer.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using intercom::Collective;
using intercom::CompiledPlan;
using intercom::Communicator;
using intercom::CProgram;
using intercom::Group;
using intercom::MachineParams;
using intercom::Mesh2D;
using intercom::Multicomputer;
using intercom::Node;
using intercom::PlanCache;
using intercom::ReduceOp;
using intercom::Request;

// ---- Workload definitions --------------------------------------------------

enum class Kind { kBroadcast, kAllReduce, kCollect, kReduceScatter };
constexpr int kKinds = 4;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBroadcast: return "broadcast";
    case Kind::kAllReduce: return "all_reduce";
    case Kind::kCollect: return "collect";
    case Kind::kReduceScatter: return "reduce_scatter";
  }
  return "?";
}

Collective collective_of(Kind kind) {
  switch (kind) {
    case Kind::kBroadcast: return Collective::kBroadcast;
    case Kind::kAllReduce: return Collective::kCombineToAll;
    case Kind::kCollect: return Collective::kCollect;
    case Kind::kReduceScatter: return Collective::kDistributedCombine;
  }
  return Collective::kBroadcast;
}

enum class CommSel { kWorld, kRow, kCol };

struct Shape {
  std::string name;
  Kind kind = Kind::kBroadcast;
  std::size_t elems = 0;  ///< doubles
  CommSel comm = CommSel::kWorld;
  bool async = false;  ///< issued with iall_reduce_sum and polled
  int root = 0;        ///< group rank (broadcasts; seeded)
};

struct Spec {
  std::string name;
  int rows = 1;
  int cols = 1;
  std::string fabric = "inproc";
  bool reliable = false;
  std::vector<Shape> shapes;
  /// Timed steps after which peak_rss_mb is read: a fixed amount of work,
  /// reached within a few seconds, so the figure does not depend on how
  /// many steps a run's time allowed (wire's reliable state grows per step).
  std::uint64_t rss_step = 0;
};

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * 1024;

std::string size_label(std::size_t bytes) {
  if (bytes >= kMiB) return std::to_string(bytes / kMiB) + "MiB";
  if (bytes >= kKiB) return std::to_string(bytes / kKiB) + "KiB";
  return std::to_string(bytes) + "B";
}

Shape shape(Kind kind, std::size_t bytes, CommSel comm = CommSel::kWorld,
            const char* prefix = "") {
  Shape s;
  s.kind = kind;
  s.elems = bytes / sizeof(double);
  s.comm = comm;
  s.name = std::string(prefix) + kind_name(kind) + "." + size_label(bytes);
  return s;
}

/// The latency-bound mix of one iterative-solver iteration.
std::vector<Shape> solver_shapes() {
  return {shape(Kind::kAllReduce, 8), shape(Kind::kAllReduce, 16),
          shape(Kind::kBroadcast, 512), shape(Kind::kCollect, 4 * kKiB),
          shape(Kind::kReduceScatter, 4 * kKiB)};
}

Spec make_spec(const std::string& name, std::uint64_t seed) {
  Spec spec;
  spec.name = name;
  if (name == "solver") {
    spec.rows = 2;
    spec.cols = 2;
    spec.rss_step = 10000;
    spec.shapes = solver_shapes();
  } else if (name == "bulk") {
    spec.rows = 2;
    spec.cols = 2;
    spec.rss_step = 100;
    for (std::size_t bytes : {kMiB, 16 * kMiB}) {
      spec.shapes.push_back(shape(Kind::kBroadcast, bytes));
      spec.shapes.push_back(shape(Kind::kAllReduce, bytes));
      spec.shapes.push_back(shape(Kind::kCollect, bytes));
      spec.shapes.push_back(shape(Kind::kReduceScatter, bytes));
      spec.shapes.push_back(
          shape(Kind::kBroadcast, bytes, CommSel::kRow, "row_"));
      spec.shapes.push_back(
          shape(Kind::kBroadcast, bytes, CommSel::kCol, "col_"));
    }
  } else if (name == "wire") {
    spec.rows = 1;
    spec.cols = 3;
    spec.fabric = "shm";
    spec.reliable = true;
    spec.rss_step = 1000;
    Shape big = shape(Kind::kAllReduce, kMiB, CommSel::kWorld, "i");
    big.async = true;
    spec.shapes.push_back(big);
    for (const Shape& s : solver_shapes()) spec.shapes.push_back(s);
  } else {
    throw std::invalid_argument("unknown runtime workload '" + name + "'");
  }
  const int p = spec.rows * spec.cols;
  for (std::size_t c = 0; c < spec.shapes.size(); ++c) {
    Shape& s = spec.shapes[c];
    const int group = s.comm == CommSel::kWorld ? p
                      : s.comm == CommSel::kRow ? spec.cols
                                                : spec.rows;
    if (s.kind == Kind::kBroadcast) {
      s.root = static_cast<int>(mix64(seed * 1000003u + c) %
                                static_cast<std::uint64_t>(group));
    }
  }
  return spec;
}

// ---- Seeded integer-valued inputs and their closed forms -------------------
//
// Invocation k of shape c uses base = c * 2^16 + u_k with u_k < 2^16 changing
// on every invocation, and element i holds base + i (+ the group rank for
// combine inputs).  Every value and every sum is an integer below 2^26, so
// doubles represent them exactly and the expected outputs are closed forms;
// a stale buffer from an earlier call or another shape never matches.

double shape_base(std::uint64_t seed, std::size_t c, std::uint64_t k) {
  const std::uint64_t u = (mix64(seed ^ (c * 0x9e37u)) + k * 7919u) & 0xffffu;
  return static_cast<double>((static_cast<std::uint64_t>(c) << 16) + u);
}

void write_ramp(double* x, std::size_t lo, std::size_t hi, double base) {
  for (std::size_t i = lo; i < hi; ++i) {
    x[i] = base + static_cast<double>(static_cast<std::uint32_t>(i));
  }
}

/// True when x[i] == a + b * i over [lo, hi).
bool check_ramp(const double* x, std::size_t lo, std::size_t hi, double a,
                double b) {
  bool bad = false;
  for (std::size_t i = lo; i < hi; ++i) {
    bad |= x[i] != a + b * static_cast<double>(static_cast<std::uint32_t>(i));
  }
  return !bad;
}

// ---- Synchronisation --------------------------------------------------------

/// Barrier whose last arriver runs a completion step before releasing the
/// others (while every rank is parked — the only safe time to flip
/// transport knobs or snapshot counters).  Waiters spin on the generation
/// rather than sleep, so ranks leave together: a futex wakeup would stagger
/// them by tens of microseconds and that skew would land in the first span
/// of the next phase.  abort() releases all waiters with an exception, so a
/// failing rank cannot strand its peers here.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(int parties) : parties_(parties) {}

  template <typename F>
  void arrive_and_wait(F&& completion) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return;
    }
    for (unsigned spins = 0;
         generation_.load(std::memory_order_acquire) == gen; ++spins) {
      if (aborted_.load(std::memory_order_relaxed)) {
        throw std::runtime_error("peer rank failed");
      }
      if (spins > 4096) std::this_thread::yield();
    }
  }
  void arrive_and_wait() {
    arrive_and_wait([] {});
  }
  void abort() { aborted_.store(true); }

 private:
  int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> aborted_{false};
};

// ---- Ledger phases ----------------------------------------------------------

/// Entry points of the traced replay, outermost first.
enum class Phase {
  kCommunicator,     ///< 1: the Communicator call
  kExecute,          ///< 2: execute_compiled on the cached CompiledPlan
  kTransportReliable,///< 3: Transport walk, reliability armed (wire)
  kTransport,        ///< 3: Transport walk, raw
  kFabric,           ///< 4: Fabric walk on the workload's fabric
  kFabricInproc,     ///< 4: the same walk on an InProcFabric (wire)
  kFloorCopy,        ///< 5: receive copies at memcpy speed
  kFloorFold,        ///< 5: folds at ReduceOp speed
};

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kCommunicator: return "communicator";
    case Phase::kExecute: return "execute_compiled";
    case Phase::kTransportReliable: return "transport_reliable_walk";
    case Phase::kTransport: return "transport_walk";
    case Phase::kFabric: return "fabric_walk";
    case Phase::kFabricInproc: return "inproc_fabric_walk";
    case Phase::kFloorCopy: return "floor_copy";
    case Phase::kFloorFold: return "floor_fold";
  }
  return "?";
}

std::vector<Phase> phases_for(const Spec& spec) {
  if (spec.fabric != "inproc") {
    return {Phase::kCommunicator, Phase::kExecute, Phase::kTransportReliable,
            Phase::kTransport,    Phase::kFabric,  Phase::kFabricInproc,
            Phase::kFloorCopy,    Phase::kFloorFold};
  }
  return {Phase::kCommunicator, Phase::kExecute,   Phase::kTransport,
          Phase::kFabric,       Phase::kFloorCopy, Phase::kFloorFold};
}

/// Context namespace of the ledger's replays, far from any communicator's.
constexpr std::uint64_t kLedgerContextBase = 0x5eed1edcafe0000ull;

// ---- State shared by the rank threads of one run ----------------------------

struct Counters {
  std::uint64_t t_ns = 0;
  std::uint64_t allocs = 0;
  double rss_kb = 0.0;
};

struct Shared {
  Shared(const Spec& s, const Options& o)
      : spec(s),
        opt(o),
        p(s.rows * s.cols),
        phases(phases_for(s)),
        barrier(p) {}

  const Spec& spec;
  const Options& opt;
  int p;
  std::vector<Phase> phases;
  PhaseBarrier barrier;

  double untimed_seconds = 0.0;  ///< untraced closed-loop duration
  double traced_seconds = 0.0;

  // Untraced closed loop: [0] step span, [1 + c] shape c's span,
  // [1 + C + c] shape c's entry timestamp (arrival skew).
  std::unique_ptr<StepCollector> steps;
  bool loop_stop = false;  ///< set at a step barrier once time is up
  Counters loop_start, loop_end;
  double fixed_work_rss_kb = 0.0;  ///< VmHWM after spec.rss_step steps
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> requests{0};

  // Traced replay: one value per phase plus the floor total.
  std::unique_ptr<StepCollector> ledger;
  std::unique_ptr<SpanLog> spans;
  bool traced_stop = false;
  std::uint64_t traced_deadline_ns = 0;
  std::unique_ptr<intercom::BufferPool> inproc_pool;
  std::unique_ptr<intercom::InProcFabric> inproc;

  // Per-layer counts gathered from every rank.
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> ledger_lookups{0};
  std::atomic<std::uint64_t> send_messages{0};
  std::atomic<std::uint64_t> send_bytes{0};
  std::atomic<std::uint64_t> send_rendezvous{0};
  double compile_us = 0.0;  ///< per step, summed over shapes (rank 0)
  double plan_us = 0.0;
};

Counters snapshot() {
  Counters c;
  c.t_ns = now_ns();
  c.allocs = alloc_count();
  c.rss_kb = current_rss_kb();
  return c;
}

// ---- One rank ---------------------------------------------------------------

class RankRunner {
 public:
  RankRunner(Node& node, Shared& shared)
      : node_(node),
        sh_(shared),
        spec_(shared.spec),
        world_(node.world()),
        sum_(intercom::sum_op<double>()) {
    const Mesh2D& mesh = node.machine().mesh();
    const auto coord = mesh.coord_of(node.id());
    for (const Shape& s : spec_.shapes) {
      if (s.comm == CommSel::kRow && !row_) {
        std::vector<int> members;
        for (int c = 0; c < mesh.cols(); ++c) members.push_back(mesh.node_at(coord.row, c));
        row_.emplace(node.group(Group(std::move(members)), 1));
      }
      if (s.comm == CommSel::kCol && !col_) {
        std::vector<int> members;
        for (int r = 0; r < mesh.rows(); ++r) members.push_back(mesh.node_at(r, coord.col));
        col_.emplace(node.group(Group(std::move(members)), 2));
      }
    }
    // One buffer per distinct size; an async shape owns its buffer because
    // blocking calls run while it is in flight.
    for (const Shape& s : spec_.shapes) {
      std::size_t id = buffers_.size();
      if (!s.async) {
        for (std::size_t b = 0; b < buffers_.size(); ++b) {
          if (buffers_[b].size() == s.elems && !buffer_async_[b]) id = b;
        }
      }
      if (id == buffers_.size()) {
        buffers_.emplace_back(s.elems, -1.0);
        buffer_async_.push_back(s.async);
      }
      buffer_of_.push_back(id);
    }
    invocations_.assign(spec_.shapes.size(), 0);
    bases_.assign(spec_.shapes.size(), 0.0);
    dur_.assign(spec_.shapes.size(), 0);
    entry_.assign(spec_.shapes.size(), 0);
    values_.assign(1 + 2 * spec_.shapes.size(), 0);
  }

  Communicator& comm(const Shape& s) {
    switch (s.comm) {
      case CommSel::kRow: return *row_;
      case CommSel::kCol: return *col_;
      case CommSel::kWorld: break;
    }
    return world_;
  }

  double* data(std::size_t c) { return buffers_[buffer_of_[c]].data(); }
  std::span<double> span(std::size_t c) {
    return {data(c), spec_.shapes[c].elems};
  }
  std::span<std::byte> bytes(std::size_t c) {
    return std::as_writable_bytes(span(c));
  }

  /// Writes shape c's inputs for its next invocation.
  void fill(std::size_t c) {
    bases_[c] = shape_base(sh_.opt.seed, c, invocations_[c]++);
    fill_with(c, bases_[c]);
  }

  void fill_with(std::size_t c, double base) {
    const Shape& s = spec_.shapes[c];
    Communicator& cm = comm(s);
    double* x = data(c);
    switch (s.kind) {
      case Kind::kBroadcast:
        // Receivers overwrite their buffer with a negative ramp (which never
        // matches an output) so every rank does the same work between
        // calls: a root-only fill would show up as the others' wait.
        write_ramp(x, 0, s.elems, cm.rank() == s.root ? base : -1.0 - base);
        break;
      case Kind::kCollect: {
        const auto piece = cm.piece_of(s.elems, cm.rank());
        write_ramp(x, piece.lo, piece.hi, base);
        break;
      }
      case Kind::kAllReduce:
      case Kind::kReduceScatter:
        write_ramp(x, 0, s.elems, base + cm.rank());
        break;
    }
  }

  /// Region of shape c's buffer the collective defines at this rank.
  intercom::ElemRange output_range(std::size_t c) {
    const Shape& s = spec_.shapes[c];
    if (s.kind == Kind::kReduceScatter) {
      Communicator& cm = comm(s);
      return cm.piece_of(s.elems, cm.rank());
    }
    return {0, s.elems};
  }

  /// Compares shape c's output with its closed form.
  bool verify(std::size_t c) { return verify_with(c, bases_[c]); }

  bool verify_with(std::size_t c, double base) {
    const Shape& s = spec_.shapes[c];
    const double p = comm(s).size();
    const auto range = output_range(c);
    if (s.kind == Kind::kBroadcast || s.kind == Kind::kCollect) {
      return check_ramp(data(c), range.lo, range.hi, base, 1.0);
    }
    return check_ramp(data(c), range.lo, range.hi,
                      p * base + p * (p - 1.0) / 2.0, p);
  }

  void call(std::size_t c) {
    const Shape& s = spec_.shapes[c];
    Communicator& cm = comm(s);
    switch (s.kind) {
      case Kind::kBroadcast: cm.broadcast(span(c), s.root); break;
      case Kind::kAllReduce: cm.all_reduce_sum(span(c)); break;
      case Kind::kCollect: cm.collect(span(c)); break;
      case Kind::kReduceScatter: cm.reduce_scatter_sum(span(c)); break;
    }
  }

  /// One closed-loop step through the Communicator.  Fills dur_/entry_ and
  /// returns false when an output was wrong.
  bool communicator_step() {
    bool ok = true;
    std::size_t first = 0;
    std::optional<Request> request;
    std::uint64_t polls = 0;
    if (spec_.shapes[0].async) {
      // The long all-reduce is issued first and driven between the short
      // collectives (progress happens only inside test()).
      fill(0);
      const std::uint64_t t0 = now_ns();
      request.emplace(world_.iall_reduce_sum(span(0)));
      entry_[0] = t0;
      dur_[0] = now_ns() - t0;
      first = 1;
    }
    for (std::size_t c = first; c < spec_.shapes.size(); ++c) {
      fill(c);
      const std::uint64_t t0 = now_ns();
      call(c);
      const std::uint64_t t1 = now_ns();
      entry_[c] = t0;
      dur_[c] = t1 - t0;
      ok = verify(c) && ok;
      if (request) {
        const std::uint64_t p0 = now_ns();
        ++polls;
        if (request->test()) request.reset();
        dur_[0] += now_ns() - p0;
      }
    }
    if (request) {
      const std::uint64_t p0 = now_ns();
      // Yield between polls: a tight test() loop on every rank keeps the
      // channel locks hot and starves the shm pump that must stage the
      // payloads these polls are waiting for.
      for (++polls; !request->test(); ++polls) std::this_thread::yield();
      request.reset();
      dur_[0] += now_ns() - p0;
    }
    if (first == 1) {
      ok = verify(0) && ok;
      polls_ += polls;
      ++requests_;
    }
    return ok;
  }

  /// The timed, untraced closed loop.  Every step starts at a barrier, so
  /// its first call does not absorb the previous step's imbalance and the
  /// step's latency is measured from a common start.
  void timed_loop() {
    sh_.barrier.arrive_and_wait(
        [&] { sh_.loop_start = snapshot(); });
    const std::uint64_t deadline =
        sh_.loop_start.t_ns +
        static_cast<std::uint64_t>(sh_.untimed_seconds * 1e9);
    const std::size_t n = spec_.shapes.size();
    polls_ = 0;
    requests_ = 0;
    for (std::uint64_t step = 0;; ++step) {
      sh_.barrier.arrive_and_wait([&] {
        sh_.loop_stop = now_ns() >= deadline;
        if (step == spec_.rss_step) sh_.fixed_work_rss_kb = peak_rss_kb();
      });
      if (sh_.loop_stop) break;
      const bool ok = communicator_step();
      std::uint64_t span_ns = 0;
      for (std::size_t c = 0; c < n; ++c) {
        span_ns += dur_[c];
        values_[1 + c] = dur_[c];
        values_[1 + n + c] = entry_[c];
      }
      values_[0] = span_ns;
      sh_.steps->submit(step, node_.id(), values_.data(), !ok);
    }
    sh_.polls.fetch_add(polls_);
    sh_.requests.fetch_add(requests_);
    sh_.barrier.arrive_and_wait([&] {
      sh_.loop_end = snapshot();
      // A run too short to reach the fixed amount of work reports its end.
      if (sh_.fixed_work_rss_kb == 0.0) sh_.fixed_work_rss_kb = peak_rss_kb();
    });
  }

  /// Looks up the CompiledPlan the Communicator executes for each shape and
  /// counts the messages it sends.
  void bind_plans() {
    const std::size_t threshold =
        node_.machine().transport().rendezvous_threshold();
    for (std::size_t c = 0; c < spec_.shapes.size(); ++c) {
      const Shape& s = spec_.shapes[c];
      Communicator& cm = comm(s);
      const PlanCache::Key key{collective_of(s.kind), s.elems, sizeof(double),
                               s.kind == Kind::kBroadcast ? s.root : 0};
      // find() is non-const only because it counts the hit; the ledger's
      // own lookups are subtracted from plan_cache.hit_ratio.
      PlanCache::CachedPlan* entry =
          const_cast<PlanCache&>(cm.plan_cache()).find(key);
      sh_.ledger_lookups.fetch_add(1);
      if (entry == nullptr || !entry->compiled) {
        throw std::runtime_error("no cached compiled plan for " + s.name);
      }
      plans_.push_back(entry->compiled);
      const CProgram* program = entry->compiled->find_program(node_.id());
      if (program == nullptr) {
        throw std::runtime_error("rank has no program in " + s.name);
      }
      programs_.push_back(program);
      const SendCounts counts = count_sends(*program, threshold);
      sh_.send_messages.fetch_add(counts.messages);
      sh_.send_bytes.fetch_add(counts.bytes);
      sh_.send_rendezvous.fetch_add(counts.rendezvous);
      staging_bytes_ = std::max(staging_bytes_, max_operand_bytes(*program));
    }
    // Floor staging stands in for message payloads: small integers, so
    // folds over it stay exact and never hit slow paths.
    staging_.assign(staging_bytes_ / sizeof(double) + 1, 1.0);
  }

  ProgramView view(std::size_t c, std::vector<std::byte>& arena) {
    const Shape& s = spec_.shapes[c];
    ProgramView v;
    v.program = programs_[c];
    v.node = node_.id();
    v.user = bytes(c);
    v.arena = &arena;
    v.reduce = (s.kind == Kind::kAllReduce || s.kind == Kind::kReduceScatter)
                   ? &sum_
                   : nullptr;
    return v;
  }

  /// Runs shape c once through `phase`'s entry point.  Returns the span.
  std::uint64_t run_entry(Phase phase, std::size_t c) {
    intercom::Transport& transport = node_.machine().transport();
    const std::uint64_t ctx =
        intercom::collective_context(kLedgerContextBase, ledger_seq_++);
    const std::span<const std::byte> staging =
        std::as_bytes(std::span<const double>(staging_));
    const ProgramView v = view(c, walk_arena_);
    const std::uint64_t t0 = now_ns();
    switch (phase) {
      case Phase::kCommunicator:
        break;  // handled by communicator_step
      case Phase::kExecute:
        intercom::execute_compiled(transport, *plans_[c], node_.id(), bytes(c),
                                   ctx, v.reduce, exec_arena_);
        break;
      case Phase::kTransportReliable:
      case Phase::kTransport:
        walk_transport(transport, v, ctx);
        break;
      case Phase::kFabric:
        walk_fabric(transport.fabric(), transport.rendezvous_threshold(), v,
                    ctx);
        break;
      case Phase::kFabricInproc:
        walk_fabric(*sh_.inproc, transport.rendezvous_threshold(), v, ctx);
        break;
      case Phase::kFloorCopy:
        walk_floor(v, FloorPart::kCopy, staging);
        break;
      case Phase::kFloorFold:
        walk_floor(v, FloorPart::kFold, staging);
        break;
    }
    return now_ns() - t0;
  }

  /// Per-step replay of every shape through every entry point.
  void traced_loop() {
    intercom::Transport& transport = node_.machine().transport();
    const std::size_t nphases = sh_.phases.size();
    std::vector<std::uint64_t> values(nphases + 1, 0);
    // Span names were interned as "step", then the phases, then the shapes.
    const std::uint32_t step_name = 0;
    const std::uint32_t shape_name0 = 1 + static_cast<std::uint32_t>(nphases);
    sh_.barrier.arrive_and_wait([&] {
      sh_.traced_deadline_ns =
          now_ns() + static_cast<std::uint64_t>(sh_.traced_seconds * 1e9);
    });
    for (std::uint64_t step = 0;; ++step) {
      sh_.barrier.arrive_and_wait([&] {
        if (spec_.reliable) transport.set_reliable(true);
        sh_.traced_stop = now_ns() >= sh_.traced_deadline_ns;
      });
      if (sh_.traced_stop) break;
      bool ok = true;
      const int rank = node_.id();
      const std::int32_t step_span =
          sh_.spans->open(rank, step_name, -1, step, now_ns());
      std::uint64_t floor_total = 0;
      for (std::size_t pi = 0; pi < nphases; ++pi) {
        const Phase phase = sh_.phases[pi];
        if (phase == Phase::kTransport && spec_.reliable) {
          sh_.barrier.arrive_and_wait([&] { transport.set_reliable(false); });
        } else {
          sh_.barrier.arrive_and_wait();
        }
        const std::int32_t phase_span = sh_.spans->open(
            rank, 1 + static_cast<std::uint32_t>(pi), step_span, step, now_ns());
        std::uint64_t total = 0;
        if (phase == Phase::kCommunicator) {
          ok = communicator_step() && ok;
          for (std::size_t c = 0; c < spec_.shapes.size(); ++c) {
            total += dur_[c];
            const std::int32_t s = sh_.spans->open(
                rank, shape_name0 + static_cast<std::uint32_t>(c), phase_span,
                step, entry_[c]);
            sh_.spans->close(rank, s, entry_[c] + dur_[c]);
          }
        } else {
          const bool floor =
              phase == Phase::kFloorCopy || phase == Phase::kFloorFold;
          for (std::size_t c = 0; c < spec_.shapes.size(); ++c) {
            if (!floor) fill(c);
            const std::uint64_t t0 = now_ns();
            const std::uint64_t d = run_entry(phase, c);
            total += d;
            const std::int32_t s = sh_.spans->open(
                rank, shape_name0 + static_cast<std::uint32_t>(c), phase_span,
                step, t0);
            sh_.spans->close(rank, s, t0 + d);
            if (!floor) ok = verify(c) && ok;
          }
          if (floor) floor_total += total;
        }
        sh_.spans->close(rank, phase_span, now_ns());
        values[pi] = total;
      }
      values[nphases] = floor_total;
      sh_.spans->close(rank, step_span, now_ns());
      sh_.ledger->submit(step, rank, values.data(), !ok);
    }
  }

  /// Planner and compile cost of one step's shapes (rank 0, untimed part).
  void measure_plan_and_compile() {
    constexpr int kReps = 15;
    double plan_total = 0.0;
    double compile_total = 0.0;
    const intercom::Planner& planner = node_.machine().planner();
    for (std::size_t c = 0; c < spec_.shapes.size(); ++c) {
      const Shape& s = spec_.shapes[c];
      Communicator& cm = comm(s);
      std::vector<double> plan_us;
      std::vector<double> compile_us;
      for (int r = 0; r < kReps; ++r) {
        const std::uint64_t t0 = now_ns();
        const intercom::Schedule schedule =
            planner.plan(collective_of(s.kind), cm.group(), s.elems,
                         sizeof(double),
                         s.kind == Kind::kBroadcast ? s.root : 0);
        const std::uint64_t t1 = now_ns();
        const CompiledPlan compiled(schedule, &node_.machine().tracer());
        const std::uint64_t t2 = now_ns();
        plan_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        compile_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      }
      plan_total += median(plan_us);
      compile_total += median(compile_us);
    }
    sh_.plan_us = plan_total;
    sh_.compile_us = compile_total;
  }

  void publish_cache_stats() {
    auto add = [&](const Communicator& cm) {
      sh_.cache_hits.fetch_add(cm.plan_cache().hits());
      sh_.cache_misses.fetch_add(cm.plan_cache().misses());
    };
    add(world_);
    if (row_) add(*row_);
    if (col_) add(*col_);
  }

 private:
  Node& node_;
  Shared& sh_;
  const Spec& spec_;
  Communicator world_;
  std::optional<Communicator> row_;
  std::optional<Communicator> col_;
  ReduceOp sum_;
  std::vector<std::vector<double>> buffers_;
  std::vector<bool> buffer_async_;
  std::vector<std::size_t> buffer_of_;
  std::vector<std::uint64_t> invocations_;
  std::vector<double> bases_;
  std::vector<std::uint64_t> dur_;
  std::vector<std::uint64_t> entry_;
  std::vector<std::uint64_t> values_;
  std::uint64_t polls_ = 0;
  std::uint64_t requests_ = 0;
  // Ledger state.
  std::vector<std::shared_ptr<const CompiledPlan>> plans_;
  std::vector<const CProgram*> programs_;
  std::vector<std::byte> exec_arena_;
  std::vector<std::byte> walk_arena_;
  std::vector<double> staging_;
  std::size_t staging_bytes_ = 0;
  std::uint64_t ledger_seq_ = 0;
};

intercom::FabricSpec fabric_spec(const Spec& spec) {
  intercom::FabricSpec f;
  f.name = spec.fabric;
  return f;
}

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 7;

struct MachineEnd {
  intercom::Transport::ReliabilityStats reliability{};
  intercom::BufferPool::Stats pool{};
};

/// One set-up: seconds from the start until the slowest rank finished the
/// first, untimed step (negative when the set-up threw), and whether every
/// output of that step was right.
struct SetupSample {
  double seconds = -1.0;
  bool ok = false;
};

/// Builds the machine and runs the first, untimed step on every rank.  With
/// `full` the ranks go on into the timed loop and, when traced, the ledger;
/// `end` receives the transport's counters afterwards.
SetupSample run_machine(Shared& sh, bool full, MachineEnd* end) {
  const Spec& spec = sh.spec;
  std::vector<std::uint64_t> ready_ns(static_cast<std::size_t>(sh.p), 0);
  std::atomic<bool> first_ok{true};
  const std::uint64_t t0 = now_ns();
  Multicomputer machine(Mesh2D(spec.rows, spec.cols), MachineParams::paragon(),
                        fabric_spec(spec));
  machine.set_reliable(spec.reliable);
  machine.run_spmd([&](Node& node) {
    try {
      RankRunner runner(node, sh);
      if (!runner.communicator_step()) first_ok = false;
      ready_ns[static_cast<std::size_t>(node.id())] = now_ns();
      if (!full) return;
      runner.timed_loop();
      if (sh.opt.trace) {
        runner.bind_plans();
        sh.barrier.arrive_and_wait();
        if (node.id() == 0) runner.measure_plan_and_compile();
        runner.traced_loop();
      }
      runner.publish_cache_stats();
    } catch (...) {
      sh.barrier.abort();
      throw;
    }
  });
  if (end != nullptr) {
    end->reliability = machine.transport().reliability_stats();
    end->pool = machine.transport().pool().stats();
  }
  const std::uint64_t ready = *std::max_element(ready_ns.begin(), ready_ns.end());
  return {static_cast<double>(ready - t0) / 1e9, first_ok.load()};
}

/// One set-up in a forked child, so every sample is a cold first set-up —
/// fresh heap, unfaulted pages, no allocator history — like the one a
/// user's process pays.  Call only while the process has a single thread.
SetupSample setup_in_child(Shared& sh) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    SetupSample sample;
    try {
      sample = run_machine(sh, /*full=*/false, nullptr);
    } catch (...) {
      sample = SetupSample{};
    }
    const ssize_t written = write(fds[1], &sample, sizeof sample);
    _exit(written == static_cast<ssize_t>(sizeof sample) ? 0 : 1);
  }
  close(fds[1]);
  SetupSample sample;
  pollfd pfd{fds[0], POLLIN, 0};
  if (poll(&pfd, 1, /*timeout_ms=*/60000) > 0 &&
      read(fds[0], &sample, sizeof sample) !=
          static_cast<ssize_t>(sizeof sample)) {
    sample = SetupSample{};
  }
  close(fds[0]);
  kill(pid, SIGKILL);  // no-op once it has exited; ends a hung child
  waitpid(pid, nullptr, 0);
  return sample;
}

double us(double ns) { return ns / 1e3; }

}  // namespace

Result run_runtime_workload(const Options& opt) {
  const Spec spec = make_spec(opt.workload, opt.seed);
  Shared sh(spec, opt);
  sh.untimed_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  sh.traced_seconds = opt.seconds - sh.untimed_seconds;
  const std::size_t n = spec.shapes.size();
  {
    std::vector<Reduce> reduces(1 + 2 * n, Reduce::kMax);
    for (std::size_t c = 0; c < n; ++c) reduces[1 + n + c] = Reduce::kSkew;
    sh.steps = std::make_unique<StepCollector>(sh.p, reduces);
  }
  if (opt.trace) {
    sh.ledger = std::make_unique<StepCollector>(
        sh.p, std::vector<Reduce>(sh.phases.size() + 1, Reduce::kMax));
    sh.spans = std::make_unique<SpanLog>(sh.p, std::size_t{1} << 14);
    sh.spans->intern("step");
    for (Phase ph : sh.phases) sh.spans->intern(phase_name(ph));
    for (const Shape& s : spec.shapes) sh.spans->intern(s.name);
    if (spec.fabric != "inproc") {
      sh.inproc_pool = std::make_unique<intercom::BufferPool>();
      sh.inproc = std::make_unique<intercom::InProcFabric>(sh.p);
      sh.inproc->attach_pool(*sh.inproc_pool);
    }
  }

  Result result;
  std::vector<double> setup_s;
  std::uint64_t setup_failures = 0;
  auto record = [&](const SetupSample& sample) {
    if (sample.seconds >= 0.0) setup_s.push_back(sample.seconds);
    if (sample.seconds < 0.0 || !sample.ok) ++setup_failures;
  };
  // Every sample but the last comes from a child forked before this
  // process starts any thread; the last is this process's own set-up.
  for (int k = 0; k + 1 < kSetups; ++k) record(setup_in_child(sh));
  MachineEnd machine_end;
  record(run_machine(sh, /*full=*/true, &machine_end));
  const intercom::Transport::ReliabilityStats& reliability =
      machine_end.reliability;
  const intercom::BufferPool::Stats& pool_end = machine_end.pool;

  const std::uint64_t steps = sh.steps->steps();
  result.attempted = steps + kSetups;
  result.failed = sh.steps->failed() + setup_failures;
  if (sh.ledger) {
    result.attempted += sh.ledger->steps();
    result.failed += sh.ledger->failed();
  }
  const double wall_s =
      static_cast<double>(sh.loop_end.t_ns - sh.loop_start.t_ns) / 1e9;
  const double step_p50_ns = sh.steps->hist(0).quantile(0.5);
  const double steps_d = static_cast<double>(std::max<std::uint64_t>(steps, 1));

  if (!opt.trace) {
    result.set("step_p10_ms", sh.steps->hist(0).quantile(0.1) / 1e6, "ms");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", sh.fixed_work_rss_kb / 1024.0, "MiB");
  } else {
    auto phase_median = [&](Phase ph) {
      for (std::size_t i = 0; i < sh.phases.size(); ++i) {
        if (sh.phases[i] == ph) return sh.ledger->hist(i).quantile(0.5);
      }
      return 0.0;
    };
    const bool wire = spec.fabric != "inproc";
    const double e1 = phase_median(Phase::kCommunicator);
    const double e2 = phase_median(Phase::kExecute);
    const double e3_raw = phase_median(Phase::kTransport);
    const double e3_rel = wire ? phase_median(Phase::kTransportReliable) : e3_raw;
    const double e4 = phase_median(Phase::kFabric);
    const double e4_inproc = wire ? phase_median(Phase::kFabricInproc) : e4;
    const double floor_total =
        sh.ledger->hist(sh.phases.size()).quantile(0.5);

    result.set("step_p50_ms", step_p50_ns / 1e6, "ms");
    result.set("step_p99_ms", sh.steps->hist(0).quantile(0.99) / 1e6, "ms");
    result.set("steps_per_s", static_cast<double>(steps) / wall_s, "1/s");
    result.set("communicator.self_us", us(e1 - e2), "us");
    result.set("plancursor.self_us", us(e2 - (wire ? e3_rel : e3_raw)), "us");
    result.set("transport.self_us", us(e3_raw - e4), "us");
    result.set("transport.reliable_extra_us", wire ? us(e3_rel - e3_raw) : 0.0,
               "us");
    result.set("fabric.self_us", us(e4_inproc - floor_total), "us");
    result.set("wire.self_us", wire ? us(e4 - e4_inproc) : 0.0, "us");
    result.set("floor.copy_us", us(phase_median(Phase::kFloorCopy)), "us");
    result.set("floor.fold_us", us(phase_median(Phase::kFloorFold)), "us");

    const double hits = static_cast<double>(sh.cache_hits.load()) -
                        static_cast<double>(sh.ledger_lookups.load());
    const double misses = static_cast<double>(sh.cache_misses.load());
    result.set("plan_cache.hit_ratio", hits / (hits + misses), "ratio");
    result.set("compiled_plan.compile_us", sh.compile_us, "us");
    result.set("planner.plan_us", sh.plan_us, "us");
    const std::uint64_t requests = sh.requests.load();
    result.set("async.polls_per_request",
               requests == 0 ? 0.0
                             : static_cast<double>(sh.polls.load()) /
                                   static_cast<double>(requests),
               "count");
    const double msgs = static_cast<double>(sh.send_messages.load());
    result.set("transport.msgs_per_step", msgs, "count");
    result.set("transport.bytes_per_step",
               static_cast<double>(sh.send_bytes.load()), "B");
    result.set("transport.rendezvous_share",
               msgs == 0 ? 0.0
                         : static_cast<double>(sh.send_rendezvous.load()) / msgs,
               "ratio");
    const double frames = static_cast<double>(reliability.frames_sent);
    result.set("transport.retransmit_ratio",
               frames == 0 ? 0.0
                           : static_cast<double>(reliability.retransmits) / frames,
               "ratio");
    result.set("transport.checksums_per_frame",
               frames == 0 ? 0.0
                           : static_cast<double>(
                                 reliability.checksum_validations) /
                                 frames,
               "ratio");
    result.set("rss_kb_per_step",
               (sh.loop_end.rss_kb - sh.loop_start.rss_kb) / steps_d, "KiB");
    result.set("allocs_per_step",
               static_cast<double>(sh.loop_end.allocs - sh.loop_start.allocs) /
                   steps_d,
               "count");
    const double reuses = static_cast<double>(pool_end.reuses);
    const double fresh = static_cast<double>(pool_end.allocations);
    result.set("buffer_pool.reuse_ratio",
               reuses + fresh == 0 ? 0.0 : reuses / (reuses + fresh), "ratio");
    result.set("buffer_pool.cached_mb",
               static_cast<double>(pool_end.cached_bytes) / (1024.0 * 1024.0),
               "MiB");

    double skew = 0.0;
    double per_kind[kKinds] = {0, 0, 0, 0};
    for (std::size_t c = 0; c < n; ++c) {
      skew += sh.steps->hist(1 + n + c).quantile(0.5);
      per_kind[static_cast<int>(spec.shapes[c].kind)] +=
          sh.steps->hist(1 + c).quantile(0.5);
    }
    result.set("wait.arrival_skew_us", us(skew), "us");
    for (int kd = 0; kd < kKinds; ++kd) {
      result.set(std::string("collective.") + kind_name(static_cast<Kind>(kd)) +
                     ".p50_us",
                 us(per_kind[kd]), "us");
    }
    result.set("trace.overhead_ratio",
               step_p50_ns > 0 ? e1 / step_p50_ns : 0.0, "ratio");
    for (const char* name : {"sim.run_ms", "sim.setup_ms"}) result.set(name, 0.0, "ms");
    result.set("sim.transfers_per_s", 0.0, "1/s");
    result.set("sim.transfers", 0.0, "count");
    result.set("sim.peak_link_load", 0.0, "count");
    result.set("model_vs_nx", 0.0, "ratio");

    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-spans.csv";
    if (sh.spans->write_csv(path)) {
      result.notes.push_back("spans: " + path + " (" +
                             std::to_string(sh.spans->dropped()) +
                             " dropped past capacity)");
    }
    std::ostringstream ledger;
    ledger << "ledger medians per step (us):";
    for (std::size_t i = 0; i < sh.phases.size(); ++i) {
      ledger << ' ' << phase_name(sh.phases[i]) << '='
             << us(sh.ledger->hist(i).quantile(0.5));
    }
    ledger << " over " << sh.ledger->steps() << " traced steps";
    result.notes.push_back(ledger.str());
  }

  std::ostringstream summary;
  summary << opt.workload << ": " << steps << " timed steps in " << wall_s
          << " s, step p50 " << step_p50_ns / 1e6 << " ms, p99 "
          << sh.steps->hist(0).quantile(0.99) / 1e6 << " ms ("
          << (steps >= 1000 ? "" : "fewer than 10 steps beyond p99; ")
          << "n=" << steps << "), setups(s):";
  for (double s : setup_s) summary << ' ' << s;
  result.notes.push_back(summary.str());
  std::ostringstream spread;
  spread << "step quantiles (ms):";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    spread << " p" << q * 100 << '=' << sh.steps->hist(0).quantile(q) / 1e6;
  }
  result.notes.push_back(spread.str());
  std::ostringstream per_shape;
  per_shape << "per-shape p50 (us):";
  for (std::size_t c = 0; c < n; ++c) {
    per_shape << ' ' << spec.shapes[c].name << '='
              << us(sh.steps->hist(1 + c).quantile(0.5));
  }
  result.notes.push_back(per_shape.str());
  return result;
}

int peel_check(const std::string& workload, std::uint64_t seed,
               std::ostream& log) {
  Options opt;
  opt.workload = workload;
  opt.seed = seed;
  const Spec spec = make_spec(workload, seed);
  Shared sh(spec, opt);
  sh.steps = std::make_unique<StepCollector>(
      sh.p, std::vector<Reduce>(1 + 2 * spec.shapes.size(), Reduce::kMax));
  Multicomputer machine(Mesh2D(spec.rows, spec.cols), MachineParams::paragon(),
                        fabric_spec(spec));
  machine.set_reliable(spec.reliable);
  std::atomic<int> mismatches{0};
  std::mutex log_mutex;
  std::vector<Phase> entries;
  for (Phase phase : sh.phases) {
    if (phase != Phase::kCommunicator && phase != Phase::kFloorCopy &&
        phase != Phase::kFloorFold) {
      entries.push_back(phase);
    }
  }
  if (spec.fabric != "inproc") {
    sh.inproc_pool = std::make_unique<intercom::BufferPool>();
    sh.inproc = std::make_unique<intercom::InProcFabric>(sh.p);
    sh.inproc->attach_pool(*sh.inproc_pool);
  }
  machine.run_spmd([&](Node& node) {
    try {
      RankRunner runner(node, sh);
      runner.communicator_step();  // plans and compiles every shape
      runner.bind_plans();
      for (std::size_t c = 0; c < spec.shapes.size(); ++c) {
        const double base = shape_base(seed, c, 1u << 20);
        const auto range = runner.output_range(c);
        auto out = [&] {
          const double* x = runner.data(c);
          return std::vector<double>(x + range.lo, x + range.hi);
        };
        auto poison = [&] {
          std::span<double> s = runner.span(c);
          std::fill(s.begin(), s.end(), -1.0);
          runner.fill_with(c, base);
        };
        poison();
        sh.barrier.arrive_and_wait(
            [&] { machine.set_reliable(spec.reliable); });
        runner.call(c);
        const std::vector<double> reference = out();
        const bool closed_form = runner.verify_with(c, base);
        for (Phase phase : entries) {
          poison();
          // The raw Transport walk runs with reliability disarmed, as in
          // the traced replay.
          sh.barrier.arrive_and_wait([&] {
            machine.set_reliable(spec.reliable && phase != Phase::kTransport);
          });
          runner.run_entry(phase, c);
          const std::vector<double> got = out();
          const bool same =
              got.size() == reference.size() &&
              std::memcmp(got.data(), reference.data(),
                          got.size() * sizeof(double)) == 0;
          if (!same || !closed_form) {
            mismatches.fetch_add(1);
            std::lock_guard<std::mutex> lock(log_mutex);
            log << workload << " rank " << node.id() << " "
                << spec.shapes[c].name << " " << phase_name(phase) << ": "
                << (closed_form ? "bytes differ from the Communicator's"
                                : "Communicator output is wrong")
                << "\n";
          }
        }
      }
    } catch (...) {
      sh.barrier.abort();
      throw;
    }
  });
  return mismatches.load();
}

}  // namespace perfbench

namespace perfbench {

std::vector<std::string> workload_names() {
  return {"solver", "bulk", "wire", "simscale"};
}

bool is_runtime_workload(const std::string& name) { return name != "simscale"; }

}  // namespace perfbench
