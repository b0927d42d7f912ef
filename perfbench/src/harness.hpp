// Measurement plumbing shared by every workload: clocks, log-bucketed
// histograms that keep the mean of each bucket (so a reported quantile is a
// measured value, not a bucket edge), the cross-rank step collector that
// turns per-rank spans into "slowest rank" step samples, the in-memory span
// log of traced runs, process counters (allocations, RSS), and the result
// record every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Global operator-new calls made by this process so far (alloc_counter.cpp).
std::uint64_t alloc_count();

/// Current resident set in KiB (/proc/self/statm).
double current_rss_kb();
/// Peak resident set in KiB (/proc/self/status VmHWM).
double peak_rss_kb();

/// Median of a small sample (copies; empty -> 0).
double median(std::vector<double> values);
/// Nearest-rank quantile of a small sample (copies; empty -> 0).
double quantile(std::vector<double> values, double q);

/// Log-linear histogram over non-negative integers (nanoseconds): exact
/// below 256, then 128 buckets per octave (0.8% wide).  Each bucket keeps
/// its count and sum, and quantile() returns the mean of the samples in the
/// bucket holding the nearest-rank quantile.  Fixed size: add() never
/// allocates.
class Histogram {
 public:
  Histogram();
  void add(std::uint64_t value);
  /// 0 when empty.
  double quantile(double q) const;

 private:
  static std::size_t index(std::uint64_t value);
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> sums_;
  std::uint64_t n_ = 0;
};

/// How a value reported by every rank for one step becomes one sample.
enum class Reduce {
  kMax,   ///< the slowest rank's value (spans)
  kSkew,  ///< max - min across ranks (arrival timestamps)
};

/// Combines per-rank values of each step into per-step samples.  Every rank
/// submits its values for step s; the last rank to submit reduces them (one
/// sample per value index) into that index's histogram.  A small ring of
/// slots lets ranks drift a few steps apart; submit() never allocates.
class StepCollector {
 public:
  StepCollector(int ranks, std::vector<Reduce> reduces);

  /// `values` holds one entry per value index.  `bad` marks a wrong output
  /// seen by this rank in this step.
  void submit(std::uint64_t step, int rank, const std::uint64_t* values,
              bool bad);

  const Histogram& hist(std::size_t index) const { return hists_[index]; }
  std::uint64_t steps() const { return steps_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  static constexpr std::size_t kSlots = 8;
  struct Slot {
    std::atomic<std::uint64_t> ready_for{0};
    std::atomic<int> arrived{0};
    std::vector<std::uint64_t> values;  ///< [rank * width + index]
    std::vector<char> bad;
  };
  int ranks_;
  std::vector<Reduce> reduces_;
  std::unique_ptr<Slot[]> slots_;
  std::mutex hist_mutex_;
  std::vector<Histogram> hists_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// In-memory span log of a traced run: name, start, end, parent and step,
/// per rank, in preallocated storage (spans past the capacity are counted,
/// not stored).  Written out once, after the run.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index into the same rank's spans
    std::uint64_t step = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  SpanLog(int ranks, std::size_t per_rank_capacity);
  /// Interns `name` (call before the run; not thread-safe).
  std::uint32_t intern(const std::string& name);
  /// Opens a span; returns its index (or -1 once full).
  std::int32_t open(int rank, std::uint32_t name, std::int32_t parent,
                    std::uint64_t step, std::uint64_t start_ns);
  void close(int rank, std::int32_t index, std::uint64_t end_ns);
  /// Writes one CSV line per span; false when the file cannot be written.
  bool write_csv(const std::string& path) const;
  std::uint64_t dropped() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<Span>> spans_;
  std::vector<std::size_t> used_;
  std::vector<std::uint64_t> dropped_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its span log
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Deterministic 64-bit mix (splitmix64 finalizer) for seeded inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
