#include "harness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

/// Reads a small /proc file into `buf` without allocating (the timed loop
/// samples memory, and allocs_per_step must count only the library).
std::size_t read_proc(const char* path, char* buf, std::size_t cap) {
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = read(fd, buf, cap - 1);
  close(fd);
  const std::size_t len = n > 0 ? static_cast<std::size_t>(n) : 0;
  buf[len] = '\0';
  return len;
}

}  // namespace

double current_rss_kb() {
  char buf[256];
  if (read_proc("/proc/self/statm", buf, sizeof buf) == 0) return 0.0;
  long pages_total = 0;
  long pages_resident = 0;
  if (std::sscanf(buf, "%ld %ld", &pages_total, &pages_resident) != 2) {
    return 0.0;
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double peak_rss_kb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint whenever
  // that was larger.
  char buf[4096];
  if (read_proc("/proc/self/status", buf, sizeof buf) == 0) return 0.0;
  const char* line = std::strstr(buf, "VmHWM:");
  return line == nullptr ? 0.0 : std::strtod(line + 6, nullptr);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- Histogram -------------------------------------------------------------

namespace {
constexpr int kSubBits = 7;                            // 128 per octave
constexpr std::uint64_t kExact = std::uint64_t{2} << kSubBits;  // 256
constexpr int kMaxShift = 40;                          // ~2^47 ns cap
constexpr std::size_t kBuckets =
    kExact + static_cast<std::size_t>(kMaxShift) * (std::size_t{1} << kSubBits);
}  // namespace

Histogram::Histogram() : counts_(kBuckets, 0), sums_(kBuckets, 0) {}

std::size_t Histogram::index(std::uint64_t value) {
  if (value < kExact) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = std::min(msb - kSubBits, kMaxShift);
  const std::uint64_t sub =
      std::min<std::uint64_t>(value >> shift, (kExact - 1)) -
      (std::uint64_t{1} << kSubBits);
  return static_cast<std::size_t>(
      kExact + static_cast<std::uint64_t>(shift - 1) * (std::uint64_t{1} << kSubBits) +
      sub);
}

void Histogram::add(std::uint64_t value) {
  const std::size_t i = index(value);
  ++counts_[i];
  sums_[i] += value;
  ++n_;
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double rank_d = std::ceil(q * static_cast<double>(n_));
  const std::uint64_t rank =
      std::clamp<std::uint64_t>(static_cast<std::uint64_t>(rank_d), 1, n_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return static_cast<double>(sums_[i]) / static_cast<double>(counts_[i]);
    }
  }
  return 0.0;  // unreachable: the buckets hold n_ samples
}

// ---- StepCollector ---------------------------------------------------------

StepCollector::StepCollector(int ranks, std::vector<Reduce> reduces)
    : ranks_(ranks),
      reduces_(std::move(reduces)),
      slots_(new Slot[kSlots]),
      hists_(reduces_.size()) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    slots_[i].ready_for.store(i);
    slots_[i].values.assign(
        static_cast<std::size_t>(ranks_) * reduces_.size(), 0);
    slots_[i].bad.assign(static_cast<std::size_t>(ranks_), 0);
  }
}

void StepCollector::submit(std::uint64_t step, int rank,
                           const std::uint64_t* values, bool bad) {
  Slot& slot = slots_[step % kSlots];
  while (slot.ready_for.load(std::memory_order_acquire) != step) {
    std::this_thread::yield();
  }
  const std::size_t width = reduces_.size();
  std::copy(values, values + width,
            slot.values.begin() +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rank) * width));
  slot.bad[static_cast<std::size_t>(rank)] = bad ? 1 : 0;
  if (slot.arrived.fetch_add(1, std::memory_order_acq_rel) != ranks_ - 1) {
    return;
  }
  bool any_bad = false;
  {
    std::lock_guard<std::mutex> lock(hist_mutex_);
    for (std::size_t v = 0; v < width; ++v) {
      std::uint64_t hi = slot.values[v];
      std::uint64_t lo = hi;
      for (int r = 1; r < ranks_; ++r) {
        const std::uint64_t x =
            slot.values[static_cast<std::size_t>(r) * width + v];
        hi = std::max(hi, x);
        lo = std::min(lo, x);
      }
      hists_[v].add(reduces_[v] == Reduce::kMax ? hi : hi - lo);
    }
  }
  for (int r = 0; r < ranks_; ++r) any_bad = any_bad || slot.bad[static_cast<std::size_t>(r)] != 0;
  steps_.fetch_add(1);
  if (any_bad) failed_.fetch_add(1);
  slot.arrived.store(0, std::memory_order_relaxed);
  slot.ready_for.store(step + kSlots, std::memory_order_release);
}

// ---- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog(int ranks, std::size_t per_rank_capacity)
    : spans_(static_cast<std::size_t>(ranks)),
      used_(static_cast<std::size_t>(ranks), 0),
      dropped_(static_cast<std::size_t>(ranks), 0) {
  for (auto& v : spans_) v.resize(per_rank_capacity);
}

std::uint32_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::open(int rank, std::uint32_t name, std::int32_t parent,
                           std::uint64_t step, std::uint64_t start_ns) {
  const auto r = static_cast<std::size_t>(rank);
  if (used_[r] >= spans_[r].size()) {
    ++dropped_[r];
    return -1;
  }
  Span& s = spans_[r][used_[r]];
  s.name = name;
  s.parent = parent;
  s.step = step;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  return static_cast<std::int32_t>(used_[r]++);
}

void SpanLog::close(int rank, std::int32_t index, std::uint64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(index)]
      .end_ns = end_ns;
}

std::uint64_t SpanLog::dropped() const {
  std::uint64_t total = 0;
  for (std::uint64_t d : dropped_) total += d;
  return total;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "rank,index,name,parent,step,start_ns,end_ns\n";
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    for (std::size_t i = 0; i < used_[r]; ++i) {
      const Span& s = spans_[r][i];
      os << r << ',' << i << ',' << names_[s.name] << ',' << s.parent << ','
         << s.step << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
