#pragma once
// Telemetry registry: named counters, gauges and fixed-bucket histograms
// for instrumenting the simulator's hot paths, plus scoped wall-clock
// timers (WRSN_OBS_SCOPE).
//
// Design constraints, in order:
//   1. Heisenberg: telemetry must never influence simulated physics. The
//      registry only ever *observes* — nothing in the simulator branches on
//      its contents.
//   2. Near-zero cost when disabled. Instrumentation sites resolve a
//      thread-local registry pointer; when no registry is installed the
//      whole site is a load + branch (no clock read, no allocation).
//   3. Thread-safe when enabled. Replica sweeps run on core/thread_pool
//      with one registry per replica, but tests (and future shared-registry
//      users) hammer a single registry from many workers, so every mutation
//      is atomic and metric creation is mutex-guarded.
//
// Metric objects are owned by the registry and have stable addresses for
// its lifetime: call-sites may cache Counter*/Histogram* handles and update
// them lock-free.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wrsn::obs {

// Monotonically increasing event count (events popped, cache hits, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written double with an atomic "keep the maximum" update for
// high-water marks.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void record_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations v <= bounds[i]; one
// implicit overflow bucket counts the rest. Bounds are frozen at creation
// (Prometheus classic-histogram semantics), so concurrent observers only
// touch atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const noexcept;  // 0 when empty
  [[nodiscard]] double max() const noexcept;  // 0 when empty

  // Folds `other` (same bounds, quiescent) into this histogram exactly:
  // bucket counts, totals, sum and min/max all add/extend.
  void merge_from(const Histogram& other);

  // Default bounds for wall-clock timers: a 1-2-5 series from 1us to 10s.
  [[nodiscard]] static std::vector<double> timer_bounds_seconds();

 private:
  std::vector<double> bounds_;  // sorted ascending
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Named metric store. Lookup/creation takes a mutex; the returned references
// stay valid for the registry's lifetime and are updated lock-free.
class TelemetryRegistry {
 public:
  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Creates with the given bounds on first use; later calls ignore `bounds`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  // Histogram with the default timer bounds (seconds).
  Histogram& timer(const std::string& name);

  [[nodiscard]] bool empty() const;

  // Folds `other` into this registry: counters and histogram buckets add,
  // gauges keep the maximum (the only gauges we emit are high-water marks).
  // `other` must be quiescent (no concurrent writers).
  void merge_from(const TelemetryRegistry& other);

  // Machine-readable exports. Schema documented in docs/ARCHITECTURE.md
  // ("Observability"); kTelemetrySchemaVersion guards field changes.
  [[nodiscard]] std::string to_json() const;
  // Prometheus text exposition (counters/gauges/histograms; names are
  // sanitized to [a-z0-9_] and prefixed with "wrsn_").
  [[nodiscard]] std::string to_prometheus() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

inline constexpr int kTelemetrySchemaVersion = 1;

// Writes the registry to `path`: Prometheus text exposition when the path
// ends in ".prom", the JSON document otherwise. Throws on I/O failure.
void write_registry_file(const std::string& path,
                         const TelemetryRegistry& registry);

// Throws unless `path` can be opened for writing. Telemetry files are only
// written when a run *ends*; CLIs call this up front so a typo'd path fails
// before hours of simulation, not after. Creates the file if missing and
// leaves existing contents untouched.
void require_writable(const std::string& path);

// --- thread-local enablement ----------------------------------------------
//
// Instrumentation sites (WRSN_OBS_SCOPE and friends) report to the registry
// installed on *their* thread, so concurrent replicas never share state by
// accident and a site in a pure function (the planners) needs no plumbing.

namespace detail {
// The current thread's installation; written only by TelemetryScope.
// Defined here, constant-initialized, so every read inlines to one
// thread-local load.
inline thread_local TelemetryRegistry* t_registry = nullptr;
}  // namespace detail

// Registry installed on the current thread, or nullptr (telemetry off).
[[nodiscard]] inline TelemetryRegistry* current_registry() noexcept {
  return detail::t_registry;
}

// RAII: installs `registry` (may be nullptr) for the current thread and
// restores the previous installation on destruction.
class TelemetryScope {
 public:
  explicit TelemetryScope(TelemetryRegistry* registry) noexcept;
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  TelemetryRegistry* prev_;
};

// Scoped wall-clock timer; records elapsed seconds into the timer histogram
// `name` of the thread's registry. A no-op (one load + branch, no clock
// read) when no registry is installed.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept
      : registry_(current_registry()), name_(name) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    record(std::chrono::duration<double>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void record(double seconds);

  TelemetryRegistry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

#define WRSN_OBS_CONCAT_INNER(a, b) a##b
#define WRSN_OBS_CONCAT(a, b) WRSN_OBS_CONCAT_INNER(a, b)
// Times the rest of the enclosing scope under `name` (a string literal like
// "planner/insertion"). Nesting is fine: each scope records independently,
// so an outer scope's time includes its children.
#define WRSN_OBS_SCOPE(name) \
  ::wrsn::obs::ScopedTimer WRSN_OBS_CONCAT(wrsn_obs_scope_, __LINE__)(name)

}  // namespace wrsn::obs
