#include "obs/telemetry.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "core/atomic_file.hpp"
#include "core/error.hpp"
#include "core/json.hpp"

namespace wrsn::obs {

namespace {

void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Epoch of the current thread-local registry installation. Bumped on every
// TelemetryScope construction AND destruction, so an unchanged epoch proves
// detail::t_registry has not been swapped since — which is what makes the
// timer handle cache below safe: a cached Histogram* is only trusted while
// the installation that created it is still the active one (the scope holder
// keeps that registry alive).
thread_local std::uint64_t t_epoch = 0;

// Per-thread (epoch, name-literal, handle) cache so ScopedTimer::record is
// lock-free on the hot path instead of paying the registry mutex + map
// lookup on every scope exit. Keyed by the name's *address*: WRSN_OBS_SCOPE
// passes string literals, so each call-site has a stable key. Fixed slots +
// round-robin eviction keep it allocation-free; a miss just falls back to
// the locked lookup.
struct TimerCacheEntry {
  std::uint64_t epoch = 0;
  const char* name = nullptr;
  Histogram* hist = nullptr;
};
constexpr std::size_t kTimerCacheSlots = 16;
thread_local TimerCacheEntry t_timer_cache[kTimerCacheSlots];
thread_local std::size_t t_timer_cache_next = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  WRSN_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be sorted ascending");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::min() const noexcept {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const noexcept {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

void Histogram::merge_from(const Histogram& other) {
  WRSN_REQUIRE(bounds_ == other.bounds_,
               "cannot merge histograms with different bucket bounds");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  const std::uint64_t n = other.count();
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add(sum_, other.sum());
  atomic_min(min_, other.min());
  atomic_max(max_, other.max());
}

std::vector<double> Histogram::timer_bounds_seconds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
    for (double step : {1.0, 2.0, 5.0}) bounds.push_back(decade * step);
  }
  bounds.push_back(10.0);
  return bounds;
}

// ---------------------------------------------------------------------------
// TelemetryRegistry
// ---------------------------------------------------------------------------

Counter& TelemetryRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& TelemetryRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& TelemetryRegistry::histogram(const std::string& name,
                                        std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Histogram& TelemetryRegistry::timer(const std::string& name) {
  return histogram(name, Histogram::timer_bounds_seconds());
}

bool TelemetryRegistry::empty() const {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) {
    if (c->value() != 0) return false;
  }
  for (const auto& [name, g] : gauges_) {
    if (g->value() != 0.0) return false;
  }
  for (const auto& [name, h] : histograms_) {
    if (h->count() != 0) return false;
  }
  return true;
}

void TelemetryRegistry::merge_from(const TelemetryRegistry& other) {
  // `other` is quiescent; only this registry's maps need the lock (taken by
  // the accessors below).
  for (const auto& [name, c] : other.counters_) {
    counter(name).add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).record_max(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h->bounds()).merge_from(*h);
  }
}

std::string TelemetryRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  JsonWriter w;
  w.begin_object()
      .field("schema", "wrsn.telemetry")
      .field("version", std::int64_t{kTelemetrySchemaVersion});
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.field("count", h->count())
        .field("sum", h->sum())
        .field("min", h->min())
        .field("max", h->max());
    w.key("bounds").begin_array();
    for (double b : h->bounds()) w.value(b);
    w.end_array();
    w.key("buckets").begin_array();
    for (std::uint64_t c : h->bucket_counts()) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "wrsn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    out += ok ? c : (c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : '_');
  }
  return out;
}

}  // namespace

std::string TelemetryRegistry::to_prometheus() const {
  std::lock_guard lock(mutex_);
  std::string out;
  auto line = [&](const std::string& s) { out += s + "\n"; };
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(name) + "_total";
    line("# TYPE " + n + " counter");
    line(n + " " + std::to_string(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prom_name(name);
    line("# TYPE " + n + " gauge");
    line(n + " " + std::to_string(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prom_name(name) + "_seconds";
    line("# TYPE " + n + " histogram");
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += counts[i];
      line(n + "_bucket{le=\"" + std::to_string(h->bounds()[i]) + "\"} " +
           std::to_string(cumulative));
    }
    line(n + "_bucket{le=\"+Inf\"} " + std::to_string(h->count()));
    line(n + "_sum " + std::to_string(h->sum()));
    line(n + "_count " + std::to_string(h->count()));
  }
  return out;
}

void write_registry_file(const std::string& path,
                         const TelemetryRegistry& registry) {
  // Atomic temp+rename: a crash mid-write never leaves a truncated
  // telemetry file under the final name.
  AtomicFile file(path);
  const bool prom = path.size() >= 5 && path.rfind(".prom") == path.size() - 5;
  if (prom) {
    file.stream() << registry.to_prometheus();
  } else {
    file.stream() << registry.to_json() << '\n';
  }
  file.commit();
}

void require_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  WRSN_REQUIRE(probe.good(), "cannot open '" + path + "' for writing");
}

// ---------------------------------------------------------------------------
// Thread-local installation
// ---------------------------------------------------------------------------

TelemetryScope::TelemetryScope(TelemetryRegistry* registry) noexcept
    : prev_(detail::t_registry) {
  detail::t_registry = registry;
  ++t_epoch;
}

TelemetryScope::~TelemetryScope() {
  detail::t_registry = prev_;
  ++t_epoch;
}

void ScopedTimer::record(double seconds) {
  // A current-epoch hit means no TelemetryScope ran since the entry was
  // cached, so registry_ is still the installed registry and the handle is
  // alive. (ScopedTimer only calls record when registry_ != nullptr, and an
  // epoch bump between its ctor and dtor turns every entry into a miss.)
  for (TimerCacheEntry& e : t_timer_cache) {
    if (e.epoch == t_epoch && e.name == name_) {
      e.hist->observe(seconds);
      return;
    }
  }
  Histogram& h = registry_->timer(name_);
  // Only cache when the captured registry is still the installed one — a
  // timer whose scope outlived a nested TelemetryScope must not publish its
  // (different-registry) handle under the current epoch.
  if (registry_ == detail::t_registry) {
    t_timer_cache[t_timer_cache_next] = TimerCacheEntry{t_epoch, name_, &h};
    t_timer_cache_next = (t_timer_cache_next + 1) % kTimerCacheSlots;
  }
  h.observe(seconds);
}

}  // namespace wrsn::obs
