#pragma once
// String-keyed registry of policy factories, one per strategy interface:
// SchedulerRegistry (sched/policy.hpp) and RoutingRegistry
// (net/routing.hpp) are Registry<SchedulerPolicy> and
// Registry<RoutingPolicy>. Each layer defines instance() for its own
// interface, registering the built-ins on first access; lookups are
// thread-safe (Worlds are constructed from the replica thread pool).
// Unknown names throw InvalidArgument listing every registered name, in the
// same "unknown <kind> '<name>' (valid: ...)" form the closed enum knobs of
// core/config_io use.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace wrsn {

// "a, b, c".
[[nodiscard]] inline std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// "unknown <kind> '<name>' (valid: <names>)".
[[nodiscard]] inline InvalidArgument unknown_name(const std::string& kind,
                                                  const std::string& name,
                                                  const std::vector<std::string>& valid) {
  return InvalidArgument("unknown " + kind + " '" + name +
                         "' (valid: " + join_names(valid) + ")");
}

template <class Policy>
class Registry {
 public:
  using Factory = std::unique_ptr<Policy> (*)();

  // Defined next to Policy; registers the built-ins on first call.
  static Registry& instance();

  // Registers a policy. `summary` is the one-line description surfaced by
  // the tools' --list-schedulers / --list-routers and the README tables.
  // Throws InvalidArgument on a duplicate or empty name or a null factory.
  void add(std::string name, std::string summary, Factory factory) {
    WRSN_REQUIRE(!name.empty(), kind_ + " name must be non-empty");
    WRSN_REQUIRE(factory != nullptr, kind_ + " '" + name + "' needs a factory");
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_) {
      WRSN_REQUIRE(e.name != name, kind_ + " '" + name + "' is already registered");
    }
    entries_.push_back({std::move(name), std::move(summary), factory});
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }
  // Throws the unknown-name error unless `name` is registered.
  void require(const std::string& name) const { (void)find(name); }
  // Instantiates the named policy.
  [[nodiscard]] std::unique_ptr<Policy> create(const std::string& name) const {
    return find(name).factory();
  }
  // Registered names, in registration order (paper schemes first).
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }
  [[nodiscard]] std::string summary(const std::string& name) const {
    return find(name).summary;
  }

 private:
  // `kind` names the policy family in diagnostics ("scheduler").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  struct Entry {
    std::string name;
    std::string summary;
    Factory factory;
  };

  // A copy: add() may reallocate entries_ once the lock is released.
  [[nodiscard]] Entry find(const std::string& name) const {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const Entry& e : entries_) {
        if (e.name == name) return e;
      }
    }
    throw unknown_name(kind_, name, names());
  }

  const std::string kind_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace wrsn
