#include "sim/supervisor.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "sim/world.hpp"

namespace wrsn {

ReplicaSupervisor::ReplicaSupervisor(SupervisorOptions options,
                                     obs::TelemetryRegistry* telemetry)
    : options_(std::move(options)), telemetry_(telemetry) {
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](double ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    };
  }
}

void ReplicaSupervisor::count(const char* name) {
  if (telemetry_ != nullptr) telemetry_->counter(name).add();
}

ReplicaResult ReplicaSupervisor::run(const SimConfig& config,
                                     const ReplicaInstruments& instruments) {
  return supervise([&]() { return attempt(config, instruments); });
}

AttemptOutcome ReplicaSupervisor::attempt(const SimConfig& config,
                                          const ReplicaInstruments& instruments) const {
  AttemptOutcome out;
  World world(config);
  attach(world, instruments);
  if (options_.watchdog_s > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.watchdog_s));
    // Throttle the clock read: one syscall per event would dominate small
    // replicas, and a 1024-event overshoot is noise at wall-clock scale.
    std::uint32_t tick = 0;
    world.set_checkpoint_hook([deadline, tick](const World&) mutable {
      if (++tick % 1024 != 0) return false;
      return std::chrono::steady_clock::now() >= deadline;
    });
  }
  world.run_until(config.sim_duration);
  if (!world.finished()) {
    out.status = AttemptOutcome::Status::kTimeout;
    return out;
  }
  out.status = AttemptOutcome::Status::kOk;
  out.report = world.report();
  return out;
}

ReplicaResult ReplicaSupervisor::supervise(
    const std::function<AttemptOutcome()>& attempt) {
  ReplicaResult result;
  double backoff = options_.backoff_ms;
  for (std::size_t tries = 0;; ++tries) {
    result.attempts = tries + 1;
    AttemptOutcome out;
    try {
      out = attempt();
    } catch (const std::exception& e) {
      out.status = AttemptOutcome::Status::kError;
      out.error = e.what();
    } catch (...) {
      out.status = AttemptOutcome::Status::kError;
      out.error = "unknown exception";
    }
    switch (out.status) {
      case AttemptOutcome::Status::kOk:
        result.ok = true;
        result.report = out.report;
        result.error.clear();
        return result;
      case AttemptOutcome::Status::kTimeout:
        result.timed_out = true;
        result.error = "watchdog timeout";
        count("supervisor/timeouts");
        break;
      case AttemptOutcome::Status::kError:
        result.error = out.error;
        count("supervisor/errors");
        break;
    }
    if (tries >= options_.max_retries) {
      result.ok = false;
      count("supervisor/quarantines");
      return result;
    }
    count("supervisor/retries");
    if (backoff > 0.0) options_.sleep_ms(backoff);
    backoff *= 2.0;
  }
}

}  // namespace wrsn
