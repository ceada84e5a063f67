#pragma once
// Registration hooks for the built-in scheduler policies. Each function is
// defined in its policy's translation unit under src/sched/policies/ and
// called once from register_builtin_policies (sched/policy.cpp). Explicit
// calls — rather than static registrar objects — keep registration working
// inside static libraries, where the linker drops object files nothing
// references.

#include "sched/policy.hpp"

namespace wrsn {

void register_greedy_policy(SchedulerRegistry& registry);
void register_partition_policy(SchedulerRegistry& registry);
void register_combined_policy(SchedulerRegistry& registry);
void register_nearest_first_policy(SchedulerRegistry& registry);
void register_fcfs_policy(SchedulerRegistry& registry);
void register_edf_policy(SchedulerRegistry& registry);

}  // namespace wrsn
