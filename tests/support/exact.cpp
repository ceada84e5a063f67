#include "exact.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/telemetry.hpp"

namespace wrsn {

namespace {

struct SearchState {
  const std::vector<RechargeItem>* items;
  const PlannerParams* params;
  Joule budget;
  bool include_return;

  std::vector<std::size_t> current;
  std::vector<bool> used;
  Joule spent{0.0};       // traction (excl. return) + delivered so far
  Joule profit{0.0};      // objective of `current`
  Vec2 pos;

  ExactSolution best;
};

void dfs(SearchState& st) {
  ++st.best.nodes_explored;
  if (st.profit > st.best.profit) {
    st.best.profit = st.profit;
    st.best.sequence = st.current;
  }
  // Upper bound: add every remaining affordable demand for free (zero
  // travel). Admissible because travel only subtracts from the objective.
  Joule bound = st.profit;
  for (std::size_t i = 0; i < st.items->size(); ++i) {
    if (!st.used[i]) bound += (*st.items)[i].demand;
  }
  if (bound <= st.best.profit) return;

  for (std::size_t i = 0; i < st.items->size(); ++i) {
    if (st.used[i]) continue;
    const RechargeItem& item = (*st.items)[i];
    const Meter leg{distance(st.pos, item.pos)};
    const Meter back{distance(item.pos, st.params->base)};
    const Joule extra = st.params->em * leg + item.demand;
    const Joule needed =
        st.include_return ? extra + st.params->em * back : extra;
    if (st.spent + needed > st.budget) continue;

    const Vec2 prev_pos = st.pos;
    st.used[i] = true;
    st.current.push_back(i);
    st.spent += extra;
    st.profit += item.demand - st.params->em * leg;
    st.pos = item.pos;

    dfs(st);

    st.pos = prev_pos;
    st.profit -= item.demand - st.params->em * leg;
    st.spent -= extra;
    st.current.pop_back();
    st.used[i] = false;
  }
}

}  // namespace

ExactSolution exact_single_rv(const RvPlanState& rv,
                              const std::vector<RechargeItem>& items,
                              const PlannerParams& params,
                              bool include_return_in_budget) {
  WRSN_OBS_SCOPE("exact/branch-and-bound");
  WRSN_REQUIRE(items.size() <= 14,
               "exact solver is exponential; refuse instances above 14 items");
  SearchState st;
  st.items = &items;
  st.params = &params;
  st.budget = rv.available;
  st.include_return = include_return_in_budget;
  st.used.assign(items.size(), false);
  st.pos = rv.pos;
  st.best.profit = Joule{0.0};  // empty tour is always feasible
  dfs(st);
  return st.best;
}

}  // namespace wrsn
