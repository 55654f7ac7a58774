#include "rts/selector_optimal.h"

#include <algorithm>
#include <cmath>

#include "util/trace.h"

namespace mrts {
namespace {

/// Slack of the incumbent seed and the prune test (see the header): far
/// above the rounding of a sum of a few dozen profits, far below any profit
/// difference that decides a pick.
double slack(double value) { return 1e-9 * std::max(1.0, std::abs(value)); }

struct KernelOptions {
  const TriggerEntry* entry;
  std::vector<IseId> ises;  // candidate ISEs (a "none" option is implicit)
  double upper_bound = 0.0; // optimistic max profit of this kernel
};

struct SearchState {
  const IseLibrary* lib;
  const std::vector<KernelOptions>* kernels = nullptr;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  std::uint64_t combinations = 0;
  std::uint64_t profit_evals = 0;

  double best_profit = 0.0;
  std::vector<SelectedIse> best_selection;

  /// Suffix sums of per-kernel upper bounds for pruning.
  std::vector<double> ub_suffix;

  std::vector<SelectedIse> current;

  /// Hot-path tuning (SelectorTuning). The search order, the bound
  /// tests and every committed schedule are identical in both modes; only
  /// the work per node differs.
  bool incremental = false;
  EvalScratch scratch;
  /// Retired instance_ready vectors, reused (capacity intact) by the next
  /// push — the incremental path's only per-node heap traffic would
  /// otherwise be this vector.
  std::vector<std::vector<Cycles>> spare;

  /// Eq. 4 profit of \p ise on \p planner; both paths return the same bits.
  double evaluate(IseId ise, const TriggerEntry& entry,
                  const ReconfigPlanner& planner) {
    ++profit_evals;
    return incremental
               ? evaluate_candidate_profit(*lib, ise, entry, planner,
                                           ProfitModel{}, scratch)
               : evaluate_candidate(*lib, ise, entry, planner).profit;
  }
};

/// The greedy dive: one root-to-leaf path taking, at each depth, the
/// fitting ISE of highest positive profit on the planner the search holds
/// there. Returns the leaf's value, summed exactly as dfs() sums it.
double dive(SearchState& st, ReconfigPlanner& planner,
            std::vector<SelectedIse>& picks) {
  const ReconfigPlanner::Checkpoint cp = planner.mark();
  double value = 0.0;
  for (const KernelOptions& opt : *st.kernels) {
    IseId pick = kInvalidIse;
    double pick_profit = 0.0;
    for (IseId ise_id : opt.ises) {
      const IseVariant& v = st.lib->ise(ise_id);
      if (!planner.fits(v.fg_units, v.cg_units)) continue;
      const double profit = st.evaluate(ise_id, *opt.entry, planner);
      if (profit > pick_profit) {
        pick = ise_id;
        pick_profit = profit;
      }
    }
    if (pick == kInvalidIse) continue;  // "no ISE" for this kernel
    SelectedIse sel;
    sel.kernel = opt.entry->kernel;
    sel.ise = pick;
    sel.profit = pick_profit;
    sel.instance_ready = planner.commit(st.lib->ise(pick).data_paths);
    picks.push_back(std::move(sel));
    value += pick_profit;
  }
  planner.rollback(cp);
  return value;
}

/// \p sum is the left-to-right sum of the profits picked on the path to
/// this node. It is passed by value, so no sibling subtree searched earlier
/// can leave rounding residue in it.
void dfs(SearchState& st, std::size_t depth, ReconfigPlanner& planner,
         double sum) {
  if (st.nodes++ > st.node_budget) return;
  if (depth == st.kernels->size()) {
    ++st.combinations;
    if (sum > st.best_profit) {
      st.best_profit = sum;
      st.best_selection = st.current;
    }
    return;
  }
  // Bound: even with optimistic profits for all remaining kernels we cannot
  // beat the incumbent.
  if (sum + st.ub_suffix[depth] + slack(st.best_profit) <= st.best_profit) {
    return;
  }

  const KernelOptions& opt = (*st.kernels)[depth];

  // Option "no ISE for this kernel".
  dfs(st, depth + 1, planner, sum);

  for (IseId ise_id : opt.ises) {
    const IseVariant& v = st.lib->ise(ise_id);
    if (!planner.fits(v.fg_units, v.cg_units)) continue;
    const double profit = st.evaluate(ise_id, *opt.entry, planner);
    SelectedIse sel;
    sel.kernel = opt.entry->kernel;
    sel.ise = ise_id;
    sel.profit = profit;
    if (st.incremental) {
      // Extend the shared planner in place and undo on the way out instead
      // of copying its whole state per node.
      const ReconfigPlanner::Checkpoint cp = planner.mark();
      if (!st.spare.empty()) {
        sel.instance_ready = std::move(st.spare.back());
        st.spare.pop_back();
      }
      planner.commit_into(v.data_paths, sel.instance_ready);
      st.current.push_back(std::move(sel));
      dfs(st, depth + 1, planner, sum + profit);
      st.spare.push_back(std::move(st.current.back().instance_ready));
      st.current.pop_back();
      planner.rollback(cp);
    } else {
      ReconfigPlanner child = planner;
      sel.instance_ready = child.commit(v.data_paths);
      st.current.push_back(std::move(sel));
      dfs(st, depth + 1, child, sum + profit);
      st.current.pop_back();
    }
  }
}

}  // namespace

OptimalSelector::OptimalSelector(const IseLibrary& lib,
                                 std::uint64_t node_budget)
    : lib_(&lib), node_budget_(node_budget) {}

SelectionResult OptimalSelector::select(const TriggerInstruction& ti,
                                        ReconfigPlanner planner) const {
  SearchState st;
  st.lib = lib_;
  st.node_budget = node_budget_;
  st.incremental = tuning_.incremental_planner;

  std::vector<KernelOptions> kernels;
  kernels.reserve(ti.entries.size());
  for (const auto& entry : ti.entries) {
    KernelOptions opt;
    opt.entry = &entry;
    const Kernel& k = lib_->kernel(entry.kernel);
    for (IseId ise : k.ises) {
      const IseVariant& v = lib_->ise(ise);
      if (!v.fits(planner.free_prcs(), planner.free_cg())) continue;
      opt.ises.push_back(ise);
      // Optimistic bound: the root planner has the shortest port backlog and
      // the fullest set of reusable instances any node will ever see, so no
      // deeper evaluation of this ISE can exceed this profit.
      opt.upper_bound =
          std::max(opt.upper_bound, st.evaluate(ise, entry, planner));
    }
    kernels.push_back(std::move(opt));
  }

  // Search kernels with the largest upper bound first: tightens the bound
  // early and prunes more of the tree. Equal bounds keep trigger order
  // (entries point into ti.entries), so the search order is a total order.
  std::sort(kernels.begin(), kernels.end(),
            [](const KernelOptions& a, const KernelOptions& b) {
              return a.upper_bound != b.upper_bound
                         ? a.upper_bound > b.upper_bound
                         : a.entry < b.entry;
            });

  st.kernels = &kernels;
  st.ub_suffix.assign(kernels.size() + 1, 0.0);
  for (std::size_t i = kernels.size(); i > 0; --i) {
    st.ub_suffix[i - 1] = st.ub_suffix[i] + kernels[i - 1].upper_bound;
  }

  std::vector<SelectedIse> dive_picks;
  const double dive_profit = dive(st, planner, dive_picks);
  st.best_profit = dive_profit - slack(dive_profit);
  dfs(st, 0, planner, 0.0);
  last_combinations_ = st.combinations;
  // A completed search always records a leaf at least as good as the dive
  // (the dive leaf is one of its leaves); only a budget stop can leave it
  // short.
  if (st.best_profit < dive_profit) {
    st.best_selection = std::move(dive_picks);
    st.best_profit = dive_profit;
  }

  SelectionResult result;
  result.selected = std::move(st.best_selection);
  result.total_profit = std::max(0.0, st.best_profit);
  result.profit_evaluations = st.profit_evals;
  result.candidates_scanned = st.nodes;
  result.overhead_cycles = 0;  // not meaningful: this algorithm is offline
  if (trace_ != nullptr) {
    for (std::size_t i = 0; i < result.selected.size(); ++i) {
      const SelectedIse& sel = result.selected[i];
      trace_->record({TraceEventKind::kSelectorPick, kTrackSelector,
                      planner.now(), 0, raw(sel.kernel), raw(sel.ise),
                      sel.profit, static_cast<double>(i + 1)});
    }
  }
  return result;
}

}  // namespace mrts
