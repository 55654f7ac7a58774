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

/// One depth of the search path: the pick for that kernel, or "no ISE"
/// (kInvalidIse).
struct PathStep {
  IseId ise = kInvalidIse;
  double profit = 0.0;
};

struct SearchState {
  const IseLibrary* lib;
  const std::vector<KernelOptions>* kernels = nullptr;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  std::uint64_t combinations = 0;
  std::uint64_t profit_evals = 0;

  /// The incumbent: its value and its path (one step per depth). The
  /// schedule of its picks is rebuilt after the search (replay()).
  double best_profit = 0.0;
  std::vector<PathStep> best_path;

  /// Suffix sums of per-kernel upper bounds for pruning.
  std::vector<double> ub_suffix;

  /// The path to the node being expanded, one step per depth above it.
  std::vector<PathStep> path;

  /// Hot-path tuning (SelectorTuning). The search order, the bound
  /// tests and every committed schedule are identical in both modes; only
  /// the work per node differs.
  bool incremental = false;
  /// Output buffer of the incremental path's commits (the search itself
  /// needs only the planner state they leave).
  std::vector<Cycles> ready_scratch;

  /// Eq. 4 profit of \p ise on \p planner; both paths return the same bits.
  double evaluate(IseId ise, const TriggerEntry& entry,
                  const ReconfigPlanner& planner) {
    ++profit_evals;
    return incremental
               ? evaluate_candidate_profit(*lib, ise, entry, planner,
                                           ProfitModel{})
               : evaluate_candidate(*lib, ise, entry, planner).profit;
  }
};

/// The greedy dive: one root-to-leaf path taking, at each depth, the
/// fitting ISE of highest positive profit on the planner the search holds
/// there. Returns the leaf's value, summed exactly as the search sums it.
double dive(SearchState& st, ReconfigPlanner& planner,
            std::vector<SelectedIse>& picks) {
  const ReconfigPlanner::Checkpoint cp = planner.mark();
  double value = 0.0;
  for (const KernelOptions& opt : *st.kernels) {
    IseId pick = kInvalidIse;
    double pick_profit = 0.0;
    for (IseId ise_id : opt.ises) {
      const IseVariant& v = st.lib->ises()[raw(ise_id)];
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
    sel.instance_ready = planner.commit(st.lib->ises()[raw(pick)].data_paths);
    picks.push_back(std::move(sel));
    value += pick_profit;
  }
  planner.rollback(cp);
  return value;
}

/// The entry test of the node at \p depth whose path sums to \p sum: counts
/// it against the budget, records it if it is a leaf, and tests the bound.
/// Returns true only if the node must be expanded, so the parent commits a
/// pick only for a child that passes. \p sum is the left-to-right sum of
/// the profits picked on the path; it is passed by value, so no sibling
/// subtree searched earlier can leave rounding residue in it.
bool enter(SearchState& st, std::size_t depth, double sum) {
  if (st.nodes++ > st.node_budget) return false;
  if (depth == st.kernels->size()) {
    ++st.combinations;
    if (sum > st.best_profit) {
      st.best_profit = sum;
      st.best_path = st.path;
    }
    return false;
  }
  // Bound: even with optimistic profits for all remaining kernels we cannot
  // beat the incumbent.
  return !(sum + st.ub_suffix[depth] + slack(st.best_profit) <=
           st.best_profit);
}

/// Expands a node that passed enter(): enters each child in search order and
/// commits a pick on \p planner only for a child that must be expanded.
void expand(SearchState& st, std::size_t depth, ReconfigPlanner& planner,
            double sum) {
  const KernelOptions& opt = (*st.kernels)[depth];
  PathStep& step = st.path[depth];

  // Option "no ISE for this kernel".
  step = PathStep{};
  if (enter(st, depth + 1, sum)) expand(st, depth + 1, planner, sum);

  for (IseId ise_id : opt.ises) {
    const IseVariant& v = st.lib->ises()[raw(ise_id)];
    if (!planner.fits(v.fg_units, v.cg_units)) continue;
    const double profit = st.evaluate(ise_id, *opt.entry, planner);
    step = PathStep{ise_id, profit};
    if (!enter(st, depth + 1, sum + profit)) continue;
    if (st.incremental) {
      // Extend the shared planner in place and undo on the way out instead
      // of copying its whole state per node.
      const ReconfigPlanner::Checkpoint cp = planner.mark();
      planner.commit_into(v.data_paths, st.ready_scratch);
      expand(st, depth + 1, planner, sum + profit);
      planner.rollback(cp);
    } else {
      ReconfigPlanner child = planner;
      child.commit(v.data_paths);
      expand(st, depth + 1, child, sum + profit);
    }
  }
}

/// The incumbent's selection: its picks in path order, each committed in
/// turn on \p planner (the root state). These are the commits the search
/// made on the way to the leaf, on the same states, so the ready times are
/// the ones it saw.
std::vector<SelectedIse> replay(const SearchState& st,
                                ReconfigPlanner& planner) {
  std::vector<SelectedIse> picks;
  for (std::size_t depth = 0; depth < st.best_path.size(); ++depth) {
    const PathStep& step = st.best_path[depth];
    if (step.ise == kInvalidIse) continue;
    SelectedIse sel;
    sel.kernel = (*st.kernels)[depth].entry->kernel;
    sel.ise = step.ise;
    sel.profit = step.profit;
    sel.instance_ready =
        planner.commit(st.lib->ises()[raw(step.ise)].data_paths);
    picks.push_back(std::move(sel));
  }
  return picks;
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
      const IseVariant& v = lib_->ises()[raw(ise)];
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
  st.path.resize(kernels.size());
  if (enter(st, 0, 0.0)) expand(st, 0, planner, 0.0);
  last_combinations_ = st.combinations;

  SelectionResult result;
  // A completed search always records a leaf at least as good as the dive
  // (the dive leaf is one of its leaves); only a budget stop can leave it
  // short.
  if (st.best_profit < dive_profit) {
    result.selected = std::move(dive_picks);
    st.best_profit = dive_profit;
  } else {
    result.selected = replay(st, planner);
  }
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
