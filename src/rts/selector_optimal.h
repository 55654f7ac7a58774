#pragma once
/// \file selector_optimal.h
/// Optimal ISE selection by exhaustive enumeration with branch-and-bound
/// pruning (Section 4.1). The paper uses this algorithm only to evaluate the
/// quality of the heuristic (it is O(M^N) — more than 78 million
/// combinations for six kernels of the H.264 encoder — and therefore not
/// feasible at run time); we use it for the Fig. 9 comparison and for the
/// offline-optimal baseline.
///
/// Enumeration fixes the reconfiguration order to search order (the order
/// the installer commits the picks in); each combination is scored as the
/// sum of the Eq. 4 profits of its members evaluated against the shared
/// reconfiguration-port backlog. A per-kernel "no ISE" option guarantees
/// feasibility when the fabric cannot host every kernel.
///
/// Search order: kernels by descending root upper bound (the best profit
/// any of their ISEs reaches on the untouched planner), ties in trigger
/// order; at each kernel "no ISE" first, then its ISEs that fit the root
/// budget, in library order, skipping those that no longer fit the node.
///
/// Tie rule: a leaf's value is the left-to-right sum of its picks' profits
/// in search order, computed from 0.0 along the path alone (the search
/// passes the sum down by value, so no rounding residue of earlier sibling
/// subtrees leaks in), and a leaf replaces the incumbent only when strictly
/// greater. select() therefore returns the *first* maximal combination in
/// search order — exactly what an unpruned enumeration that keeps the first
/// maximum returns.
///
/// Incumbent: before the search, a greedy dive walks the sorted kernels
/// once on the search's own planner (mark/rollback), taking at each depth
/// the fitting ISE of highest positive profit (the first on ties). The
/// search starts with the incumbent value just below the dive leaf's value,
/// so the dive prunes from the first node but the search still records the
/// first maximal leaf itself. Both the seed and the prune test keep a
/// relative slack of 1e-9 (at least 1e-9 absolute): the bound is a sum in
/// another order than the leaf sums, and the slack keeps rounding from
/// cutting a subtree that holds a leaf at least as good.
///
/// Budget fallback: a search stopped by the node budget returns the dive's
/// selection unless it had already recorded a leaf at least as good.
///
/// Entry test before the commit: a node's parent evaluates each fitting
/// child and runs the child's entry test first — count it as a node against
/// the budget, record it if it is a leaf, test the bound with its slack —
/// and commits the pick on the planner (mark/commit/rollback) only for a
/// child that must be expanded. Leaves and pruned children cost one profit
/// evaluation and no commit; nodes, profit evaluations and combinations
/// count exactly as if every child were committed and tested on entry.
///
/// Incumbent replay: the search keeps its path as one (ISE or "no ISE",
/// profit) step per depth, and an improving leaf copies only that. After
/// the search, the incumbent's schedules (SelectedIse::instance_ready) are
/// rebuilt by committing its picks in path order on the root planner: the
/// same commits on the same planner states as on the way to the leaf, so
/// the same ready times.

#include <cstdint>

#include "rts/selector_heuristic.h"

namespace mrts {

class OptimalSelector {
 public:
  /// \param node_budget hard cap on explored search nodes; when exceeded the
  ///        search stops and the budget fallback above applies (never
  ///        triggered at the paper's problem sizes, it guards against
  ///        pathological libraries).
  explicit OptimalSelector(const IseLibrary& lib,
                           std::uint64_t node_budget = 200'000'000);

  SelectionResult select(const TriggerInstruction& ti,
                         ReconfigPlanner planner) const;

  /// Number of complete combinations evaluated in the last select() call.
  std::uint64_t last_combinations() const { return last_combinations_; }

  /// Attaches the flight recorder (null detaches): the final picks of each
  /// select() call are recorded (the search itself is too fine-grained).
  void attach_trace(TraceRecorder* trace) { trace_ = trace; }

  /// tuning().incremental_planner: commit/rollback on one planner, or a
  /// planner copy per search node.
  void set_tuning(SelectorTuning tuning) { tuning_ = tuning; }
  SelectorTuning tuning() const { return tuning_; }

 private:
  const IseLibrary* lib_;
  std::uint64_t node_budget_;
  SelectorTuning tuning_;
  mutable std::uint64_t last_combinations_ = 0;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mrts
