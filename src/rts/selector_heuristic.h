#pragma once
/// \file selector_heuristic.h
/// The mRTS ISE selection algorithm (Section 4.1, Fig. 6). Greedy heuristic
/// with complexity O(N*M) (N kernels, M ISEs per kernel):
///
///   Step-1: candidate list = all ISEs of all kernels in the trigger
///           instruction (non-fitting variants were already filtered at
///           compile time against the machine capacity).
///   Step-2: remove ISEs that (a) need more reconfigurable fabric than is
///           still available, or (b) are covered by data paths of already
///           selected ISEs (they come for free; the ECU finds them at run
///           time via its cross-ISE availability check).
///   Step-3: compute the profit (Eqs. 2-4) of every remaining candidate and
///           pick the maximum.
///   Step-4: add it to the output set, deduct its fabric demand, advance the
///           predicted reconfiguration-port backlog and drop all other ISEs
///           of the same kernel. Repeat from Step-2.
///
/// Step-3 runs the fused profit pass (evaluate_candidate_profit below), as
/// every evaluation of the branch-and-bound selector does: the candidate's
/// ready times relative to the trigger are planned in one loop, with each
/// data path's reconfiguration time cached by DataPathTable::add, into a
/// stack buffer that Eqs. 2-4 (profit_impl) read directly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/ise_library.h"
#include "isa/trigger.h"
#include "rts/profit.h"
#include "rts/reconfig_plan.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;

/// Hot-path switch of the selectors. The default is the optimized
/// configuration (commit/rollback on one planner, the fused profit pass);
/// baseline() reproduces the pre-optimization implementation (a planner
/// copied per expanded branch-and-bound node, the allocating
/// evaluate_candidate) so the wall-clock bench can measure an honest
/// interleaved A/B in one binary. It is a pure optimization: selections,
/// counters and CSV outputs are identical either way.
struct SelectorTuning {
  bool incremental_planner = true;  ///< commit/rollback instead of copying
  static SelectorTuning baseline() { return {false}; }
};

/// One selected ISE with its predicted installation schedule.
struct SelectedIse {
  KernelId kernel = kInvalidKernel;
  IseId ise = kInvalidIse;
  double profit = 0.0;
  /// Predicted absolute ready time of each data-path instance.
  std::vector<Cycles> instance_ready;
};

/// Result of one selection run (heuristic or optimal).
struct SelectionResult {
  /// Selected ISEs in selection order (= installation order).
  std::vector<SelectedIse> selected;
  /// Step-2b: (kernel, ISE) pairs that are fully covered by the selected
  /// data paths and therefore available for free.
  std::vector<std::pair<KernelId, IseId>> covered;
  /// Cost counters feeding the Section 5.4 overhead model.
  std::uint64_t profit_evaluations = 0;
  std::uint64_t candidates_scanned = 0;
  /// Counters of the first greedy round only. Selecting the first ISE is the
  /// only part that blocks the core; the remaining rounds run in parallel
  /// with the reconfiguration process (Section 5.4).
  std::uint64_t first_round_evaluations = 0;
  std::uint64_t first_round_scans = 0;
  /// Modelled execution time of the selection itself on the mRTS host
  /// (a dedicated CG-EDPE in the paper).
  Cycles overhead_cycles = 0;
  double total_profit = 0.0;

  const SelectedIse* find(KernelId k) const {
    for (const auto& s : selected) {
      if (s.kernel == k) return &s;
    }
    return nullptr;
  }
};

/// Cycle-cost model of the selector itself (Section 5.4): the measured
/// overhead is dominated by profit evaluations (one per candidate per
/// round) plus a linear scan of the candidate list.
struct SelectorCostModel {
  Cycles cycles_per_profit_eval = 40;
  Cycles cycles_per_scan = 4;
  Cycles fixed_overhead = 150;

  Cycles cost(std::uint64_t evals, std::uint64_t scans) const {
    return fixed_overhead + evals * cycles_per_profit_eval +
           scans * cycles_per_scan;
  }
};

/// Step-3 ranking policy.
enum class SelectionPolicy {
  /// The paper's Fig. 6: pick the candidate with the maximum absolute
  /// profit. Known weakness (the paper's own Fig. 9 analysis): it may give
  /// most of the fabric to one kernel where spreading would win.
  kMaxProfit,
  /// Pick the candidate with the maximum profit per fabric unit
  /// (RISPP-style "benefit per atom" ranking). Mitigates resource hogging
  /// at scarce PRC-only combinations, may under-use abundant fabric.
  kMaxProfitDensity,
};

class HeuristicSelector {
 public:
  explicit HeuristicSelector(const IseLibrary& lib,
                             SelectorCostModel cost = {},
                             SelectionPolicy policy = SelectionPolicy::kMaxProfit,
                             ProfitModel profit_model = {});

  /// Runs the Fig. 6 algorithm for the kernels forecast in \p ti. The
  /// \p planner carries the fabric snapshot (what is already loaded, port
  /// backlog, capacity); it is taken by value because selection consumes it.
  SelectionResult select(const TriggerInstruction& ti,
                         ReconfigPlanner planner) const;

  /// Like select(), but additionally appends a human-readable round-by-round
  /// account (candidates, profits, pruning reasons, winners) to \p trace —
  /// the "why did it pick that?" debugging aid.
  SelectionResult select_with_trace(const TriggerInstruction& ti,
                                    ReconfigPlanner planner,
                                    std::string& trace) const;

  /// Attaches the flight recorder: every profit evaluation and round winner
  /// is recorded as a timestamped event (null detaches; default off).
  void attach_trace(TraceRecorder* trace) { trace_ = trace; }

  void set_tuning(SelectorTuning tuning) { tuning_ = tuning; }
  SelectorTuning tuning() const { return tuning_; }

 private:
  SelectionResult select_impl(const TriggerInstruction& ti,
                              ReconfigPlanner planner,
                              std::string* trace) const;

  const IseLibrary* lib_;
  SelectorCostModel cost_;
  SelectionPolicy policy_;
  ProfitModel profit_model_;
  SelectorTuning tuning_;
  TraceRecorder* trace_ = nullptr;
};

/// Computes the profit of \p ise under trigger entry \p entry with the
/// hypothetical schedule from \p planner, with the NoE breakdown. The
/// selectors' baseline tuning evaluates through it.
ProfitResult evaluate_candidate(const IseLibrary& lib, IseId ise,
                                const TriggerEntry& entry,
                                const ReconfigPlanner& planner,
                                const ProfitModel& model = {});

/// The fused profit pass (see the file comment) of both selectors' default
/// tuning: evaluate_candidate(...).profit bit for bit — the same integers
/// reach the same profit_impl — without range checks (\p ise must be an id
/// of \p lib), inputs struct or heap (for ISEs of up to 16 data paths).
double evaluate_candidate_profit(const IseLibrary& lib, IseId ise,
                                 const TriggerEntry& entry,
                                 const ReconfigPlanner& planner,
                                 const ProfitModel& model);

}  // namespace mrts
