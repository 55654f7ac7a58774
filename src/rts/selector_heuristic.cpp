#include "rts/selector_heuristic.h"

#include <algorithm>

#include "util/trace.h"

namespace mrts {

HeuristicSelector::HeuristicSelector(const IseLibrary& lib,
                                     SelectorCostModel cost,
                                     SelectionPolicy policy,
                                     ProfitModel profit_model)
    : lib_(&lib), cost_(cost), policy_(policy), profit_model_(profit_model) {}

ProfitResult evaluate_candidate(const IseLibrary& lib, IseId ise_id,
                                const TriggerEntry& entry,
                                const ReconfigPlanner& planner,
                                const ProfitModel& model) {
  const IseVariant& ise = lib.ise(ise_id);
  const std::vector<Cycles> ready_abs = planner.plan(ise.data_paths);
  ProfitInputs in;
  in.ise = &ise;
  in.model = model;
  in.expected_executions = entry.expected_executions;
  in.time_to_first = entry.time_to_first;
  in.time_between = entry.time_between;
  in.ready_rel.reserve(ready_abs.size());
  for (Cycles t : ready_abs) {
    in.ready_rel.push_back(t > planner.now() ? t - planner.now() : 0);
  }
  return compute_profit(in);
}

double evaluate_candidate_profit(const IseLibrary& lib, IseId ise_id,
                                 const TriggerEntry& entry,
                                 const ReconfigPlanner& planner,
                                 const ProfitModel& model) {
  const IseVariant& ise = lib.ises()[raw(ise_id)];
  constexpr std::size_t kInline = 16;
  Cycles inline_ready[kInline];
  std::vector<Cycles> heap_ready;
  Cycles* ready_rel = inline_ready;
  if (ise.num_data_paths() > kInline) {
    heap_ready.resize(ise.num_data_paths());
    ready_rel = heap_ready.data();
  }
  planner.plan_relative(ise.data_paths, ready_rel);
  return profit_impl(ise, ready_rel, entry.expected_executions,
                     entry.time_to_first, entry.time_between, model, nullptr);
}

SelectionResult HeuristicSelector::select(const TriggerInstruction& ti,
                                          ReconfigPlanner planner) const {
  return select_impl(ti, std::move(planner), nullptr);
}

SelectionResult HeuristicSelector::select_with_trace(
    const TriggerInstruction& ti, ReconfigPlanner planner,
    std::string& trace) const {
  return select_impl(ti, std::move(planner), &trace);
}

SelectionResult HeuristicSelector::select_impl(const TriggerInstruction& ti,
                                               ReconfigPlanner planner,
                                               std::string* trace) const {
  SelectionResult result;
  unsigned round = 0;
  // Baseline tuning (the bench's A/B reference) keeps the historical
  // allocate-per-candidate evaluation; the default switches to the fused
  // profit pass. The profits are bit-identical either way.
  const bool fast_eval = tuning_.incremental_planner;
  // Candidate ids come from the library's own kernels: no range check.
  const std::vector<IseVariant>& ises = lib_->ises();
  // The log lambda is only ever invoked behind `if (trace != nullptr)` —
  // the guard must sit at the call site so the argument's string
  // concatenation is never evaluated on the (hot) untraced path.
  auto log = [trace](const std::string& line) {
    trace->append(line);
    trace->push_back('\n');
  };

  // Step-1: candidate list.
  struct Candidate {
    KernelId kernel;
    IseId ise;
    const TriggerEntry* entry;
  };
  std::vector<Candidate> candidates;
  for (const auto& entry : ti.entries) {
    const Kernel& k = lib_->kernel(entry.kernel);
    for (IseId ise : k.ises) candidates.push_back({k.id, ise, &entry});
  }

  if (trace != nullptr)
    log("candidate list: " + std::to_string(candidates.size()) + " ISEs of " +
      std::to_string(ti.entries.size()) + " kernels, budget " +
      std::to_string(planner.free_prcs()) + " PRC + " +
      std::to_string(planner.free_cg()) + " CG");

  bool first_round = true;
  while (!candidates.empty()) {
    ++round;
    if (trace != nullptr) log("round " + std::to_string(round) + ":");
    // Step-2: prune non-fitting and covered candidates (in place — the
    // survivors keep their relative order and no per-round vector is
    // allocated).
    std::size_t keep = 0;
    for (const auto& c : candidates) {
      ++result.candidates_scanned;
      if (first_round) ++result.first_round_scans;
      const IseVariant& v = ises[raw(c.ise)];
      // (b) before (a): an ISE fully covered by already-selected data paths
      // needs no fabric of its own, so it is free regardless of the budget.
      if (planner.covered_by_committed(v.data_paths)) {
        result.covered.emplace_back(c.kernel, c.ise);
        if (trace != nullptr)
          log("  " + v.name + ": covered by selected data paths (free)");
        continue;
      }
      if (!planner.fits(v.fg_units, v.cg_units)) {
        if (trace != nullptr)
          log("  " + v.name + ": does not fit remaining fabric");
        continue;
      }
      candidates[keep++] = c;
    }
    candidates.resize(keep);
    if (candidates.empty()) break;

    // Step-3: profit of each candidate; pick the maximum of the policy's
    // ranking key. Ties go to the variant with the smaller fabric demand,
    // then the smaller id (the deterministic order keeps experiments
    // reproducible).
    std::size_t best = 0;
    double best_profit = -1.0;
    double best_key = -1.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double profit =
          fast_eval
              ? evaluate_candidate_profit(*lib_, candidates[i].ise,
                                          *candidates[i].entry, planner,
                                          profit_model_)
              : evaluate_candidate(*lib_, candidates[i].ise,
                                   *candidates[i].entry, planner,
                                   profit_model_)
                    .profit;
      ++result.profit_evaluations;
      if (first_round) ++result.first_round_evaluations;
      if (trace_ != nullptr) {
        trace_->record({TraceEventKind::kSelectorEval, kTrackSelector,
                        planner.now(), 0, raw(candidates[i].kernel),
                        raw(candidates[i].ise), profit,
                        static_cast<double>(round)});
      }
      const IseVariant& v = ises[raw(candidates[i].ise)];
      const IseVariant& b = ises[raw(candidates[best].ise)];
      double key = profit;
      if (policy_ == SelectionPolicy::kMaxProfitDensity) {
        key = profit / static_cast<double>(v.fg_units + v.cg_units);
      }
      const bool better =
          key > best_key ||
          (key == best_key &&
           (v.fg_units + v.cg_units < b.fg_units + b.cg_units ||
            (v.fg_units + v.cg_units == b.fg_units + b.cg_units &&
             raw(candidates[i].ise) < raw(candidates[best].ise))));
      if (better) {
        best = i;
        best_key = key;
        best_profit = profit;
      }
      if (trace != nullptr)
        log("  " + v.name + ": profit " +
          std::to_string(static_cast<long long>(profit)) + " (" +
          std::to_string(v.fg_units) + " PRC + " + std::to_string(v.cg_units) +
          " CG)");
    }

    // An ISE whose expected profit is not positive can never pay for its
    // reconfiguration within the forecast horizon; installing it would only
    // occupy fabric and clog the (serialized) FG reconfiguration port for
    // the following functional blocks. Since the maximum is non-positive,
    // every remaining candidate is equally hopeless: stop.
    if (best_profit <= 0.0) {
      if (trace != nullptr)
        log("  all remaining candidates have non-positive profit: stop");
      break;
    }

    // Step-4: commit the winner, drop all other ISEs of that kernel.
    const Candidate chosen = candidates[best];
    const IseVariant& v = ises[raw(chosen.ise)];
    SelectedIse sel;
    sel.kernel = chosen.kernel;
    sel.ise = chosen.ise;
    sel.profit = best_profit;
    sel.instance_ready = planner.commit(v.data_paths);
    result.total_profit += best_profit;
    if (trace_ != nullptr) {
      trace_->record({TraceEventKind::kSelectorPick, kTrackSelector,
                      planner.now(), 0, raw(chosen.kernel), raw(chosen.ise),
                      best_profit, static_cast<double>(round)});
    }
    if (trace != nullptr)
      log("  -> selected " + lib_->ise(chosen.ise).name + " for kernel " +
        lib_->kernel(chosen.kernel).name);
    result.selected.push_back(std::move(sel));

    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&chosen](const Candidate& c) {
                         return c.kernel == chosen.kernel;
                       }),
        candidates.end());
    first_round = false;
  }

  result.overhead_cycles =
      cost_.cost(result.profit_evaluations, result.candidates_scanned);
  return result;
}

}  // namespace mrts
