#include "baselines/offline_optimal_rts.h"

#include <utility>

#include "rts/reconfig_plan.h"

namespace mrts {

OfflineOptimalRts::OfflineOptimalRts(const IseLibrary& lib,
                                     unsigned num_cg_fabrics,
                                     unsigned num_prcs,
                                     std::vector<BlockProfile> profile)
    : lib_(&lib),
      fabric_(num_cg_fabrics, num_prcs, &lib.data_paths()),
      ecu_(lib, fabric_,
           Ecu::Config{/*use_intermediates=*/true,
                       /*use_cross_coverage=*/true,
                       /*use_mono_cg=*/false}) {
  // Offline phase: optimal selection per block against an empty fabric with
  // the machine's capacities (the profile cannot know what happens to be
  // loaded at run time).
  OptimalSelector optimal(lib);
  for (const auto& block : profile) {
    ReconfigPlanner planner(lib.data_paths(), num_prcs, num_cg_fabrics,
                            /*now=*/0);
    const SelectionResult result =
        optimal.select(block.average, std::move(planner));
    std::vector<IsePlacementRequest> requests;
    requests.reserve(result.selected.size());
    for (const auto& sel : result.selected) {
      requests.push_back({sel.ise, sel.kernel, lib.ise(sel.ise).data_paths});
    }
    per_block_[raw(block.functional_block)] = std::move(requests);
  }
}

const std::vector<IsePlacementRequest>& OfflineOptimalRts::selection_for(
    FunctionalBlockId fb) const {
  const auto it = per_block_.find(raw(fb));
  return it == per_block_.end() ? empty_ : it->second;
}

SelectionOutcome OfflineOptimalRts::on_trigger(
    const TriggerInstruction& programmed, Cycles now) {
  const auto& requests = selection_for(programmed.functional_block);
  const std::vector<IsePlacement> placements = fabric_.install(requests, now);
  ecu_.begin_block(placements, now);

  SelectionOutcome outcome;  // decision was made offline: no overhead
  for (const auto& req : requests) {
    SelectedIse sel;
    sel.kernel = req.kernel;
    sel.ise = req.ise;
    outcome.selection.selected.push_back(std::move(sel));
  }
  return outcome;
}

ExecOutcome OfflineOptimalRts::execute_kernel(KernelId k, Cycles now) {
  return ecu_.execute(k, now);
}

Cycles OfflineOptimalRts::execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                                      std::size_t n, Cycles gap_total,
                                      std::uint64_t* impl_executions,
                                      Cycles* impl_cycles,
                                      Cycles* first_exec_start) {
  return ecu_.execute_run(k, cursor, events, n, gap_total, impl_executions,
                          impl_cycles, first_exec_start);
}

Cycles OfflineOptimalRts::execute_events(const ExecEvent* events, const ExecRun* runs,
                                       std::size_t num_runs, Cycles cursor,
                                       std::uint64_t* impl_executions,
                                       Cycles* impl_cycles, ObservationSink& obs) {
  return ecu_.execute_events(events, runs, num_runs, cursor, impl_executions,
                             impl_cycles, obs);
}

void OfflineOptimalRts::on_block_end(const BlockObservation& observed,
                                     Cycles now) {
  (void)observed;
  (void)now;  // static scheme: nothing to learn
}

void OfflineOptimalRts::reset() {
  fabric_.reset();
  ecu_.reset();
}

}  // namespace mrts
