#include "baselines/rispp_rts.h"

#include <utility>

#include "rts/reconfig_plan.h"

namespace mrts {

RisppRts::RisppRts(const IseLibrary& lib, unsigned num_cg_fabrics,
                   unsigned num_prcs, RisppConfig config)
    : lib_(&lib),
      config_(config),
      fabric_(num_cg_fabrics, num_prcs, &lib.data_paths()),
      mpu_(config.mpu),
      selector_(lib, config.selector_cost),
      ecu_(lib, fabric_,
           Ecu::Config{/*use_intermediates=*/true,
                       /*use_cross_coverage=*/true,
                       /*use_mono_cg=*/false}) {}

SelectionOutcome RisppRts::on_trigger(const TriggerInstruction& programmed,
                                      Cycles now) {
  const TriggerInstruction refined = mpu_.refine(programmed);

  // The FG-tuned cost function: the planner prices every data path at the
  // FG reconfiguration cost, hiding the microsecond CG loads from the
  // profit estimation. (The *hardware* still reconfigures at real speed —
  // only the decision model is skewed.)
  ReconfigPlanner planner(lib_->data_paths(), fabric_, now);
  planner.set_uniform_reconfig_cycles(config_.assumed_reconfig_cycles);
  SelectionResult selection = selector_.select(refined, std::move(planner));

  std::vector<IsePlacementRequest> requests;
  requests.reserve(selection.selected.size());
  for (const auto& sel : selection.selected) {
    requests.push_back({sel.ise, sel.kernel, lib_->ise(sel.ise).data_paths});
  }
  const std::vector<IsePlacement> placements = fabric_.install(requests, now);
  ecu_.begin_block(placements, now);

  SelectionOutcome outcome;
  outcome.blocking_overhead = config_.selector_cost.cost(
      selection.first_round_evaluations, selection.first_round_scans);
  outcome.selection = std::move(selection);
  return outcome;
}

ExecOutcome RisppRts::execute_kernel(KernelId k, Cycles now) {
  return ecu_.execute(k, now);
}

Cycles RisppRts::execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                             std::size_t n, Cycles gap_total,
                             std::uint64_t* impl_executions,
                             Cycles* impl_cycles,
                             Cycles* first_exec_start) {
  return ecu_.execute_run(k, cursor, events, n, gap_total, impl_executions,
                          impl_cycles, first_exec_start);
}

Cycles RisppRts::execute_events(const ExecEvent* events, const ExecRun* runs,
                              std::size_t num_runs, Cycles cursor,
                              std::uint64_t* impl_executions,
                              Cycles* impl_cycles, ObservationSink& obs) {
  return ecu_.execute_events(events, runs, num_runs, cursor, impl_executions,
                             impl_cycles, obs);
}

void RisppRts::on_block_end(const BlockObservation& observed, Cycles now) {
  (void)now;
  mpu_.observe(observed);
}

void RisppRts::reset() {
  fabric_.reset();
  mpu_.reset();
  ecu_.reset();
}

}  // namespace mrts
