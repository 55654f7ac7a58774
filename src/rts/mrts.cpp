#include "rts/mrts.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {
namespace {

FabricManager& checked_binding_fabric(const TenantBinding& binding) {
  if (binding.fabric == nullptr) {
    throw std::invalid_argument(
        "MRts: tenant binding has no fabric (tenant not admitted?)");
  }
  return *binding.fabric;
}

}  // namespace

MRts::MRts(const IseLibrary& lib, unsigned num_cg_fabrics, unsigned num_prcs,
           MRtsConfig config)
    : lib_(&lib),
      config_(config),
      owned_fabric_(std::make_unique<FabricManager>(num_cg_fabrics, num_prcs,
                                                    &lib.data_paths())),
      fabric_(owned_fabric_.get()),
      mpu_(config.mpu),
      heuristic_(lib, config.selector_cost, config.selector_policy,
                 config.profit_model),
      optimal_(lib),
      ecu_(lib, *fabric_, config.ecu) {
  defrag_ = DefragPolicy(config_.defrag);
  if (config_.fault.any_faults()) {
    fault_model_ = std::make_unique<FaultModel>(config_.fault);
    fabric_->attach_fault_model(fault_model_.get());
  }
}

MRts::MRts(const IseLibrary& lib, FabricManager& shared_fabric,
           MRtsConfig config)
    : lib_(&lib),
      config_(config),
      fabric_(&shared_fabric),
      mpu_(config.mpu),
      heuristic_(lib, config.selector_cost, config.selector_policy,
                 config.profit_model),
      optimal_(lib),
      ecu_(lib, *fabric_, config.ecu) {
  defrag_ = DefragPolicy(config_.defrag);
  if (config_.fault.any_faults()) {
    fault_model_ = std::make_unique<FaultModel>(config_.fault);
    fabric_->attach_fault_model(fault_model_.get());
  }
}

MRts::MRts(const IseLibrary& lib, const TenantBinding& binding,
           MRtsConfig config)
    : MRts(lib, checked_binding_fabric(binding), config) {
  tenant_ = binding.tenant;
}

std::string MRts::name() const {
  return config_.use_optimal_selector ? "mRTS(optimal)" : "mRTS";
}

void MRts::attach_observability(TraceRecorder* trace,
                                CounterRegistry* counters) {
  // A tenant-bound instance attributes every event it records — ECU / MPU /
  // selector sites don't carry an explicit tenant, so they inherit it from
  // the recorder; the shared fabric stamps its own active tenant per event.
  if (trace != nullptr && tenant_ != kUnownedTenant) {
    trace->set_default_tenant(tenant_);
  }
  mpu_.attach_observability(trace, counters);
  ecu_.attach_observability(trace, counters);
  heuristic_.attach_trace(trace);
  optimal_.attach_trace(trace);
  const bool attaching = trace != nullptr || counters != nullptr;
  if (owned_fabric_ != nullptr || fabric_observer_) {
    // Own fabric, or this instance already holds the shared stream: forward
    // (detaching with nulls releases the claim).
    fabric_->attach_observability(trace, counters);
    fabric_observer_ = owned_fabric_ == nullptr && attaching;
  } else if (attaching && !fabric_->observability_attached()) {
    // First tenant to attach claims the shared fabric's event stream; later
    // tenants observe only their own units.
    fabric_->attach_observability(trace, counters);
    fabric_observer_ = true;
  }
}

bool MRts::attach_fault_model(FaultModel* model) {
  fabric_->attach_fault_model(model);
  return true;
}

SelectionOutcome MRts::on_trigger(const TriggerInstruction& programmed,
                                  Cycles now) {
  // From here on the fabric acts on behalf of this instance's tenant.
  fabric_->set_active_tenant(tenant_);

  // Drain due scrub epochs first: upsets and quarantines must land before
  // the selector snapshots capacity, so it re-plans with the post-fault
  // fabric instead of tripping install()'s capacity check.
  fabric_->scrub(now);

  // Self-healing (rts/migration.h): when that scrub quarantined additional
  // containers, compact the survivors before the selector snapshots the
  // fabric — it then plans against the defragmented free space.
  if (config_.defrag.enabled) {
    const FabricUsage usage = fabric_->usage();
    const unsigned quarantined = usage.quarantined_prcs + usage.quarantined_cg;
    if (quarantined > seen_quarantined_) {
      const DefragReport rep = defrag_.recover(*fabric_, now);
      ++stats_.defrag_passes;
      stats_.defrag_migrations += rep.migrated;
    }
    seen_quarantined_ = quarantined;
  }

  // MPU: replace the programmer's offline forecasts with monitored values.
  const TriggerInstruction refined = mpu_.refine(programmed);

  // ISE selector, on a snapshot of the current fabric state. On an
  // arbitrated fabric the budget is the tenant-visible capacity (own
  // partition + pool share), so the selection never exceeds what install()
  // would accept.
  ReconfigPlanner planner(lib_->data_paths(), *fabric_, now);
  if (const FabricArbitration* arb = fabric_->arbitration()) {
    planner.clamp_budget(arb->visible(tenant_, Grain::kFine),
                         arb->visible(tenant_, Grain::kCoarse));
  }
  SelectionResult selection =
      config_.use_optimal_selector
          ? optimal_.select(refined, std::move(planner))
          : heuristic_.select(refined, std::move(planner));

  // Install the selected set; the reconfiguration controller manages the
  // actual loading process.
  std::vector<IsePlacementRequest> requests;
  requests.reserve(selection.selected.size());
  for (const auto& sel : selection.selected) {
    requests.push_back(
        {sel.ise, sel.kernel, lib_->ise(sel.ise).data_paths});
  }
  const std::vector<IsePlacement> placements = fabric_->install(requests, now);
  ecu_.begin_block(placements, now);

  // Bookkeeping.
  ++stats_.triggers;
  stats_.profit_evaluations += selection.profit_evaluations;
  stats_.total_selection_cycles += selection.overhead_cycles;
  for (const auto& sel : selection.selected) {
    const IseVariant& v = lib_->ise(sel.ise);
    ++stats_.selected_ises;
    if (v.is_multi_grained()) {
      ++stats_.selected_mg_ises;
    } else if (v.is_fg_only()) {
      ++stats_.selected_fg_ises;
    } else {
      ++stats_.selected_cg_ises;
    }
  }
  for (const auto& p : placements) stats_.reused_instances += p.reused_instances;

  // Cross-block lookahead: remember this block's programmed trigger and the
  // block-transition edge; then warm the leftover fabric for the block the
  // predictor expects next.
  trigger_cache_[raw(programmed.functional_block)] = programmed;
  if (last_block_ != kInvalidFunctionalBlock) {
    successor_[raw(last_block_)] = raw(programmed.functional_block);
  }
  last_block_ = programmed.functional_block;
  if (config_.enable_lookahead) {
    const auto next_it = successor_.find(raw(programmed.functional_block));
    if (next_it != successor_.end() &&
        next_it->second != raw(programmed.functional_block)) {
      const auto cached = trigger_cache_.find(next_it->second);
      if (cached != trigger_cache_.end()) {
        const TriggerInstruction next_refined = mpu_.refine(cached->second);
        const FabricUsage usage = fabric_->usage();
        ReconfigPlanner leftover(lib_->data_paths(),
                                 usage.usable_prcs() - usage.reserved_prcs,
                                 usage.usable_cg() - usage.reserved_cg, now);
        if (const FabricArbitration* arb = fabric_->arbitration()) {
          const unsigned vis_prcs = arb->visible(tenant_, Grain::kFine);
          const unsigned vis_cg = arb->visible(tenant_, Grain::kCoarse);
          leftover.clamp_budget(
              vis_prcs > usage.reserved_prcs ? vis_prcs - usage.reserved_prcs
                                             : 0,
              vis_cg > usage.reserved_cg ? vis_cg - usage.reserved_cg : 0);
        }
        const SelectionResult speculative =
            heuristic_.select(next_refined, std::move(leftover));
        std::vector<IsePlacementRequest> future;
        future.reserve(speculative.selected.size());
        for (const auto& sel : speculative.selected) {
          future.push_back(
              {sel.ise, sel.kernel, lib_->ise(sel.ise).data_paths});
        }
        stats_.lookahead_prefetches += fabric_->prefetch(future, now);
      }
    }
  }

  SelectionOutcome outcome;
  outcome.selection = std::move(selection);
  if (config_.charge_selection_overhead) {
    // Only selecting the first ISE stalls the core; the remaining rounds are
    // hidden behind the reconfiguration of the first selection (Sec. 5.4).
    outcome.blocking_overhead = config_.selector_cost.cost(
        outcome.selection.first_round_evaluations,
        outcome.selection.first_round_scans);
  }
  stats_.total_blocking_cycles += outcome.blocking_overhead;
  return outcome;
}

ExecOutcome MRts::execute_kernel(KernelId k, Cycles now) {
  // The ECU may touch the fabric (monoCG realization, context switches).
  fabric_->set_active_tenant(tenant_);
  return ecu_.execute(k, now);
}

Cycles MRts::execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                         std::size_t n, Cycles gap_total,
                         std::uint64_t* impl_executions, Cycles* impl_cycles,
                         Cycles* first_exec_start) {
  // One tenant activation covers the whole run — the block is executed by
  // this task alone, so the tenant cannot change between its events.
  fabric_->set_active_tenant(tenant_);
  return ecu_.execute_run(k, cursor, events, n, gap_total, impl_executions,
                          impl_cycles, first_exec_start);
}

Cycles MRts::execute_events(const ExecEvent* events, const ExecRun* runs,
                          std::size_t num_runs, Cycles cursor,
                          std::uint64_t* impl_executions,
                          Cycles* impl_cycles, ObservationSink& obs) {
  // One tenant activation covers the whole block (see execute_run).
  fabric_->set_active_tenant(tenant_);
  return ecu_.execute_events(events, runs, num_runs, cursor, impl_executions,
                             impl_cycles, obs);
}

void MRts::on_block_end(const BlockObservation& observed, Cycles now) {
  mpu_.observe(observed, now);
}

template <typename Io, typename Self>
void MRts::walk(Io& io, Self& self) {
  io.state(*self.fabric_);
  if (io.present(self.fault_model_ != nullptr,
                 "snapshot fault-model presence does not match this "
                 "runtime")) {
    io.state(*self.fault_model_);
  }
  io.state(self.mpu_);
  io.state(self.ecu_);
  auto& stats = self.stats_;
  io.u64(stats.triggers);
  io.u64(stats.profit_evaluations);
  io.u64(stats.total_selection_cycles);
  io.u64(stats.total_blocking_cycles);
  io.u64(stats.selected_ises);
  io.u64(stats.selected_mg_ises);
  io.u64(stats.selected_fg_ises);
  io.u64(stats.selected_cg_ises);
  io.u64(stats.reused_instances);
  io.u64(stats.lookahead_prefetches);
  io.u64(stats.defrag_passes);
  io.u64(stats.defrag_migrations);
  // Lookahead predictor state.
  io.map(self.successor_, 1u << 20, "successor table",
         [](auto& io, auto& from, auto& to) {
           io.u32(from);
           io.u32(to);
         });
  io.map(self.trigger_cache_, 1u << 20, "trigger cache",
         [](auto& io, auto& fb, auto& ti) {
           io.u32(fb);
           io.id(ti.functional_block);
           io.seq(ti.entries, 1u << 20, "trigger entry list",
                  [](auto& io, auto& e) {
                    io.id(e.kernel);
                    io.f64(e.expected_executions);
                    io.u64(e.time_to_first);
                    io.u64(e.time_between);
                  });
         });
  io.id(self.last_block_);
  io.u32(self.seen_quarantined_);
}

void MRts::save_state(SnapshotWriter& w) const { walk(w, *this); }
void MRts::load_state(SnapshotReader& r) { walk(r, *this); }

void MRts::reset() {
  // A shared fabric belongs to the whole processor (other tasks may still
  // hold configurations on it); only reset hardware this instance owns.
  if (owned_fabric_) owned_fabric_->reset();
  mpu_.reset();
  ecu_.reset();
  stats_ = MRtsRunStats{};
  successor_.clear();
  trigger_cache_.clear();
  last_block_ = kInvalidFunctionalBlock;
}

}  // namespace mrts
