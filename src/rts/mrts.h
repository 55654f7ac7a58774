#pragma once
/// \file mrts.h
/// The mRTS run-time system (Section 4, Fig. 4): Monitoring & Prediction
/// Unit + ISE selector + Execution Control Unit, bound to one multi-grained
/// reconfigurable processor (FabricManager). This is the paper's primary
/// contribution; the configuration switches expose every design choice for
/// the ablation benches.

#include <memory>
#include <unordered_map>
#include <string>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "isa/ise_library.h"
#include "rts/ecu.h"
#include "rts/migration.h"
#include "rts/mpu.h"
#include "rts/rts_interface.h"
#include "rts/selector_heuristic.h"
#include "rts/selector_optimal.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;
class CounterRegistry;

struct MRtsConfig {
  Mpu::Config mpu;
  Ecu::Config ecu;
  SelectorCostModel selector_cost;
  SelectionPolicy selector_policy = SelectionPolicy::kMaxProfit;
  /// Profit-computation variant (ablation of the Eq. 3/4 reconstruction).
  ProfitModel profit_model;
  /// Use the optimal (branch & bound) selector instead of the Fig. 6
  /// heuristic — the "online optimal" competitor of Fig. 9.
  bool use_optimal_selector = false;
  /// Charge the blocking part of the selection overhead to the core
  /// (Section 5.4). Disable to measure the idealized zero-overhead system.
  bool charge_selection_overhead = true;
  /// Cross-block reconfiguration lookahead (an extension beyond the paper):
  /// after installing a block's selection, predict the *next* functional
  /// block (last-successor predictor), run a speculative selection for it on
  /// the leftover fabric and start loading its data paths early. Wrong
  /// predictions only waste fabric that was idle anyway.
  bool enable_lookahead = false;
  /// Deterministic fault injection (arch/fault_model.h). The default injects
  /// nothing; with any_faults() the MRts seeds a FaultModel and attaches it
  /// to its fabric — load CRC failures with retry/backoff, scrubbed
  /// transient upsets and permanent container quarantines then exercise the
  /// ECU degradation ladder.
  FaultModelConfig fault;
  /// Migration-based self-healing (rts/migration.h): after a scrub that
  /// quarantined additional containers, compact the surviving FG
  /// configurations so the free space stays contiguous. Default-off keeps
  /// fault-free and legacy fault runs bit-identical.
  DefragConfig defrag;
};

/// Aggregated run statistics of one mRTS instance.
struct MRtsRunStats {
  std::uint64_t triggers = 0;
  std::uint64_t profit_evaluations = 0;
  Cycles total_selection_cycles = 0;   ///< full selector work (Sec. 5.4)
  Cycles total_blocking_cycles = 0;    ///< part that stalls the core
  std::uint64_t selected_ises = 0;
  std::uint64_t selected_mg_ises = 0;
  std::uint64_t selected_fg_ises = 0;
  std::uint64_t selected_cg_ises = 0;
  std::uint64_t reused_instances = 0;
  std::uint64_t lookahead_prefetches = 0;  ///< speculative loads started
  std::uint64_t defrag_passes = 0;         ///< recovery passes triggered
  std::uint64_t defrag_migrations = 0;     ///< completed live migrations
};

class MRts final : public RuntimeSystem {
 public:
  MRts(const IseLibrary& lib, unsigned num_cg_fabrics, unsigned num_prcs,
       MRtsConfig config = {});

  /// Binds the run-time system to an externally owned fabric, enabling
  /// several tasks (each with its own MRts instance) to share one
  /// reconfigurable processor: their installations evict each other's data
  /// paths exactly like the "fabric shared among various tasks" scenario of
  /// Section 1. \p shared_fabric must outlive this object; reset() leaves
  /// it untouched (other tasks may still use it). This is the *unmanaged*
  /// sharing mode (tenant id kUnownedTenant, no arbitration); production
  /// multi-tenant setups use the TenantBinding constructor below.
  MRts(const IseLibrary& lib, FabricManager& shared_fabric,
       MRtsConfig config = {});

  /// Tenant-bound shared-fabric construction (arch/tenant.h): binds this
  /// instance to a tenant slot of an arbitrated fabric, as handed out by
  /// FabricArbiter::binding() after registering the tenant. Every fabric
  /// operation of this instance then runs as that tenant: placements are
  /// confined to accessible containers, the selector plans with the
  /// tenant-visible capacity, and evictions it causes are attributed to it.
  /// Throws std::invalid_argument when the binding has no fabric (e.g. the
  /// tenant was not admitted).
  MRts(const IseLibrary& lib, const TenantBinding& binding,
       MRtsConfig config = {});

  std::string name() const override;
  SelectionOutcome on_trigger(const TriggerInstruction& programmed,
                              Cycles now) override;
  ExecOutcome execute_kernel(KernelId k, Cycles now) override;
  Cycles execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                     std::size_t n, Cycles gap_total,
                     std::uint64_t* impl_executions, Cycles* impl_cycles,
                     Cycles* first_exec_start) override;
  Cycles execute_events(const ExecEvent* events, const ExecRun* runs,
                        std::size_t num_runs, Cycles cursor,
                        std::uint64_t* impl_executions, Cycles* impl_cycles,
                        ObservationSink& obs) override;
  void on_block_end(const BlockObservation& observed, Cycles now) override;
  void reset() override;

  /// Attaches a flight recorder and counter registry (util/trace.h,
  /// util/counters.h) to every unit of this run-time system: MPU forecast
  /// errors, selector rounds, ECU decisions and the fabric's
  /// reconfiguration/occupancy timeline all land in one event stream.
  /// Either pointer may be null; passing both null detaches. The recorder
  /// must outlive this object (or be detached first) and — like the MRts
  /// itself — must not be shared across threads.
  ///
  /// Shared-fabric contract (explicit, replacing the old "last attachment
  /// wins"): the fabric's event stream has exactly one observer. The first
  /// instance to attach claims it (its recorder then sees the fabric-side
  /// events of *every* task on that fabric); later instances observe only
  /// their own units. Attaching a different recorder directly over the
  /// fabric's existing one throws std::logic_error
  /// (FabricManager::attach_observability).
  void attach_observability(TraceRecorder* trace,
                            CounterRegistry* counters) override;

  /// Unified lifecycle API: attaches \p model to this instance's fabric.
  /// Throws std::logic_error when a different model is already attached
  /// (e.g. by another task sharing the fabric, or by a fault-enabled
  /// MRtsConfig) — the fault timeline of one fabric has one owner.
  bool attach_fault_model(FaultModel* model) override;

  /// Tenant this instance acts as on its fabric (kUnownedTenant unless
  /// constructed from a TenantBinding).
  TenantId tenant() const { return tenant_; }

  const FabricManager& fabric() const { return *fabric_; }
  bool owns_fabric() const { return owned_fabric_ != nullptr; }
  /// The fault injector driving this instance's fabric (nullptr when the
  /// fault config is all-zero, i.e. the fault-free machine).
  const FaultModel* fault_model() const { return fault_model_.get(); }
  const Ecu& ecu() const { return ecu_; }
  const Mpu& mpu() const { return mpu_; }
  const MRtsRunStats& run_stats() const { return stats_; }
  const MRtsConfig& config() const { return config_; }

  /// Whole-instance state capture/restore (rts/snapshot.h): fabric +
  /// reconfiguration ports, fault injector RNG/stats, MPU forecasts, ECU
  /// block-boundary state, run stats, lookahead predictor and the
  /// self-healing watermark. The restoring process must construct this
  /// instance from the *same* MRtsConfig/library/fabric shape first (the
  /// snapshot meta header carries those); load_state validates what it can
  /// (fabric shape, fault-model presence) and throws SnapshotError before
  /// mutating on mismatch. The profit cache needs no state — every select()
  /// clears it.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  const IseLibrary* lib_;
  MRtsConfig config_;
  std::unique_ptr<FabricManager> owned_fabric_;  ///< null in shared mode
  FabricManager* fabric_;
  /// Tenant identity on fabric_ (kUnownedTenant = single-app/unmanaged).
  TenantId tenant_ = kUnownedTenant;
  /// True when this instance claimed the shared fabric's observability
  /// stream (first attachment wins; see attach_observability).
  bool fabric_observer_ = false;
  /// Owned injector, attached to fabric_ when config_.fault.any_faults().
  /// Construction throws if the (shared) fabric already has a different
  /// model attached — see attach_fault_model.
  std::unique_ptr<FaultModel> fault_model_;
  Mpu mpu_;
  HeuristicSelector heuristic_;
  OptimalSelector optimal_;
  Ecu ecu_;
  MRtsRunStats stats_;
  /// Self-healing policy + the quarantine count it last acted on (recovery
  /// runs only when a scrub *grew* the set). Part of the snapshot state.
  DefragPolicy defrag_;
  unsigned seen_quarantined_ = 0;

  // Lookahead state: block-successor predictor + programmed-trigger cache.
  std::unordered_map<std::uint32_t, std::uint32_t> successor_;
  std::unordered_map<std::uint32_t, TriggerInstruction> trigger_cache_;
  FunctionalBlockId last_block_ = kInvalidFunctionalBlock;
};

}  // namespace mrts
