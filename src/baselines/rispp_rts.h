#pragma once
/// \file rispp_rts.h
/// RISPP-like run-time system [6], extended to CG fabrics for a direct
/// comparison (Section 5.2). Like mRTS it selects per functional block and
/// exploits intermediate ISEs, but
///
///  * its cost function is tuned to the ms-scale reconfiguration of the FG
///    fabric: every data path — CG included — is priced at the FG
///    reconfiguration cost, so the microsecond availability of CG/MG
///    variants is invisible to the selection;
///  * it has no monoCG-Extension (the concept is introduced by mRTS).

#include <string>

#include "arch/fabric_manager.h"
#include "isa/ise_library.h"
#include "rts/ecu.h"
#include "rts/mpu.h"
#include "rts/rts_interface.h"
#include "rts/selector_heuristic.h"
#include "util/types.h"

namespace mrts {

struct RisppConfig {
  Mpu::Config mpu;  ///< RISPP is self-adaptive as well [12]
  SelectorCostModel selector_cost;
  /// Per-data-path reconfiguration cost assumed by the cost function
  /// (defaults to the FG data-path cost, ~1.2 ms).
  Cycles assumed_reconfig_cycles =
      fg_reconfig_cycles_for_bytes(kDefaultFgBitstreamBytes);
};

class RisppRts final : public RuntimeSystem {
 public:
  RisppRts(const IseLibrary& lib, unsigned num_cg_fabrics, unsigned num_prcs,
           RisppConfig config = {});

  std::string name() const override { return "RISPP-like"; }
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

  /// Unified lifecycle API: fans out to the MPU, selector, ECU and fabric.
  void attach_observability(TraceRecorder* trace,
                            CounterRegistry* counters) override {
    mpu_.attach_observability(trace, counters);
    selector_.attach_trace(trace);
    ecu_.attach_observability(trace, counters);
    fabric_.attach_observability(trace, counters);
  }
  bool attach_fault_model(FaultModel* model) override {
    fabric_.attach_fault_model(model);
    return true;
  }

  const FabricManager& fabric() const { return fabric_; }
  const Ecu& ecu() const { return ecu_; }

 private:
  const IseLibrary* lib_;
  RisppConfig config_;
  FabricManager fabric_;
  Mpu mpu_;
  HeuristicSelector selector_;
  Ecu ecu_;
};

}  // namespace mrts
