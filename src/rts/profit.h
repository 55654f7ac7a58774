#pragma once
/// \file profit.h
/// The mRTS profit function (Section 4.1, Eqs. 1-4).
///
/// Eq. 1 — performance improvement factor of an ISE:
///     pif = sw_time*e / (reconfig_latency + hw_time*e)
///
/// Eq. 2 — performance improvement of the i-th intermediate ISE:
///     per_imp(i) = NoE(i) * (latency_RM - latency(ISE_i))
///
/// Eq. 3 — expected number of executions of the i-th intermediate ISE.
///   With recT(i) the (predicted) completion time of the i-th intermediate
///   ISE relative to the trigger, tf the time until the first kernel
///   execution and tb the average gap between consecutive executions:
///     recT(i+1) <= tf              ->  0
///     recT(i) <= tf <= recT(i+1)   ->  (recT(i+1) - tf)      / (latency(i) + tb)
///     recT(i) >= tf                ->  (recT(i+1) - recT(i)) / (latency(i) + tb)
///   (the published formula is typographically garbled; this reconstruction
///   follows the prose directly — see DESIGN.md).
///
/// Eq. 4 — total profit:
///     profit = sum_i per_imp(i)
///            + (latency_RM - latency(ISE_n)) * (e - NoE_RM - sum_i NoE(i))
///   where NoE_RM (Fig. 5) is the number of unaccelerated RISC-mode
///   executions before the first data path is ready; Eq. 4 as printed omits
///   it, which would credit slow-loading ISEs for executions that happen
///   without them (see the note in profit.cpp).
///
/// Eqs. 2-4 live in one function, profit_impl. compute_profit checks a
/// ProfitInputs and calls it for the full breakdown; the selectors' fused
/// profit pass (evaluate_candidate_profit in selector_heuristic.h) plans
/// the ready times into a stack buffer, with the reconfiguration times
/// cached by DataPathTable::add, and calls it for the value alone.

#include <vector>

#include "isa/ise.h"
#include "util/types.h"

namespace mrts {

/// Variant switches of the profit computation, used to ablate the
/// reconstruction decisions (see EXPERIMENTS.md "Known modelling deltas").
struct ProfitModel {
  /// Subtract the RISC-mode executions before the first data path is ready
  /// (the NoE_RM term of Fig. 5) from the full-ISE share. Eq. 4 as printed
  /// omits it; disabling reproduces the literal formula.
  bool account_risc_window = true;
  /// Include tb (average gap between executions) in the Eq. 3 denominators.
  bool include_tb = true;
};

/// Inputs to one profit evaluation.
struct ProfitInputs {
  const IseVariant* ise = nullptr;
  double expected_executions = 0.0;  ///< e from the trigger instruction
  Cycles time_to_first = 0;          ///< tf
  Cycles time_between = 0;           ///< tb
  /// Predicted completion time of each data-path instance *relative to the
  /// trigger*; size = ise->num_data_paths(). Monotonicity is not required —
  /// the prefix maximum is applied internally.
  std::vector<Cycles> ready_rel;
  ProfitModel model;
};

struct ProfitResult {
  double profit = 0.0;       ///< expected saved cycles (Eq. 4)
  double noe_sum = 0.0;      ///< sum of NoE(i) over intermediate ISEs
  std::vector<double> noe;   ///< NoE(i) for i = 1..n-1 (index 0 <-> ISE_1)
  double risc_executions = 0.0;  ///< NoE_RM: unaccelerated executions before
                                 ///< the first data path is ready (Fig. 5)
  double full_executions = 0.0;  ///< executions with the complete ISE
};

/// Evaluates Eqs. 2-4 for one candidate ISE (checks its inputs, then calls
/// profit_impl with the NoE breakdown).
ProfitResult compute_profit(const ProfitInputs& in);

/// The one implementation of Eqs. 2-4, on the ise.num_data_paths() ready
/// times relative to the trigger in \p ready_rel (at least one; not
/// checked). With \p out null it allocates nothing, as the fused pass
/// needs; the arithmetic and its order do not depend on \p out, so both
/// entry points return the same bits.
double profit_impl(const IseVariant& ise, const Cycles* ready_rel,
                   double expected_executions, Cycles time_to_first,
                   Cycles time_between, const ProfitModel& model,
                   ProfitResult* out);

/// Eq. 1: performance improvement factor.
double performance_improvement_factor(Cycles sw_time, Cycles hw_time,
                                      Cycles reconfig_latency,
                                      double executions);

}  // namespace mrts
