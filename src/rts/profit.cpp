#include "rts/profit.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {

namespace {

void check_inputs(const ProfitInputs& in, std::size_t n) {
  if (in.ise == nullptr) {
    throw std::invalid_argument("compute_profit: null ISE");
  }
  if (n == 0) {
    throw std::invalid_argument("compute_profit: ISE without data paths");
  }
  if (in.ready_rel.size() != n) {
    throw std::invalid_argument(
        "compute_profit: ready_rel size must equal #data paths");
  }
}

}  // namespace

/// recT(i) (completion of the i-th intermediate ISE) is the prefix maximum
/// of the instance ready times, computed as a running value — the selector
/// hot loop calls this thousands of times per trigger, so it must not
/// allocate when \p out is null.
double profit_impl(const IseVariant& ise, const Cycles* ready_rel,
                   double expected_executions, Cycles time_to_first,
                   Cycles time_between, const ProfitModel& model,
                   ProfitResult* out) {
  const std::size_t n = ise.num_data_paths();

  const double e = std::max(0.0, expected_executions);
  const double latency_rm = static_cast<double>(ise.risc_latency());
  const double tf = static_cast<double>(time_to_first);
  const double tb = model.include_tb ? static_cast<double>(time_between) : 0.0;

  double profit = 0.0;
  double remaining = e;
  Cycles rec_prev = ready_rel[0];  // recT(1) so far

  // NoE_RM (Fig. 5): executions in RISC mode before the first data path is
  // ready. Eq. 4 as printed omits this term, but without it a slow-loading
  // ISE would be credited for executions that in fact happen unaccelerated;
  // the authors' own Fig. 1 amortization clearly accounts for it.
  if (model.account_risc_window) {
    const double rec_1 = static_cast<double>(rec_prev);
    double noe_rm = 0.0;
    if (rec_1 > tf) noe_rm = (rec_1 - tf) / (latency_rm + tb);
    noe_rm = std::clamp(noe_rm, 0.0, remaining);
    remaining -= noe_rm;
    if (out != nullptr) out->risc_executions = noe_rm;
  }

  // Intermediate ISEs i = 1..n-1 live in the window [recT(i), recT(i+1)).
  for (std::size_t i = 1; i < n; ++i) {
    const Cycles rec_cur = std::max(rec_prev, ready_rel[i]);
    const double rec_i = static_cast<double>(rec_prev);
    const double rec_next = static_cast<double>(rec_cur);
    const double latency_i = static_cast<double>(ise.latency_after[i]);
    double noe = 0.0;
    if (rec_next <= tf) {
      noe = 0.0;  // the next level is ready before the kernel even starts
    } else if (rec_i <= tf) {
      noe = (rec_next - tf) / (latency_i + tb);
    } else {
      noe = (rec_next - rec_i) / (latency_i + tb);
    }
    noe = std::clamp(noe, 0.0, remaining);
    remaining -= noe;
    if (out != nullptr) {
      out->noe.push_back(noe);
      out->noe_sum += noe;
    }
    profit += noe * (latency_rm - latency_i);
    rec_prev = rec_cur;
  }

  // The complete ISE serves whatever executions are left (Eq. 4).
  const double latency_full = static_cast<double>(ise.full_latency());
  if (out != nullptr) out->full_executions = remaining;
  profit += remaining * (latency_rm - latency_full);
  return profit;
}

ProfitResult compute_profit(const ProfitInputs& in) {
  check_inputs(in, in.ise != nullptr ? in.ise->num_data_paths() : 0);
  ProfitResult out;
  out.noe.reserve(in.ise->num_data_paths() - 1);
  out.profit = profit_impl(*in.ise, in.ready_rel.data(),
                           in.expected_executions, in.time_to_first,
                           in.time_between, in.model, &out);
  return out;
}

double performance_improvement_factor(Cycles sw_time, Cycles hw_time,
                                      Cycles reconfig_latency,
                                      double executions) {
  const double numerator = static_cast<double>(sw_time) * executions;
  const double denominator = static_cast<double>(reconfig_latency) +
                             static_cast<double>(hw_time) * executions;
  if (denominator <= 0.0) return 0.0;
  return numerator / denominator;
}

}  // namespace mrts
