// Reproduces the Section 5.4 overhead analysis: the mRTS ISE selection takes
// on average less than 3000 cycles per kernel, about 1.9% of the average
// functional-block execution time, and only the first selection of a block
// blocks the core (the rest is hidden behind the reconfiguration process).
// Also measures the *host* wall-clock cost of a selection, i.e. how fast the
// library itself is.
//
// The Section 4.1 scaling sweep (kernel count x data-path shape) runs its
// points in order; each point builds its own synthetic library, selector
// and planner.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "isa/ise_builder.h"
#include "rts/reconfig_plan.h"
#include "rts/selector_heuristic.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

/// Wall-clock cost of one heuristic selection on the host machine.
void BM_Overhead_HeuristicSelection(benchmark::State& state) {
  const EvalContext& ctx = context();
  const HeuristicSelector selector(ctx.app.library);
  const TriggerInstruction& ti = ctx.app.trace.blocks[1].programmed;  // EE
  for (auto _ : state) {
    ReconfigPlanner planner(ctx.app.library.data_paths(), 2, 2, 0);
    const SelectionResult r = selector.select(ti, planner);
    benchmark::DoNotOptimize(r.total_profit);
  }
}
BENCHMARK(BM_Overhead_HeuristicSelection);

/// Wall-clock cost of one optimal (branch & bound) selection — the paper's
/// argument why the optimal algorithm is infeasible at run time.
void BM_Overhead_OptimalSelection(benchmark::State& state) {
  const EvalContext& ctx = context();
  const OptimalSelector selector(ctx.app.library);
  const TriggerInstruction& ti = ctx.app.trace.blocks[1].programmed;
  for (auto _ : state) {
    ReconfigPlanner planner(ctx.app.library.data_paths(), 2, 2, 0);
    const SelectionResult r = selector.select(ti, planner);
    benchmark::DoNotOptimize(r.total_profit);
  }
}
BENCHMARK(BM_Overhead_OptimalSelection);

void print_table() {
  const EvalContext& ctx = context();
  MRts rts(ctx.app.library, 2, 2);
  const AppRunResult run = run_application(rts, ctx.app.trace);
  const MRtsRunStats& stats = rts.run_stats();

  const double blocks = static_cast<double>(run.block_cycles.size());
  const double kernels_selected =
      std::max<double>(1.0, static_cast<double>(stats.selected_ises));
  const double cycles_per_kernel =
      static_cast<double>(stats.total_selection_cycles) / kernels_selected;
  double avg_block = 0.0;
  for (Cycles c : run.block_cycles) avg_block += static_cast<double>(c);
  avg_block /= blocks;
  const double per_block_selection =
      static_cast<double>(stats.total_selection_cycles) / blocks;
  const double percent_of_block = 100.0 * per_block_selection / avg_block;
  const double blocking_percent =
      100.0 * static_cast<double>(run.blocking_overhead) /
      static_cast<double>(run.total_cycles);
  const double hidden =
      100.0 - 100.0 * static_cast<double>(stats.total_blocking_cycles) /
                  std::max<double>(1.0,
                                   static_cast<double>(
                                       stats.total_selection_cycles));

  TextTable table({"metric", "measured", "paper"});
  table.add_values("selection cycles per kernel",
                   format_double(cycles_per_kernel, 0), "< 3000");
  table.add_values("selection time / avg FB time",
                   format_double(percent_of_block, 2) + "%", "~1.9%");
  table.add_values("core-blocking share of total runtime",
                   format_double(blocking_percent, 3) + "%", "negligible");
  table.add_values("selection work hidden behind reconfiguration",
                   format_double(hidden, 1) + "%",
                   "all but the first selection");
  table.add_values("profit evaluations per trigger",
                   format_double(static_cast<double>(stats.profit_evaluations) /
                                     std::max<double>(1.0, blocks),
                                 1),
                   "-");
  std::printf("\nSection 5.4 — mRTS implementation overhead (2 PRCs, 2 CG "
              "fabrics)\n%s",
              table.render().c_str());

  CsvWriter csv("overhead.csv");
  csv.write_header({"cycles_per_kernel", "percent_of_block",
                    "blocking_percent", "hidden_percent"});
  csv.write_values(cycles_per_kernel, percent_of_block, blocking_percent,
                   hidden);
}

/// Builds a synthetic library with \p kernels kernels of ~\p variants ISE
/// variants each (large data-path families, like the paper's "up to 60 ISEs
/// for a single kernel").
IseLibrary scaling_library(unsigned kernels, unsigned fg_dps, unsigned cg_dps) {
  IseLibrary lib;
  for (unsigned k = 0; k < kernels; ++k) {
    IseBuildSpec spec;
    spec.kernel_name = std::string("K").append(std::to_string(k));
    spec.sw_latency = 600 + 50 * k;
    spec.control_fraction = 0.3 + 0.05 * static_cast<double>(k % 8);
    for (unsigned d = 0; d < fg_dps; ++d) {
      spec.fg_data_path_names.push_back(spec.kernel_name + "_fg" +
                                        std::to_string(d));
    }
    for (unsigned d = 0; d < cg_dps; ++d) {
      spec.cg_data_path_names.push_back(spec.kernel_name + "_cg" +
                                        std::to_string(d));
    }
    spec.fg_control_dps = fg_dps;  // every FG prefix forms an MG variant
    spec.cg_data_dps = cg_dps;
    build_kernel_ises(lib, spec);
  }
  return lib;
}

/// One point of the Section 4.1 scaling sweep.
struct ScalingPoint {
  unsigned kernels = 0;
  unsigned fg_dps = 0;
  unsigned cg_dps = 0;
};

struct ScalingResult {
  unsigned variants = 0;
  std::uint64_t profit_evaluations = 0;
  Cycles overhead_cycles = 0;
};

std::vector<ScalingPoint> scaling_points() {
  std::vector<ScalingPoint> points;
  for (unsigned kernels : {2u, 4u, 8u}) {
    for (auto [fg, cg] :
         {std::pair<unsigned, unsigned>{2, 1}, {4, 2}, {5, 4}}) {
      points.push_back({kernels, fg, cg});
    }
  }
  return points;
}

/// Fully independent: builds its own library, selector and planner.
ScalingResult run_scaling_point(const ScalingPoint& p) {
  const IseLibrary lib = scaling_library(p.kernels, p.fg_dps, p.cg_dps);
  ScalingResult out;
  out.variants = static_cast<unsigned>(lib.kernel(KernelId{0}).ises.size());
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  for (const auto& kernel : lib.kernels()) {
    ti.entries.push_back({kernel.id, 3000.0, 400, 200});
  }
  const HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 6, 4, 0);
  const SelectionResult r = selector.select(ti, planner);
  out.profit_evaluations = r.profit_evaluations;
  out.overhead_cycles = r.overhead_cycles;
  return out;
}

/// The O(N*M) complexity claim of Section 4.1: selection work (profit
/// evaluations and the modelled cycle cost) must grow linearly in both the
/// kernel count N and the per-kernel variant count M.
void print_scaling_table() {
  TextTable table({"kernels N", "variants M", "candidates N*M",
                   "profit evals", "modelled cycles", "cycles/kernel"});
  CsvWriter csv("overhead_scaling.csv");
  csv.write_header({"kernels", "variants", "candidates", "profit_evals",
                    "modelled_cycles"});
  for (const ScalingPoint& p : scaling_points()) {
    const ScalingResult r = run_scaling_point(p);
    table.add_values(p.kernels, r.variants, p.kernels * r.variants,
                     r.profit_evaluations, r.overhead_cycles,
                     format_double(static_cast<double>(r.overhead_cycles) /
                                       p.kernels,
                                   0));
    csv.write_values(p.kernels, r.variants, p.kernels * r.variants,
                     r.profit_evaluations, r.overhead_cycles);
  }
  std::printf("\nSelection-cost scaling (Section 4.1's O(N*M); written to "
              "overhead_scaling.csv)\n%s",
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  print_table();
  print_scaling_table();
  return 0;
}
