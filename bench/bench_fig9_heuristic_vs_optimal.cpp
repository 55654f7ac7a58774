// Reproduces Fig. 9: percentage difference between the performance achieved
// with the run-time optimal (branch & bound) ISE selection and the Fig. 6
// heuristic, over PRCs 0..6 x CG fabrics 0..3. Paper shape: the heuristic
// stays within ~3% whenever at least one CG fabric is available; the worst
// case (~11%) occurs at PRC-only combinations where the optimal distributes
// the PRCs over two kernels while the greedy gives most of them to one.
//
// The 27-point sweep (the RISC-only corner has nothing to select) fans out
// over a SweepRunner (--jobs N); each point runs its three simulations on
// private simulator instances and results merge in submission order, so the
// output is byte-identical to `--jobs 1`.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

struct Diffs {
  double heuristic = 0.0;  ///< max-profit heuristic vs optimal
  double density = 0.0;    ///< profit-density policy vs optimal
};

std::map<std::string, Diffs>& diffs() {
  static std::map<std::string, Diffs> d;
  return d;
}

const std::vector<FabricCombination>& sweep_points() {
  static const std::vector<FabricCombination> points = []() {
    std::vector<FabricCombination> out;
    for (const FabricCombination& c : fabric_sweep(6, 3)) {
      if (!c.risc_only()) out.push_back(c);  // RISC mode: nothing to select
    }
    return out;
  }();
  return points;
}

Diffs run_point(const FabricCombination& combo) {
  const EvalContext& ctx = context();
  MRtsConfig heuristic_cfg;
  heuristic_cfg.charge_selection_overhead = false;  // isolate selection
  const Cycles heuristic =
      ctx.run_mrts(combo.cg, combo.prcs, heuristic_cfg).total_cycles;
  MRtsConfig optimal_cfg;
  optimal_cfg.use_optimal_selector = true;
  optimal_cfg.charge_selection_overhead = false;
  const Cycles optimal =
      ctx.run_mrts(combo.cg, combo.prcs, optimal_cfg).total_cycles;
  MRtsConfig density_cfg;
  density_cfg.selector_policy = SelectionPolicy::kMaxProfitDensity;
  density_cfg.charge_selection_overhead = false;
  const Cycles density =
      ctx.run_mrts(combo.cg, combo.prcs, density_cfg).total_cycles;

  Diffs d;
  d.heuristic = percent_difference(static_cast<double>(optimal),
                                   static_cast<double>(heuristic));
  d.density = percent_difference(static_cast<double>(optimal),
                                 static_cast<double>(density));
  return d;
}

void run_sweep(unsigned jobs) {
  (void)context();
  timed_sweep("Fig. 9", jobs, [](const SweepRunner& runner) {
    const auto& points = sweep_points();
    const std::vector<Diffs> results = runner.map(points, run_point);
    for (std::size_t i = 0; i < points.size(); ++i) {
      diffs()[points[i].label()] = results[i];
    }
  });
}

/// Reporting stub over the precomputed sweep results.
void BM_Fig9_Combination(benchmark::State& state) {
  const auto prcs = static_cast<unsigned>(state.range(0));
  const auto cg = static_cast<unsigned>(state.range(1));
  const Diffs& d = diffs()[FabricCombination{prcs, cg}.label()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.heuristic);
  }
  state.counters["percent_difference"] = d.heuristic;
}

void register_benchmarks() {
  for (const FabricCombination& combo : sweep_points()) {
    benchmark::RegisterBenchmark(("BM_Fig9/" + combo.label()).c_str(),
                                 BM_Fig9_Combination)
        ->Args({static_cast<long>(combo.prcs), static_cast<long>(combo.cg)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"PRCs", "CG=0", "CG=1", "CG=2", "CG=3"});
  CsvWriter csv("fig9_heuristic_vs_optimal.csv");
  csv.write_header({"prcs", "cg", "percent_difference"});
  double worst = 0.0;
  std::string worst_at = "-";
  RunningStats with_cg;
  for (unsigned prcs = 0; prcs <= 6; ++prcs) {
    std::vector<std::string> cells = {std::to_string(prcs)};
    for (unsigned cg = 0; cg <= 3; ++cg) {
      if (prcs == 0 && cg == 0) {
        cells.push_back("-");
        continue;
      }
      const double diff =
          diffs()[FabricCombination{prcs, cg}.label()].heuristic;
      cells.push_back(format_double(diff, 2) + "%");
      csv.write_values(prcs, cg, diff);
      if (diff > worst) {
        worst = diff;
        worst_at = FabricCombination{prcs, cg}.label();
      }
      if (cg >= 1) with_cg.add(diff);
    }
    table.add_row(cells);
  }
  std::printf("\nFig. 9 — heuristic ISE selection vs run-time optimal, "
              "%% performance difference (written to "
              "fig9_heuristic_vs_optimal.csv)\n%s",
              table.render().c_str());
  std::printf("With >=1 CG fabric: avg %.2f%%, max %.2f%% (paper: ~<=3%%). "
              "Worst case overall: %.2f%% at combination %s (paper: ~11%% at "
              "4 PRCs).\n",
              with_cg.mean(), with_cg.max(), worst, worst_at.c_str());

  // The documented mitigation: the profit-density ranking policy removes
  // most of the PRC-only resource hogging.
  RunningStats density_cg0;
  RunningStats maxprofit_cg0;
  for (unsigned prcs = 1; prcs <= 6; ++prcs) {
    const Diffs& d = diffs()[FabricCombination{prcs, 0}.label()];
    density_cg0.add(d.density);
    maxprofit_cg0.add(d.heuristic);
  }
  std::printf("PRC-only column with the profit-density policy (extension): "
              "avg %.2f%% / max %.2f%% vs %.2f%% / %.2f%% for the paper's "
              "max-profit rule.\n",
              density_cg0.mean(), density_cg0.max(), maxprofit_cg0.mean(),
              maxprofit_cg0.max());
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv, {BenchFlag::kJobs});
  ::benchmark::Initialize(&argc, argv);
  run_sweep(bench_jobs());
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
