// Reproduces Fig. 10: application speedup of mRTS over RISC-mode execution
// for fabric combinations PRCs 0..3 x CG 0..3, grouped into FG-only,
// CG-only and multi-grained sets, with the average line. Paper shape:
// FG-only combinations reach ~1.8-2.2x; multi-grained combinations are the
// clear winners (paper: >5x) because mRTS starts employing MG-ISEs and the
// monoCG-Extension; 1 PRC + 1 CG beats 3 PRCs-only and 3 CGs-only.
//
// The 16-point sweep runs its points in point order; each point builds a
// private MRts instance.

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

struct Point {
  double speedup = 0.0;
  double mono_fraction = 0.0;
  double mg_selected = 0.0;
};

std::map<std::string, Point>& points() {
  static std::map<std::string, Point> p;
  return p;
}

const std::vector<FabricCombination>& sweep_points() {
  static const std::vector<FabricCombination> p = fabric_sweep(3, 3);
  return p;
}

Point run_point(const FabricCombination& combo) {
  const EvalContext& ctx = context();
  MRts rts(ctx.app.library, combo.cg, combo.prcs);
  const AppRunResult r = run_application(rts, ctx.app.trace);
  Point point;
  point.speedup = speedup(ctx.risc_cycles, r.total_cycles);
  point.mono_fraction = r.impl_fraction(ImplKind::kMonoCg);
  point.mg_selected = static_cast<double>(rts.run_stats().selected_mg_ises);
  return point;
}

void run_sweep() {
  for (const FabricCombination& combo : sweep_points()) {
    points()[combo.label()] = run_point(combo);
  }
}

/// Reporting stub over the precomputed sweep results.
void BM_Fig10_Combination(benchmark::State& state) {
  const auto prcs = static_cast<unsigned>(state.range(0));
  const auto cg = static_cast<unsigned>(state.range(1));
  const Point& point = points()[FabricCombination{prcs, cg}.label()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.speedup);
  }
  state.counters["speedup_vs_risc"] = point.speedup;
}

void register_benchmarks() {
  for (const FabricCombination& combo : sweep_points()) {
    benchmark::RegisterBenchmark(("BM_Fig10/" + combo.label()).c_str(),
                                 BM_Fig10_Combination)
        ->Args({static_cast<long>(combo.prcs), static_cast<long>(combo.cg)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"PRCs/CG", "group", "speedup vs RISC", "monoCG exec frac",
                   "MG-ISEs selected"});
  CsvWriter csv("fig10_speedup_vs_risc.csv");
  csv.write_header(
      {"prcs", "cg", "group", "speedup", "mono_fraction", "mg_selected"});

  RunningStats all;
  RunningStats fg_only;
  RunningStats cg_only;
  RunningStats mg;
  for (const FabricCombination& combo : sweep_points()) {
    const Point& p = points()[combo.label()];
    const char* group = combo.risc_only() ? "RISC"
                        : combo.fg_only() ? "FG-only"
                        : combo.cg_only() ? "CG-only"
                                          : "MG";
    if (combo.fg_only()) fg_only.add(p.speedup);
    if (combo.cg_only()) cg_only.add(p.speedup);
    if (combo.multi_grained()) mg.add(p.speedup);
    if (!combo.risc_only()) all.add(p.speedup);
    table.add_values(combo.label(), group, p.speedup, p.mono_fraction,
                     static_cast<std::uint64_t>(p.mg_selected));
    csv.write_values(combo.prcs, combo.cg, group, p.speedup, p.mono_fraction,
                     p.mg_selected);
  }
  std::printf("\nFig. 10 — mRTS speedup vs RISC mode (written to "
              "fig10_speedup_vs_risc.csv)\n%s",
              table.render().c_str());
  std::printf(
      "Group averages: FG-only %.2fx (paper: 1.8-2.2x), CG-only %.2fx, "
      "multi-grained %.2fx / max %.2fx (paper: >5x), overall avg %.2fx.\n"
      "Key check — 1 PRC + 1 CG (%.2fx) vs 3 PRCs-only (%.2fx) and 3 "
      "CGs-only (%.2fx).\n",
      fg_only.mean(), cg_only.mean(), mg.mean(), mg.max(), all.mean(),
      points()["11"].speedup, points()["30"].speedup, points()["03"].speedup);
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  run_sweep();
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
