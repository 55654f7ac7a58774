// Reproduces Fig. 8: execution time of the whole H.264 encoder under the
// RISPP-like, offline-optimal, Morpheus/4S-like and mRTS schemes over fabric
// combinations (PRCs 0..4 x CG fabrics 0..3; combination "00" is RISC mode),
// plus the speedup-of-mRTS lines. Paper shape: mRTS is fastest everywhere;
// vs RISPP-like up to ~1.8x (avg ~1.3x), vs Morpheus+4S up to ~2.3x (avg
// ~1.78x), vs offline-optimal up to ~2.2x (avg ~1.45x); ties at single-grain
// corners.
//
// The 20-point sweep fans out over a SweepRunner (--jobs N, default: one
// worker per hardware thread); every point builds its own simulator stack
// from the shared read-only EvalContext, and results merge in submission
// order, so the table/CSV below are byte-identical to `--jobs 1`. The
// registered per-combination benchmarks report the precomputed rows.

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

struct Row {
  Cycles rispp = 0;
  Cycles offline = 0;
  Cycles morpheus = 0;
  Cycles mrts = 0;
};

/// Row plus the point's mRTS counter snapshot (empty when untraced). The
/// snapshots merge after the sweep in submission order — see counters.h for
/// why that fixed order keeps the output deterministic at any --jobs.
struct PointResult {
  Row row;
  CounterRegistry counters;
};

std::map<std::string, Row>& rows() {
  static std::map<std::string, Row> r;
  return r;
}

const std::vector<FabricCombination>& sweep_points() {
  static const std::vector<FabricCombination> points = fabric_sweep(4, 3);
  return points;
}

/// One independent sweep point: four full-application runs, each on its own
/// freshly constructed RTS + fabric (EvalContext is shared read-only). With
/// --trace-dir, the mRTS run records into a per-point recorder/registry
/// (never shared across workers) and writes fig8_<label>.json — a distinct
/// file per point, so concurrent workers never collide.
PointResult run_point(const FabricCombination& combo) {
  const EvalContext& ctx = context();
  PointResult result;
  result.row.rispp = ctx.run_rispp(combo.cg, combo.prcs).total_cycles;
  result.row.offline =
      ctx.run_offline_optimal(combo.cg, combo.prcs).total_cycles;
  result.row.morpheus = ctx.run_morpheus(combo.cg, combo.prcs).total_cycles;
  MRtsConfig mrts_config;
  // Faults apply to the mRTS runs only — the baselines stay clean so the
  // figure isolates how mRTS itself degrades. Rate 0 (the default) keeps
  // the golden fault-free.
  const CliArgs& args = bench_args();
  const double fault_rate = args["--fault-rate"].probability;
  if (fault_rate > 0.0) {
    mrts_config.fault = FaultModelConfig::uniform(
        fault_rate, args["--fault-seed"].count,
        static_cast<unsigned>(args["--max-retries"].count));
  }
  const std::string& trace_dir = args["--trace-dir"].text;
  if (trace_dir.empty()) {
    result.row.mrts =
        ctx.run_mrts(combo.cg, combo.prcs, mrts_config).total_cycles;
  } else {
    TraceRecorder recorder;
    result.row.mrts = ctx.run_mrts(combo.cg, combo.prcs, mrts_config,
                                   &recorder, &result.counters)
                          .total_cycles;
    write_point_trace(trace_dir, "fig8_" + combo.label() + ".json",
                      recorder.events(), &context().app.library);
  }
  return result;
}

void run_sweep(unsigned jobs) {
  (void)context();  // build the shared workload once, before the fan-out
  timed_sweep("Fig. 8", jobs, [](const SweepRunner& runner) {
    const auto& points = sweep_points();
    const std::vector<PointResult> results = runner.map(points, run_point);
    CounterRegistry merged;
    for (std::size_t i = 0; i < points.size(); ++i) {
      rows()[points[i].label()] = results[i].row;
      merged.merge(results[i].counters);  // submission order = deterministic
    }
    if (!bench_args()["--trace-dir"].text.empty()) {
      print_counter_summary("Fig. 8", merged);
      std::printf("[trace] wrote %zu per-point traces to %s\n",
                  points.size(), bench_args()["--trace-dir"].text.c_str());
    }
  });
}

/// Reporting stub: the heavy work happened in run_sweep(); this publishes
/// the point's counters under the familiar BM_Fig8/<label> names.
void BM_Fig8_Combination(benchmark::State& state) {
  const auto prcs = static_cast<unsigned>(state.range(0));
  const auto cg = static_cast<unsigned>(state.range(1));
  const Row& row = rows()[FabricCombination{prcs, cg}.label()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.mrts);
  }
  state.counters["mrts_Mcycles"] = static_cast<double>(row.mrts) / 1e6;
  state.counters["speedup_vs_rispp"] = speedup(row.rispp, row.mrts);
  state.counters["speedup_vs_offline"] = speedup(row.offline, row.mrts);
  state.counters["speedup_vs_morpheus"] = speedup(row.morpheus, row.mrts);
}

void register_benchmarks() {
  for (const FabricCombination& combo : sweep_points()) {
    benchmark::RegisterBenchmark(("BM_Fig8/" + combo.label()).c_str(),
                                 BM_Fig8_Combination)
        ->Args({static_cast<long>(combo.prcs), static_cast<long>(combo.cg)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"PRCs/CG", "RISPP-like [Mcyc]", "Offline-opt [Mcyc]",
                   "Morpheus+4S [Mcyc]", "mRTS [Mcyc]", "vs RISPP",
                   "vs Offline", "vs Morpheus"});
  CsvWriter csv("fig8_state_of_the_art.csv");
  csv.write_header({"prcs", "cg", "rispp_cycles", "offline_cycles",
                    "morpheus_cycles", "mrts_cycles", "speedup_vs_rispp",
                    "speedup_vs_offline", "speedup_vs_morpheus"});

  RunningStats vs_rispp;
  RunningStats vs_offline;
  RunningStats vs_morpheus;
  for (const FabricCombination& combo : sweep_points()) {
    const Row& row = rows()[combo.label()];
    const double s_rispp = speedup(row.rispp, row.mrts);
    const double s_offline = speedup(row.offline, row.mrts);
    const double s_morpheus = speedup(row.morpheus, row.mrts);
    if (!combo.risc_only()) {
      vs_rispp.add(s_rispp);
      vs_offline.add(s_offline);
      vs_morpheus.add(s_morpheus);
    }
    table.add_values(combo.label(), format_mcycles(row.rispp),
                     format_mcycles(row.offline),
                     format_mcycles(row.morpheus), format_mcycles(row.mrts),
                     s_rispp, s_offline, s_morpheus);
    csv.write_values(combo.prcs, combo.cg, row.rispp, row.offline,
                     row.morpheus, row.mrts, s_rispp, s_offline, s_morpheus);
  }
  std::printf("\nFig. 8 — comparison with state-of-the-art approaches "
              "(written to fig8_state_of_the_art.csv)\n%s",
              table.render().c_str());
  std::printf(
      "mRTS speedup vs RISPP-like:    avg %.2fx, max %.2fx  (paper: avg "
      "~1.3x, up to 1.8x)\n"
      "mRTS speedup vs Offline-opt:   avg %.2fx, max %.2fx  (paper: avg "
      "~1.45x, up to 2.2x)\n"
      "mRTS speedup vs Morpheus+4S:   avg %.2fx, max %.2fx  (paper: avg "
      "~1.78x, up to 2.3x)\n",
      vs_rispp.mean(), vs_rispp.max(), vs_offline.mean(), vs_offline.max(),
      vs_morpheus.mean(), vs_morpheus.max());
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv,
                   {BenchFlag::kJobs, BenchFlag::kTraceDir,
                    BenchFlag::kFaultRate, BenchFlag::kFaultSeed,
                    BenchFlag::kMaxRetries});
  ::benchmark::Initialize(&argc, argv);
  run_sweep(bench_jobs());
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
