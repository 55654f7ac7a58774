// Fig. 13 (companion figure): fabric utilization and core stall breakdown
// versus fabric size. Every point of the Fig. 8 grid (PRCs 0..4 x CG fabrics
// 0..3) runs the H.264 encoder under mRTS with the flight recorder attached,
// then feeds the trace through the obs/ analysis engine: the five-bucket
// cycle accounting of the core (execute / reconfig-stall / scrub-repair /
// arbiter-idle / pure-idle, summing exactly to the run span), the per-grain
// fabric utilization, the FG fragmentation index + compaction opportunity,
// and the "is reconfiguration hidden?" fraction.
//
// Unlike the timing figures this bench always records (the analysis needs
// the trace), so its cycle numbers are the same as fig8's mRTS column — the
// recorder changes no simulation outcome, only observes it (pinned by the
// TracedRunEqualsUntracedRun tests). The sweep runs its points in point
// order, each with its own recorder.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "obs/report_io.h"
#include "obs/run_report.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

struct Row {
  Cycles mrts = 0;
  Cycles buckets[obs::kNumCycleBuckets] = {};
  double fg_utilization = 0.0;
  double cg_utilization = 0.0;
  double fragmentation = 0.0;
  double compaction = 0.0;
  double hidden_fraction = 1.0;
};

std::map<std::string, Row>& rows() {
  static std::map<std::string, Row> r;
  return r;
}

const std::vector<FabricCombination>& sweep_points() {
  static const std::vector<FabricCombination> points = fabric_sweep(4, 3);
  return points;
}

/// One independent sweep point: a traced mRTS run analyzed in-process. The
/// recorder and the report are point-local; only the read-only EvalContext
/// is shared.
Row run_point(const FabricCombination& combo) {
  const EvalContext& ctx = context();
  TraceRecorder recorder;
  Row row;
  row.mrts = ctx.run_mrts(combo.cg, combo.prcs, MRtsConfig{}, &recorder)
                 .total_cycles;
  obs::AnalysisConfig config;
  config.num_prcs = combo.prcs;
  config.num_cg = combo.cg;
  const obs::RunReport report = obs::analyze_trace(recorder.events(), config);
  for (std::size_t b = 0; b < obs::kNumCycleBuckets; ++b) {
    row.buckets[b] = report.accounting.core.cycles[b];
  }
  row.fg_utilization = report.occupancy.fg_utilization;
  row.cg_utilization = report.occupancy.cg_utilization;
  row.fragmentation = report.occupancy.fragmentation_index;
  row.compaction = report.occupancy.compaction_opportunity;
  row.hidden_fraction = report.critical_path.hidden_fraction;
  return row;
}

void run_sweep() {
  for (const FabricCombination& combo : sweep_points()) {
    rows()[combo.label()] = run_point(combo);
  }
}

/// Reporting stub: the heavy work happened in run_sweep(); this publishes
/// the point's analysis metrics under the BM_Fig13/<label> names.
void BM_Fig13_Combination(benchmark::State& state) {
  const auto prcs = static_cast<unsigned>(state.range(0));
  const auto cg = static_cast<unsigned>(state.range(1));
  const Row& row = rows()[FabricCombination{prcs, cg}.label()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.mrts);
  }
  state.counters["mrts_Mcycles"] = static_cast<double>(row.mrts) / 1e6;
  state.counters["fg_utilization"] = row.fg_utilization;
  state.counters["cg_utilization"] = row.cg_utilization;
  state.counters["hidden_fraction"] = row.hidden_fraction;
}

void register_benchmarks() {
  for (const FabricCombination& combo : sweep_points()) {
    benchmark::RegisterBenchmark(("BM_Fig13/" + combo.label()).c_str(),
                                 BM_Fig13_Combination)
        ->Args({static_cast<long>(combo.prcs), static_cast<long>(combo.cg)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"PRCs/CG", "mRTS [Mcyc]", "Execute %", "Stall %",
                   "FG util", "CG util", "Frag", "Hidden"});
  CsvWriter csv("fig13_utilization_breakdown.csv");
  csv.write_header({"prcs", "cg", "mrts_cycles", "execute_cycles",
                    "reconfig_stall_cycles", "scrub_repair_cycles",
                    "arbiter_idle_cycles", "pure_idle_cycles",
                    "fg_utilization", "cg_utilization", "fragmentation_index",
                    "compaction_opportunity", "hidden_fraction"});

  for (const FabricCombination& combo : sweep_points()) {
    const Row& row = rows()[combo.label()];
    Cycles span = 0;
    for (const Cycles c : row.buckets) span += c;
    const double denom = span > 0 ? static_cast<double>(span) : 1.0;
    const auto execute =
        row.buckets[static_cast<std::size_t>(obs::CycleBucket::kExecute)];
    const auto stall = row.buckets[static_cast<std::size_t>(
        obs::CycleBucket::kReconfigStall)];
    table.add_values(combo.label(), format_mcycles(row.mrts),
                     format_double(100.0 * static_cast<double>(execute) / denom, 1),
                     format_double(100.0 * static_cast<double>(stall) / denom, 1),
                     format_double(row.fg_utilization, 3),
                     format_double(row.cg_utilization, 3),
                     format_double(row.fragmentation, 3),
                     format_double(row.hidden_fraction, 3));
    csv.write_values(
        combo.prcs, combo.cg, row.mrts,
        row.buckets[static_cast<std::size_t>(obs::CycleBucket::kExecute)],
        row.buckets[static_cast<std::size_t>(
            obs::CycleBucket::kReconfigStall)],
        row.buckets[static_cast<std::size_t>(obs::CycleBucket::kScrubRepair)],
        row.buckets[static_cast<std::size_t>(obs::CycleBucket::kArbiterIdle)],
        row.buckets[static_cast<std::size_t>(obs::CycleBucket::kPureIdle)],
        row.fg_utilization, row.cg_utilization, row.fragmentation,
        row.compaction, row.hidden_fraction);
  }
  std::printf("\nFig. 13 — fabric utilization and core stall breakdown "
              "(written to fig13_utilization_breakdown.csv)\n%s",
              table.render().c_str());
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
