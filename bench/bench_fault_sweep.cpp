// Fig. 11 (extension beyond the paper): mRTS speedup vs fault rate. The
// paper's machine assumes perfect silicon; this harness sweeps the uniform
// fault rate of the deterministic injector (arch/fault_model.h) on a fixed
// 4 PRC + 2 CG fabric and reports how gracefully the ECU degradation ladder
// gives the speedup back. Expected shape: the fault-free point matches
// Fig. 8's 4/2 combination; rising rates cost cycles through CRC retries,
// scrub repairs and quarantines; at rate 1.0 every container quarantines on
// first touch and the run converges to RISC-only (speedup 1.0x).
//
// The sweep runs its points in rate order; every point builds its own
// simulator stack (own MRts, own FaultModel seeded from --fault-seed).
// --fault-seed/--max-retries apply to every point; the bench takes no
// --fault-rate (the rate axis IS the figure).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

/// The fabric under test: the mid-size 4 PRC + 2 CG machine (Fig. 8's
/// best-scaling column).
constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

/// The fault-rate axis. Rate 0 is the baseline row (must match the
/// fault-free fig8 4/2 point); rate 1.0 is the all-quarantined endpoint.
const std::vector<double>& rates() {
  static const std::vector<double> r = {0.0,  0.01, 0.02, 0.05,
                                        0.10, 0.20, 0.50, 1.00};
  return r;
}

struct PointResult {
  Cycles mrts_cycles = 0;
  FaultStats faults;
  CounterRegistry counters;
};

std::map<double, PointResult>& points() {
  static std::map<double, PointResult> p;
  return p;
}

/// One independent sweep point: a full-application mRTS run with the
/// injector at \p rate. Each point owns its RTS, fabric, fault model and
/// counter registry; EvalContext is shared read-only.
PointResult run_point(double rate) {
  const EvalContext& ctx = context();
  PointResult result;
  MRtsConfig config;
  if (rate > 0.0) {
    config.fault = FaultModelConfig::uniform(
        rate, bench_args()["--fault-seed"].count,
        static_cast<unsigned>(bench_args()["--max-retries"].count));
  }
  MRts rts(ctx.app.library, kCgFabrics, kPrcs, config);
  static_cast<RuntimeSystem&>(rts).attach_observability(nullptr,
                                                        &result.counters);
  result.mrts_cycles = run_application(rts, ctx.app.trace).total_cycles;
  if (rts.fault_model() != nullptr) result.faults = rts.fault_model()->stats();
  return result;
}

void run_sweep() {
  for (const double rate : rates()) points()[rate] = run_point(rate);
}

/// Reporting stub: the heavy work happened in run_sweep(); this publishes
/// each rate's cycles/speedup under BM_FaultSweep/<permille> names.
void BM_FaultSweep_Rate(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  const PointResult& point = points()[rate];
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.mrts_cycles);
  }
  state.counters["mrts_Mcycles"] =
      static_cast<double>(point.mrts_cycles) / 1e6;
  state.counters["speedup_vs_risc"] =
      speedup(context().risc_cycles, point.mrts_cycles);
  state.counters["faults_injected"] =
      static_cast<double>(point.faults.injected);
}

void register_benchmarks() {
  for (double rate : rates()) {
    const long permille = static_cast<long>(rate * 1000.0 + 0.5);
    benchmark::RegisterBenchmark(
        ("BM_FaultSweep/rate_" + std::to_string(permille) + "permille")
            .c_str(),
        BM_FaultSweep_Rate)
        ->Args({permille})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"fault rate", "mRTS [Mcyc]", "vs RISC", "vs fault-free",
                   "injected", "retries", "failed loads", "scrub repairs",
                   "quarantined"});
  CsvWriter csv("fig11_speedup_vs_fault_rate.csv");
  csv.write_header({"fault_rate", "mrts_cycles", "speedup_vs_risc",
                    "speedup_vs_fault_free", "faults_injected",
                    "load_failures", "retries", "failed_loads",
                    "transient_upsets", "scrub_repairs", "quarantined_prcs",
                    "quarantined_cg"});

  const Cycles risc = context().risc_cycles;
  const Cycles fault_free = points()[0.0].mrts_cycles;
  for (double rate : rates()) {
    const PointResult& p = points()[rate];
    const FaultStats& f = p.faults;
    const double vs_risc = speedup(risc, p.mrts_cycles);
    const double vs_ff = speedup(fault_free, p.mrts_cycles);
    table.add_values(format_double(rate, 2), format_mcycles(p.mrts_cycles),
                     vs_risc, vs_ff, f.injected, f.retries, f.failed_loads,
                     f.scrub_repairs, f.quarantined_prcs + f.quarantined_cg);
    csv.write_values(format_double(rate, 2), p.mrts_cycles, vs_risc, vs_ff,
                     f.injected, f.load_failures, f.retries, f.failed_loads,
                     f.transient_upsets, f.scrub_repairs, f.quarantined_prcs,
                     f.quarantined_cg);
  }
  std::printf("\nFig. 11 — mRTS speedup vs fault rate on %u PRCs + %u CG "
              "(seed %llu, written to fig11_speedup_vs_fault_rate.csv)\n%s",
              kPrcs, kCgFabrics,
              static_cast<unsigned long long>(
                  bench_args()["--fault-seed"].count),
              table.render().c_str());
  std::printf(
      "fault-free speedup %.2fx; rate-1.0 endpoint %.2fx (expected: "
      "quarantine everything, converge to RISC ~1.0x)\n",
      speedup(risc, fault_free),
      speedup(risc, points()[1.0].mrts_cycles));
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv,
                   {BenchFlag::kFaultSeed, BenchFlag::kMaxRetries});
  ::benchmark::Initialize(&argc, argv);
  run_sweep();
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
