// Energy comparison (beyond the paper's performance-only evaluation): the
// first-order energy model of sim/energy.h applied to every run-time system
// on a 2 PRC + 2 CG machine, plus mRTS across fabric sizes. Reported to
// sanity-check that the performance wins do not come at absurd
// reconfiguration-energy cost.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "sim/energy.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

void BM_Energy_Mrts(benchmark::State& state) {
  const EvalContext& ctx = context();
  for (auto _ : state) {
    MRts rts(ctx.app.library, 2, 2);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    const EnergyBreakdown e =
        estimate_energy(run, rts.fabric().reconfig_stats());
    state.counters["total_mJ"] = e.total_mj();
    state.counters["reconfig_mJ"] = e.reconfiguration_mj;
  }
}
BENCHMARK(BM_Energy_Mrts)->Iterations(1)->Unit(benchmark::kMillisecond);

void print_table() {
  const EvalContext& ctx = context();
  TextTable table({"system", "Mcycles", "exec [mJ]", "reconfig [mJ]",
                   "leakage [mJ]", "total [mJ]", "EDP [mJ*Mcyc]"});
  CsvWriter csv("energy.csv");
  csv.write_header({"system", "cycles", "execution_mj", "reconfiguration_mj",
                    "leakage_mj", "total_mj", "edp"});

  auto report = [&](const std::string& name, const AppRunResult& run,
                    const ReconfigStats& stats) {
    const EnergyBreakdown e = estimate_energy(run, stats);
    table.add_values(name, format_mcycles(run.total_cycles),
                     format_double(e.execution_mj, 2),
                     format_double(e.reconfiguration_mj, 2),
                     format_double(e.leakage_mj, 2),
                     format_double(e.total_mj(), 2),
                     format_double(e.edp(run.total_cycles), 2));
    csv.write_values(name, run.total_cycles, e.execution_mj,
                     e.reconfiguration_mj, e.leakage_mj, e.total_mj(),
                     e.edp(run.total_cycles));
  };

  {
    RiscOnlyRts rts(ctx.app.library);
    report("RISC-only", run_application(rts, ctx.app.trace), ReconfigStats{});
  }
  {
    RisppRts rts(ctx.app.library, 2, 2);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    report("RISPP-like", run, rts.fabric().reconfig_stats());
  }
  {
    Morpheus4sRts rts(ctx.app.library, 2, 2, ctx.profile);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    report("Morpheus+4S-like", run, rts.fabric().reconfig_stats());
  }
  {
    OfflineOptimalRts rts(ctx.app.library, 2, 2, ctx.profile);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    report("Offline-optimal", run, rts.fabric().reconfig_stats());
  }
  {
    MRts rts(ctx.app.library, 2, 2);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    report("mRTS (2 PRC + 2 CG)", run, rts.fabric().reconfig_stats());
  }
  for (unsigned size : {1u, 3u}) {
    MRts rts(ctx.app.library, size, size);
    const AppRunResult run = run_application(rts, ctx.app.trace);
    report("mRTS (" + std::to_string(size) + " PRC + " +
               std::to_string(size) + " CG)",
           run, rts.fabric().reconfig_stats());
  }

  std::printf("\nEnergy model (beyond the paper; written to energy.csv)\n%s",
              table.render().c_str());

  // Traffic summary for the mRTS run.
  MRts rts(ctx.app.library, 2, 2);
  run_application(rts, ctx.app.trace);
  const ReconfigStats& s = rts.fabric().reconfig_stats();
  std::printf(
      "mRTS reconfiguration traffic: %llu FG bitstreams (%.2f MB), %llu CG "
      "contexts (%.1f KB), %llu loads avoided by reuse, %llu cancelled.\n",
      static_cast<unsigned long long>(s.fg_loads),
      static_cast<double>(s.fg_bytes) / 1e6,
      static_cast<unsigned long long>(s.cg_loads),
      static_cast<double>(s.cg_bytes) / 1e3,
      static_cast<unsigned long long>(s.reused_instances),
      static_cast<unsigned long long>(s.cancelled_loads));
}

}  // namespace

int main(int argc, char** argv) {
  mrts::bench::parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  print_table();
  return 0;
}
